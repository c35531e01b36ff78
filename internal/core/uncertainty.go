// Heteroscedastic observation noise (PR 9). The System carries a per-road
// observation-noise variance vector — seeded from workerqual answer
// dispersion, falling back to per-road-class defaults — plus a global SD
// calibration scale fit on held-out days. Both thread through every GSP run
// (estimateState) and into the temporal filter's measurement updates, so
// every served SD is a calibrated posterior instead of a structural proxy.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/network"
)

// classNoiseSD is the default probe-noise standard deviation per road class
// (km/h): the crowd reads fast roads with larger absolute error (GPS drift
// over longer segments, larger speed spread inside one probe window).
var classNoiseSD = map[network.Class]float64{
	network.Highway:   2.0,
	network.Arterial:  1.5,
	network.Secondary: 1.2,
	network.Local:     1.0,
}

// DefaultClassNoiseSD returns the default probe-noise SD of one road class.
func DefaultClassNoiseSD(c network.Class) float64 {
	if sd, ok := classNoiseSD[c]; ok {
		return sd
	}
	return 1.5
}

// DefaultObsNoise builds the per-road-class fallback noise vector: each
// road's observation-noise variance from its class's default probe SD. This
// is the fallback argument for workerqual.ObservationNoise and a usable
// noise vector on its own before any answer history exists.
func DefaultObsNoise(net *network.Network) []float64 {
	n := net.N()
	noise := make([]float64, n)
	for i := 0; i < n; i++ {
		sd := DefaultClassNoiseSD(net.Road(i).Class)
		noise[i] = sd * sd
	}
	return noise
}

// SetObsNoise installs the per-road observation-noise variance vector
// (speed² units); every subsequent estimate's SD field prices probes at
// √noise[r] instead of 0. Nil clears it (exact observations, the pre-PR-9
// behavior). The vector is copied; negative entries are clamped to 0.
func (s *System) SetObsNoise(noise []float64) error {
	if noise == nil {
		s.obsNoise.Store(nil)
		return nil
	}
	if len(noise) != s.net.N() {
		return fmt.Errorf("core: obs-noise vector covers %d roads, network has %d", len(noise), s.net.N())
	}
	cp := make([]float64, len(noise))
	for i, v := range noise {
		if v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			cp[i] = v
		}
	}
	s.obsNoise.Store(&cp)
	return nil
}

// ObsNoise returns the installed noise vector (shared, read-only) or nil.
func (s *System) ObsNoise() []float64 {
	if p := s.obsNoise.Load(); p != nil {
		return *p
	}
	return nil
}

// ObsNoiseFunc returns the per-road noise lookup for the temporal filter's
// measurement updates, or nil when no vector is installed.
func (s *System) ObsNoiseFunc() func(road int) float64 {
	noise := s.ObsNoise()
	if noise == nil {
		return nil
	}
	return func(road int) float64 {
		if road < 0 || road >= len(noise) {
			return 0
		}
		return noise[road]
	}
}

// SetSDScale installs the global SD calibration factor applied to fused
// (non-observed) roads of every estimate — √mean(residual²/SD²) fit on
// held-out days (experiments.FitSDScale). Values ≤ 0 clear it (scale 1).
func (s *System) SetSDScale(scale float64) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = 0
	}
	s.sdScaleBits.Store(math.Float64bits(scale))
}

// SDScale returns the installed calibration factor (0 = unset = 1).
func (s *System) SDScale() float64 {
	return math.Float64frombits(s.sdScaleBits.Load())
}

// SetPriorScale installs the prior-spread calibration factor applied to the
// Σ the prior tier serves (PriorField): the split-conformal quantile ratio
// fit on held-out residuals against the raw prior
// (experiments.FitPriorScale). Σ is the model's mean-square deviation;
// heavier-than-Gaussian tails make the raw Gaussian interval under-cover,
// and this factor is what restores honest coverage. Values ≤ 0 clear it
// (scale 1).
func (s *System) SetPriorScale(scale float64) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = 0
	}
	s.priorScaleBits.Store(math.Float64bits(scale))
}

// PriorScale returns the installed prior calibration factor (0 = unset = 1).
func (s *System) PriorScale() float64 {
	return math.Float64frombits(s.priorScaleBits.Load())
}

// noiseHolder is embedded in System: the atomic uncertainty knobs.
type noiseHolder struct {
	obsNoise       atomic.Pointer[[]float64]
	sdScaleBits    atomic.Uint64
	priorScaleBits atomic.Uint64
}
