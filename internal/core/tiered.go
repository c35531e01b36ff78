// Tier-aware estimation (PR 6, uncertainty rebuilt in PR 9). The admission
// controller (internal/qos) decides at what service tier a request runs;
// this file is the execution side: each rung of the QoS ladder maps onto
// machinery previous PRs built as optimizations or fault responses, now
// addressable as deliberate service levels.
//
// A degraded answer is never silently degraded — and since PR 9 its wider
// uncertainty is *derived from what the tier actually dropped*, not a fixed
// fudge factor:
//
//   - batched: the follower serves the leader's field, dropping its own
//     observation set. The measured gap between the follower's evidence and
//     the served field is added to the variance — exactly on the follower's
//     observed roads, and as the mean squared gap network-wide (the served
//     field cannot be trusted closer than its distance to the evidence we
//     actually hold, and without per-road attribution the mean gap is the
//     honest bound).
//   - cached: the stored field is `age` slots old. Each road's variance is
//     aged through its AR(1) transition (the temporal filter's own φ/Q):
//     var' = φ²ᵃ·var + Q·(1−φ²ᵃ)/(1−φ²), clamped ≥ var — staleness can only
//     widen — plus the same evidence-gap term against the slot's *current*
//     observations, which the cache has never seen.
//   - prior: the served field is μ and its honest spread is exactly the
//     prior Σ — no multiplier at all. What the tier drops is all realtime
//     signal, and Σ already prices that.
//
// TierResult.VarianceInflation reports the aggregate widening as
// √(Σvar'/Σvar), so dashboards keep a single scalar per answer (1.0 at full
// and prior tier).
package core

import (
	"context"
	"math"
	"time"

	"repro/internal/gsp"
	"repro/internal/qos"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// TierResult is a speed field served at an explicit QoS tier. SD already
// includes the tier's principled inflation; Result.Speeds/SD are private
// copies safe to mutate.
type TierResult struct {
	gsp.Result
	// Tier is the rung the answer was actually served at — it may be lower
	// than the admitted tier (TierCached falls through to TierPrior when the
	// warm LRU has nothing for the slot).
	Tier qos.Tier
	// VarianceInflation is the aggregate SD widening over the undegraded
	// field, √(Σvar'/Σvar) — 1.0 at TierFull and TierPrior (the prior's
	// spread is Σ itself, not an inflation of anything).
	VarianceInflation float64
}

// EstimateTier answers an estimate request at a service tier:
//
//	TierFull    — Batcher.Estimate: dedicated propagation over the request's
//	              exact observations (plus the ε-equivalent singleflight and
//	              warm-start amortizations, which do not change the answer).
//	TierBatched — slot-keyed singleflight: all concurrent requests for the
//	              slot share whichever propagation runs first, even when
//	              their observation sets differ; the follower's variance is
//	              widened by its measured evidence gap (BatchedTierResult).
//	TierCached  — the slot's previous field straight from the warm LRU, no
//	              propagation, variance aged through the AR(1) transition
//	              (CachedTierResult); falls through to TierPrior when the
//	              slot was never estimated (the result's Tier reports it).
//	TierPrior   — the periodicity prior μ with its own spread Σ, no model
//	              evaluation beyond a read of the slot's view.
//
// Lower tiers never return an error: their whole point is answering when
// the full pipeline can't be afforded.
func (b *Batcher) EstimateTier(ctx context.Context, tier qos.Tier, t tslot.Slot, observed map[int]float64) (TierResult, error) {
	switch tier {
	case qos.TierBatched:
		res, err := b.estimateSlotShared(ctx, t, observed)
		if err != nil {
			return TierResult{}, err
		}
		return BatchedTierResult(res, observed), nil
	case qos.TierCached:
		if res, at := b.lastResultAt(t); res != nil {
			age := b.cacheAgeSlots(at)
			phi, q := b.decayParams()
			return CachedTierResult(*res, observed, age, phi, q), nil
		}
		return b.priorResult(t), nil
	case qos.TierPrior:
		return b.priorResult(t), nil
	default: // TierFull
		res, err := b.Estimate(ctx, t, observed)
		if err != nil {
			return TierResult{}, err
		}
		return FullTierResult(res), nil
	}
}

// estimateSlotShared coalesces every concurrent same-slot request onto one
// propagation regardless of observation set: the leader runs Estimate with
// its own observations, followers wait and take the leader's field. This is
// deliberately lossier than Estimate's digest-keyed singleflight — that is
// what makes it a cheaper tier.
func (b *Batcher) estimateSlotShared(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	return shareFlight(ctx, b, b.slotFlight, t, func() (gsp.Result, error) {
		return b.Estimate(ctx, t, observed)
	})
}

// CachedResult returns the slot's most recent estimate from the warm LRU
// without running anything, with ok=false when the slot has no cached field.
// The result is a private copy.
func (b *Batcher) CachedResult(t tslot.Slot) (gsp.Result, bool) {
	res := b.lastResult(t)
	if res == nil {
		return gsp.Result{}, false
	}
	out := *res
	out.Speeds = append([]float64(nil), res.Speeds...)
	out.SD = append([]float64(nil), res.SD...)
	return out, true
}

// cacheAgeSlots converts a cache-entry timestamp into fractional slots of
// age on the observation pipeline's clock. A zero timestamp (entries stored
// before the clock was wired, or synthetic tests) reads as fresh.
func (b *Batcher) cacheAgeSlots(at time.Time) float64 {
	if at.IsZero() {
		return 0
	}
	age := b.sys.Obs().Clock.Since(at)
	if age <= 0 {
		return 0
	}
	return float64(age) / float64(tslot.Duration)
}

// decayParams resolves the per-road AR(1) transition parameters used to age
// a cached field: the attached temporal filter's fitted φ/Q when one is
// attached, else the class defaults over the network's road classes (built
// once).
func (b *Batcher) decayParams() (phi, q func(road int) float64) {
	if f := b.Temporal(); f != nil && f.N() == b.sys.net.N() {
		return func(r int) float64 { p, _ := f.RoadParams(r); return p },
			func(r int) float64 { _, qq := f.RoadParams(r); return qq }
	}
	b.decayOnce.Do(func() {
		n := b.sys.net.N()
		params := temporal.DefaultParams()
		b.decayPhi = make([]float64, n)
		b.decayQ = make([]float64, n)
		for i := 0; i < n; i++ {
			cp := params.For(b.sys.net.Road(i).Class)
			b.decayPhi[i] = cp.Phi
			b.decayQ[i] = cp.Q
		}
	})
	return func(r int) float64 { return b.decayPhi[r] },
		func(r int) float64 { return b.decayQ[r] }
}

// PriorField returns the periodicity prior for slot t: μ as the speeds and
// the prior spread Σ as the SD, scaled by the installed prior calibration
// factor (SetPriorScale). Both slices are copies.
func (s *System) PriorField(t tslot.Slot) (speeds, sd []float64) {
	view := s.current().model.At(t)
	speeds = append([]float64(nil), view.Mu...)
	sd = append([]float64(nil), view.Sigma...)
	if scale := s.PriorScale(); scale > 0 && scale != 1 {
		for i := range sd {
			sd[i] *= scale
		}
	}
	return speeds, sd
}

// priorResult packages the prior field as a TierPrior answer.
func (b *Batcher) priorResult(t tslot.Slot) TierResult {
	speeds, sd := b.sys.PriorField(t)
	return PriorTierResult(speeds, sd)
}

// ---------------------------------------------------------------------------
// Tier transforms — exported and pure, so the calibration experiments gate
// exactly the formulas production serves.
// ---------------------------------------------------------------------------

// FullTierResult labels res as a full-tier answer: private copies, no
// inflation.
func FullTierResult(res gsp.Result) TierResult {
	return transformTier(res, qos.TierFull, nil)
}

// BatchedTierResult prices a slot-shared answer for one follower: res is the
// leader's field, observed the follower's own observation set (the evidence
// the shared pass dropped). Each follower-observed road's variance gains its
// measured squared gap to the served field; every other road gains the mean
// squared gap — the honest network-wide bound on how far the served field
// sits from evidence it never saw. An empty observation set degenerates to
// the full-tier answer (nothing was dropped).
func BatchedTierResult(res gsp.Result, observed map[int]float64) TierResult {
	d2, meanD2 := evidenceGap(res, observed)
	return transformTier(res, qos.TierBatched, func(i int, v float64) float64 {
		if d, ok := d2[i]; ok {
			return v + d
		}
		return v + meanD2
	})
}

// CachedTierResult prices a stale cached field: res is the stored estimate,
// ageSlots how many (fractional) slots old it is, observed the slot's
// current observation set (which the cache has never seen), and phi/q the
// per-road AR(1) transition parameters. Each road's variance is aged
// through the transition — var' = φ²ᵃ·var + Q·(1−φ²ᵃ)/(1−φ²), clamped so
// staleness never *narrows* an interval — then widened by the evidence gap
// exactly like the batched tier.
func CachedTierResult(res gsp.Result, observed map[int]float64, ageSlots float64, phi, q func(road int) float64) TierResult {
	if ageSlots < 0 {
		ageSlots = 0
	}
	d2, meanD2 := evidenceGap(res, observed)
	return transformTier(res, qos.TierCached, func(i int, v float64) float64 {
		aged := agedVariance(v, ageSlots, phi(i), q(i))
		if d, ok := d2[i]; ok {
			return aged + d
		}
		return aged + meanD2
	})
}

// PriorTierResult packages the prior field (μ, Σ) as a TierPrior answer:
// the spread is Σ itself — the honest price of serving zero realtime signal
// — so VarianceInflation is 1.0 and every road's provenance is the prior.
func PriorTierResult(speeds, sd []float64) TierResult {
	prov := make([]gsp.Provenance, len(speeds))
	return TierResult{
		Result: gsp.Result{
			Speeds:     append([]float64(nil), speeds...),
			SD:         append([]float64(nil), sd...),
			Provenance: prov, // zero value: ProvPrior everywhere
			Converged:  true,
		},
		Tier:              qos.TierPrior,
		VarianceInflation: 1.0,
	}
}

// agedVariance runs one road's variance `age` slots through its AR(1)
// transition, clamped to never shrink (a stale answer cannot be more certain
// than it was when computed). φ → 1 degenerates to var + Q·age.
func agedVariance(v, age, phi, q float64) float64 {
	if age <= 0 || q < 0 {
		return v
	}
	if phi < 0 {
		phi = 0
	}
	if phi > temporal.PhiMax {
		phi = temporal.PhiMax
	}
	denom := 1 - phi*phi
	var aged float64
	if denom < 1e-9 {
		aged = v + q*age
	} else {
		decay := math.Pow(phi, 2*age)
		aged = decay*v + q*(1-decay)/denom
	}
	if aged < v {
		return v
	}
	return aged
}

// evidenceGap measures the squared gap between an observation set and the
// served field: per observed road, and as the mean over the set.
func evidenceGap(res gsp.Result, observed map[int]float64) (d2 map[int]float64, meanD2 float64) {
	if len(observed) == 0 {
		return nil, 0
	}
	d2 = make(map[int]float64, len(observed))
	var sum float64
	n := 0
	for r, v := range observed {
		if r < 0 || r >= len(res.Speeds) {
			continue
		}
		d := v - res.Speeds[r]
		d2[r] = d * d
		sum += d * d
		n++
	}
	if n > 0 {
		meanD2 = sum / float64(n)
	}
	return d2, meanD2
}

// transformTier applies a per-road variance transform to a private copy of
// res and labels it with its tier and the aggregate variance inflation
// √(Σvar'/Σvar). A nil transform copies the field untouched (inflation 1).
// Speeds are copied too: shared-flight followers and cached reads alias the
// stored field, which must stay pristine for the next warm start.
func transformTier(res gsp.Result, tier qos.Tier, newVar func(road int, v float64) float64) TierResult {
	out := res
	out.Speeds = append([]float64(nil), res.Speeds...)
	out.SD = append([]float64(nil), res.SD...)
	inflation := 1.0
	if newVar != nil && len(out.SD) > 0 {
		var sumOld, sumNew float64
		for i, sd := range out.SD {
			v := sd * sd
			nv := newVar(i, v)
			if nv < 0 {
				nv = 0
			}
			out.SD[i] = math.Sqrt(nv)
			sumOld += v
			sumNew += nv
		}
		if sumOld > 0 {
			inflation = math.Sqrt(sumNew / sumOld)
		}
	}
	return TierResult{Result: out, Tier: tier, VarianceInflation: inflation}
}
