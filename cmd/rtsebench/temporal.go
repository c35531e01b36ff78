// The temporal suite (BENCH_PR8.json): the cross-slot state-space harness.
// It runs the experiments.TemporalAblation sparsity sweep (per-slot GSP vs
// the filter), the forecast-vs-realized horizon curve, and a filter
// micro-benchmark (predict+update step latency, forecast-fan latency). The
// MAPE numbers are fully seeded, so the reduced -check run — the sparsest
// ablation cell alone — fails exactly, not statistically, on a drifted
// filter or a broken feed order; only the latencies are wall-clock.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/temporal"
)

const temporalBenchIters = 2000

// temporalSize sizes the temporal harness.
type temporalSize struct {
	slots  int   // consecutive slots walked per evaluation day
	probes []int // probe-sparsity levels, sparsest first
	// horizon is the forecast fan depth; 0 skips the forecast curve and the
	// filter micro-benchmark.
	horizon int
}

var temporalSuite = &suite[temporalReport, temporalSize]{
	name:  "temporal",
	file:  "BENCH_PR8.json",
	full:  temporalSize{slots: 12, probes: []int{4, 12, 24}, horizon: 4},
	fresh: temporalSize{slots: 12, probes: []int{4}},
	drive: driveTemporal,
	pass:  passTemporal,
}

// temporalAblationJSON is one sparsity level in the BENCH_PR8.json schema.
type temporalAblationJSON struct {
	Probes     int       `json:"probes"`
	GSPMAPE    float64   `json:"gsp_mape"`
	FilterMAPE float64   `json:"filter_mape"`
	WinPct     float64   `json:"win_pct"`
	ForecastSD []float64 `json:"forecast_sd"`
}

// temporalForecastJSON is one horizon in the BENCH_PR8.json schema.
type temporalForecastJSON struct {
	Horizon   int     `json:"horizon"`
	MAPE      float64 `json:"mape"`
	PriorMAPE float64 `json:"prior_mape"`
	Skill     float64 `json:"skill"`
	MeanSD    float64 `json:"mean_sd"`
}

// temporalReport is the BENCH_PR8.json schema.
type temporalReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Roads     int   `json:"roads"`
	Days      int   `json:"days"`
	Slot      int   `json:"slot"`
	QuerySize int   `json:"query_size"`
	WalkSlots int   `json:"walk_slots"`
	Probes    []int `json:"probe_levels"`
	Horizon   int   `json:"horizon"`

	Ablation []temporalAblationJSON `json:"ablation"`
	Forecast []temporalForecastJSON `json:"forecast"`

	// Micro-benchmark: one predict+update step and one full forecast fan,
	// mean over temporalBenchIters iterations.
	StepMicros     float64 `json:"filter_step_micros"`
	ForecastMicros float64 `json:"forecast_fan_micros"`

	// Gate summary: the filter strictly beats per-slot GSP at the sparsest
	// level, and every forecast SD curve is monotone in the horizon.
	SparseWinPct   float64 `json:"sparse_win_pct"`
	TargetAchieved bool    `json:"target_achieved"`
}

// driveTemporal runs the ablation, the forecast curve and the filter
// micro-benchmark.
func driveTemporal(fx *fixture, size temporalSize, w io.Writer) (*temporalReport, error) {
	env, err := fx.env()
	if err != nil {
		return nil, err
	}
	rep := &temporalReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Roads:      fx.opt.Roads,
		Days:       fx.opt.Days,
		Slot:       int(env.Slot),
		QuerySize:  len(env.Query),
		WalkSlots:  size.slots,
		Probes:     size.probes,
		Horizon:    size.horizon,
	}

	ablation, err := experiments.TemporalAblation(env, size.probes, size.slots)
	if err != nil {
		return nil, err
	}
	experiments.RenderTemporalAblation(w, ablation)
	fmt.Fprintln(w)
	for _, r := range ablation {
		rep.Ablation = append(rep.Ablation, temporalAblationJSON{
			Probes: r.Probes, GSPMAPE: r.GSPMAPE, FilterMAPE: r.FilterMAPE,
			WinPct: r.WinPct, ForecastSD: r.ForecastSD,
		})
	}
	rep.SparseWinPct = rep.Ablation[0].WinPct

	if size.horizon > 0 {
		forecast, err := experiments.TemporalForecast(env, size.probes[len(size.probes)/2], size.slots, size.horizon)
		if err != nil {
			return nil, err
		}
		experiments.RenderTemporalForecast(w, forecast)
		fmt.Fprintln(w)
		for _, r := range forecast {
			rep.Forecast = append(rep.Forecast, temporalForecastJSON{
				Horizon: r.Horizon, MAPE: r.MAPE, PriorMAPE: r.PriorMAPE,
				Skill: r.Skill, MeanSD: r.MeanSD,
			})
		}
		if rep.StepMicros, rep.ForecastMicros, err = benchFilter(env, size.horizon); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "temporal: filter step %.2fµs  forecast fan (k=%d) %.2fµs  (%d roads)\n",
			rep.StepMicros, size.horizon, rep.ForecastMicros, env.Net.N())
	}
	rep.TargetAchieved = passTemporal(nil, rep, io.Discard) == nil
	return rep, nil
}

// benchFilter times one predict+update step and one forecast fan over the
// environment-sized network.
func benchFilter(env *experiments.Env, horizon int) (stepMicros, fanMicros float64, err error) {
	classes := make([]network.Class, env.Net.N())
	for i := range classes {
		classes[i] = env.Net.Road(i).Class
	}
	filt, err := temporal.New(env.Sys.Model(), env.Slot, temporal.DefaultParams(), classes, temporal.Options{})
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(env.Seed))
	observed := map[int]float64{}
	for _, r := range rng.Perm(env.Net.N())[:8] {
		observed[r] = env.Sys.Model().Mu(env.Slot, r) * (1 + 0.02*rng.NormFloat64())
	}
	t := env.Slot
	start := time.Now()
	for i := 0; i < temporalBenchIters; i++ {
		t = t.Next()
		if _, err := filt.Advance(t); err != nil {
			return 0, 0, err
		}
		if err := filt.Update(observed, nil); err != nil {
			return 0, 0, err
		}
	}
	stepMicros = float64(time.Since(start).Microseconds()) / temporalBenchIters

	start = time.Now()
	for i := 0; i < temporalBenchIters; i++ {
		if _, err := filt.Forecast(horizon); err != nil {
			return 0, 0, err
		}
	}
	fanMicros = float64(time.Since(start).Microseconds()) / temporalBenchIters
	return stepMicros, fanMicros, nil
}

// passTemporal: the filter must strictly beat per-slot GSP at the sparsest
// level and every forecast SD curve must widen monotonically with the
// horizon. A record must also span ≥ 2 sparsity levels and carry a forecast
// curve with positive 1-step skill and a monotone mean SD.
func passTemporal(base, run *temporalReport, w io.Writer) error {
	if len(run.Ablation) == 0 || (base == nil && len(run.Ablation) < 2) {
		return fmt.Errorf("%d ablation levels recorded, want ≥ 2", len(run.Ablation))
	}
	sparse := run.Ablation[0]
	verdict := sparse.FilterMAPE < sparse.GSPMAPE
	if base != nil {
		fmt.Fprintf(w, "rtsebench: temporal smoke probes=%d GSP %.4f vs filter %.4f (win %.1f%%) — %s\n",
			sparse.Probes, sparse.GSPMAPE, sparse.FilterMAPE, sparse.WinPct, passFail(verdict))
	}
	if !verdict {
		return fmt.Errorf("sparse level (%d probes): filter MAPE %.4f ≥ GSP %.4f",
			sparse.Probes, sparse.FilterMAPE, sparse.GSPMAPE)
	}
	for _, a := range run.Ablation {
		for k := 1; k < len(a.ForecastSD); k++ {
			if a.ForecastSD[k]+1e-12 < a.ForecastSD[k-1] {
				return fmt.Errorf("probes=%d forecast SD shrinks at horizon %d (%.4f < %.4f)",
					a.Probes, k+1, a.ForecastSD[k], a.ForecastSD[k-1])
			}
		}
	}
	if base != nil {
		return nil
	}
	if len(run.Forecast) < 2 {
		return fmt.Errorf("%d forecast horizons recorded, want ≥ 2", len(run.Forecast))
	}
	if run.Forecast[0].Skill <= 0 {
		return fmt.Errorf("recorded 1-step forecast skill %.4f not positive", run.Forecast[0].Skill)
	}
	for k := 1; k < len(run.Forecast); k++ {
		if run.Forecast[k].MeanSD+1e-12 < run.Forecast[k-1].MeanSD {
			return fmt.Errorf("forecast mean SD shrinks at horizon %d", run.Forecast[k].Horizon)
		}
	}
	fmt.Fprintf(w, "rtsebench: temporal baseline sparse win %.1f%% (%d probes), %d SD curves monotone — ok\n",
		sparse.WinPct, sparse.Probes, len(run.Ablation)+1)
	return nil
}
