// The calib suite (BENCH_PR9.json): the uncertainty-calibration harness. It
// runs the experiments.CalibrationAblation coverage sweep (probe densities ×
// service tiers × nominal credible levels) and the variance-minimizing OCS
// objective ablation. Every number is fully seeded, so the reduced -check
// run — the same sweep at the serving level only — fails exactly, not
// statistically, on a drifted SD path, a broken tier inflation or a
// mis-wired objective.
package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/stattest"
)

// calibSize sizes the calibration harness.
type calibSize struct {
	slots     int // scored slots per evaluation day (twice as many are walked)
	densities []int
	levels    []float64
	budgets   []int // OCS budgets of the objective ablation
}

var calibSuite = &suite[calibReport, calibSize]{
	name:  "calib",
	file:  "BENCH_PR9.json",
	full:  calibSize{slots: 6, densities: []int{4, 8, 16}, levels: coverageLevels, budgets: []int{3, 5, 8}},
	fresh: calibSize{slots: 6, densities: []int{4, 8, 16}, levels: []float64{servingLevel}, budgets: []int{3, 5, 8}},
	drive: driveCalib,
	pass:  passCalib,
}

// calibCellJSON is one coverage cell in the BENCH_PR9.json schema.
type calibCellJSON struct {
	Probes    int     `json:"probes"`
	Tier      string  `json:"tier"`
	Level     float64 `json:"level"`
	Coverage  float64 `json:"coverage"`
	N         int     `json:"n"`
	MeanWidth float64 `json:"mean_width"`
}

// varMinJSON is one OCS-objective budget level in the BENCH_PR9.json schema.
type varMinJSON struct {
	Budget    int     `json:"budget"`
	HybridVar float64 `json:"hybrid_var"`
	VarMinVar float64 `json:"varmin_var"`
	WinPct    float64 `json:"win_pct"`
}

// calibReport is the BENCH_PR9.json schema.
type calibReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Roads       int       `json:"roads"`
	Days        int       `json:"days"`
	Slot        int       `json:"slot"`
	QuerySize   int       `json:"query_size"`
	ScoredSlots int       `json:"scored_slots"`
	Densities   []int     `json:"probe_densities"`
	Levels      []float64 `json:"levels"`
	Budgets     []int     `json:"budgets"`

	SDScale    float64 `json:"sd_scale"`
	PriorScale float64 `json:"prior_scale"`

	Cells  []calibCellJSON `json:"cells"`
	VarMin []varMinJSON    `json:"varmin"`

	// Gate summary: at the serving level (90%), full-tier coverage sits
	// within the binomial band of nominal and every degraded tier is
	// conservative (≥ nominal) at every density, and the variance-minimizing
	// objective's total realized posterior variance beats the correlation
	// objective's.
	TargetAchieved bool `json:"target_achieved"`
}

// driveCalib runs the coverage sweep and the objective ablation.
func driveCalib(fx *fixture, size calibSize, w io.Writer) (*calibReport, error) {
	env, err := fx.env()
	if err != nil {
		return nil, err
	}
	rep := &calibReport{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Roads:       fx.opt.Roads,
		Days:        fx.opt.Days,
		Slot:        int(env.Slot),
		QuerySize:   len(env.Query),
		ScoredSlots: size.slots,
		Densities:   size.densities,
		Levels:      size.levels,
		Budgets:     size.budgets,
	}

	res, err := experiments.CalibrationAblation(env, size.densities, size.levels, size.slots)
	if err != nil {
		return nil, err
	}
	experiments.RenderCalibration(w, res)
	fmt.Fprintln(w)
	rep.SDScale, rep.PriorScale = res.SDScale, res.PriorScale
	for _, c := range res.Cells {
		rep.Cells = append(rep.Cells, calibCellJSON{
			Probes: c.Probes, Tier: c.Tier, Level: c.Level,
			Coverage: c.Coverage, N: c.N, MeanWidth: c.MeanWidth,
		})
	}

	varmin, err := experiments.VarMinAblation(env, size.budgets, theta)
	if err != nil {
		return nil, err
	}
	experiments.RenderVarMin(w, varmin)
	fmt.Fprintln(w)
	for _, r := range varmin {
		rep.VarMin = append(rep.VarMin, varMinJSON{
			Budget: r.Budget, HybridVar: r.HybridVar, VarMinVar: r.VarMinVar, WinPct: r.WinPct,
		})
	}
	rep.TargetAchieved = passCalib(nil, rep, io.Discard) == nil
	return rep, nil
}

// passCalib: at the serving level the full tier's coverage must sit within
// the binomial band of nominal and every degraded tier must be conservative,
// across ≥ 3 densities; the variance objective must not lose to correlation
// at any budget and must win in total.
func passCalib(base, run *calibReport, w io.Writer) error {
	if len(run.Densities) < 3 {
		return fmt.Errorf("%d probe densities recorded, want ≥ 3", len(run.Densities))
	}
	judged := 0
	for _, c := range run.Cells {
		if c.Level != servingLevel {
			continue
		}
		judged++
		var verdict error
		if c.Tier == "full" {
			verdict = stattest.CheckCoverage(c.Coverage, c.Level, c.N, false)
		} else if c.Coverage < c.Level {
			verdict = fmt.Errorf("under-covers nominal %.2f: %.4f", c.Level, c.Coverage)
		}
		if base != nil && c.Probes == run.Densities[0] {
			fmt.Fprintf(w, "rtsebench: calibration smoke %7s tier at %d probes: coverage %.4f (n=%d) — %s\n",
				c.Tier, c.Probes, c.Coverage, c.N, passFail(verdict == nil))
		}
		if verdict != nil {
			return fmt.Errorf("%s tier at %d probes: %w", c.Tier, c.Probes, verdict)
		}
	}
	if judged < 4*len(run.Densities) {
		return fmt.Errorf("%d cells at level %.2f, want %d (4 tiers × %d densities)",
			judged, servingLevel, 4*len(run.Densities), len(run.Densities))
	}
	var hv, vv float64
	for _, r := range run.VarMin {
		if r.VarMinVar > r.HybridVar {
			return fmt.Errorf("budget %d: varmin objective worse than correlation (%.4f > %.4f)",
				r.Budget, r.VarMinVar, r.HybridVar)
		}
		hv += r.HybridVar
		vv += r.VarMinVar
	}
	verdict := len(run.VarMin) > 0 && vv < hv
	if base != nil {
		fmt.Fprintf(w, "rtsebench: varmin smoke total Σ SD² corr %.2f vs varmin %.2f — %s\n", hv, vv, passFail(verdict))
	}
	if !verdict {
		return fmt.Errorf("varmin objective does not beat correlation in total (%.4f ≥ %.4f)", vv, hv)
	}
	if base == nil {
		fmt.Fprintf(w, "rtsebench: calibration baseline %d cells at level %.2f honest, varmin total %.1f < corr %.1f — ok\n",
			judged, servingLevel, vv, hv)
	}
	return nil
}
