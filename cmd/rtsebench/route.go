// The route suite (BENCH_PR10.json): the route-level ETA harness. It runs the
// experiments.RouteETACoverage sweep (probe densities × nominal credible
// levels over a deterministic OD-pair fleet, with a route-level conformal
// scale fitted on interleaved calibration slots) and the route-aware OCS
// objective ablation (correlation vs RouteVar on realized ETA variance at
// equal budget). Every number is fully seeded, so the reduced -check run —
// the same sweep at the serving level only — fails exactly on a drifted
// delta-method integration, a broken sensitivity weighting or a mis-wired
// RouteVar selector.
package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/stattest"
)

// routeSize sizes the route harness.
type routeSize struct {
	pairs     int // OD pairs in the fleet
	slots     int // scored slots per evaluation day (twice as many are walked)
	densities []int
	levels    []float64
	budgets   []int // OCS budgets of the objective ablation
}

var routeSuite = &suite[routeReport, routeSize]{
	name:  "route",
	file:  "BENCH_PR10.json",
	full:  routeSize{pairs: 6, slots: 6, densities: []int{8, 16}, levels: coverageLevels, budgets: []int{5, 10, 20}},
	fresh: routeSize{pairs: 6, slots: 6, densities: []int{8, 16}, levels: []float64{servingLevel}, budgets: []int{5, 10, 20}},
	drive: driveRoute,
	pass:  passRoute,
}

// routeCellJSON is one route-coverage cell in the BENCH_PR10.json schema.
type routeCellJSON struct {
	Probes    int     `json:"probes"`
	Level     float64 `json:"level"`
	Coverage  float64 `json:"coverage"`
	N         int     `json:"n"`
	MeanWidth float64 `json:"mean_width_min"`
}

// routeOCSJSON is one budget level of the route-aware OCS ablation.
type routeOCSJSON struct {
	Budget      int     `json:"budget"`
	HybridVar   float64 `json:"hybrid_var"`
	RouteVarVar float64 `json:"routevar_var"`
	WinPct      float64 `json:"win_pct"`
}

// routeReport is the BENCH_PR10.json schema.
type routeReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Roads       int       `json:"roads"`
	Days        int       `json:"days"`
	Slot        int       `json:"slot"`
	Pairs       int       `json:"od_pairs"`
	ScoredSlots int       `json:"scored_slots"`
	Densities   []int     `json:"probe_densities"`
	Levels      []float64 `json:"levels"`
	Budgets     []int     `json:"budgets"`

	RouteScale float64 `json:"route_scale"`

	Cells    []routeCellJSON `json:"cells"`
	RouteOCS []routeOCSJSON  `json:"route_ocs"`

	// Gate summary: at the serving level (90%) the route-level interval's
	// coverage sits within the binomial band of nominal at every density,
	// and the route-aware objective's realized ETA variance is strictly
	// below the correlation objective's at every budget.
	TargetAchieved bool `json:"target_achieved"`
}

// driveRoute runs the route-coverage sweep and the route-OCS ablation.
func driveRoute(fx *fixture, size routeSize, w io.Writer) (*routeReport, error) {
	env, err := fx.env()
	if err != nil {
		return nil, err
	}
	rep := &routeReport{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Roads:       fx.opt.Roads,
		Days:        fx.opt.Days,
		Slot:        int(env.Slot),
		ScoredSlots: size.slots,
		Densities:   size.densities,
		Levels:      size.levels,
		Budgets:     size.budgets,
	}

	cov, err := experiments.RouteETACoverage(env, size.pairs, size.densities, size.levels, size.slots)
	if err != nil {
		return nil, err
	}
	experiments.RenderRouteCoverage(w, cov)
	fmt.Fprintln(w)
	rep.RouteScale = cov.RouteScale
	rep.Pairs = cov.Pairs
	for _, c := range cov.Cells {
		rep.Cells = append(rep.Cells, routeCellJSON{
			Probes: c.Probes, Level: c.Level, Coverage: c.Coverage,
			N: c.N, MeanWidth: c.MeanWidth,
		})
	}

	ocs, err := experiments.RouteOCSAblation(env, size.pairs, size.budgets, theta)
	if err != nil {
		return nil, err
	}
	experiments.RenderRouteOCS(w, ocs)
	fmt.Fprintln(w)
	for _, r := range ocs {
		rep.RouteOCS = append(rep.RouteOCS, routeOCSJSON{
			Budget: r.Budget, HybridVar: r.HybridVar, RouteVarVar: r.RouteVarVar, WinPct: r.WinPct,
		})
	}
	rep.TargetAchieved = passRoute(nil, rep, io.Discard) == nil
	return rep, nil
}

// passRoute: at the serving level the route interval's coverage must sit
// within the binomial band at every density (≥ 2 densities, ≥ 2 OD pairs),
// and the route-aware objective's realized ETA variance must be strictly
// below the correlation objective's at every budget.
func passRoute(base, run *routeReport, w io.Writer) error {
	if len(run.Densities) < 2 {
		return fmt.Errorf("%d probe densities recorded, want ≥ 2", len(run.Densities))
	}
	if run.Pairs < 2 {
		return fmt.Errorf("%d OD pairs recorded, want ≥ 2", run.Pairs)
	}
	judged := 0
	for _, c := range run.Cells {
		if c.Level != servingLevel {
			continue
		}
		judged++
		verdict := stattest.CheckCoverage(c.Coverage, c.Level, c.N, false)
		if base != nil {
			fmt.Fprintf(w, "rtsebench: route smoke coverage at %2d probes: %.4f (n=%d) — %s\n",
				c.Probes, c.Coverage, c.N, passFail(verdict == nil))
		}
		if verdict != nil {
			return fmt.Errorf("route coverage at %d probes: %w", c.Probes, verdict)
		}
	}
	if judged < len(run.Densities) {
		return fmt.Errorf("%d cells at level %.2f, want %d", judged, servingLevel, len(run.Densities))
	}
	if len(run.RouteOCS) == 0 {
		return fmt.Errorf("no route-OCS rows recorded")
	}
	for _, r := range run.RouteOCS {
		verdict := r.RouteVarVar < r.HybridVar
		if base != nil {
			fmt.Fprintf(w, "rtsebench: route smoke OCS at budget %2d: corr %.4f vs routevar %.4f — %s\n",
				r.Budget, r.HybridVar, r.RouteVarVar, passFail(verdict))
		}
		if !verdict {
			return fmt.Errorf("budget %d: route-aware objective not strictly better (%.6f ≥ %.6f)",
				r.Budget, r.RouteVarVar, r.HybridVar)
		}
	}
	if base == nil {
		fmt.Fprintf(w, "rtsebench: route baseline %d coverage cells at level %.2f in-band, routevar beats corr at %d budgets — ok\n",
			judged, servingLevel, len(run.RouteOCS))
	}
	return nil
}
