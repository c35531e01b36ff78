// Route-level experiments (PR 10): does the ETA distribution served by
// /v1/route mean what it says, and does the route-aware OCS objective beat
// the correlation objective where it claims to — on the variance of this
// trip's travel time?
//
// The ETA interval is a delta-method composition of per-road posteriors, so
// even perfectly calibrated road intervals do not guarantee route coverage:
// residuals correlate along a path (a jam the estimator missed usually spans
// neighbouring roads), which narrows the honest interval. The coverage
// experiment therefore fits a ROUTE-LEVEL conformal scale — the empirical
// quantile of |realized − ETA|/SD over planned trips on calibration slots —
// and scores held-out coverage on the interleaved scoring slots, exactly the
// even/odd split the per-road calibration ablation uses.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/router"
	"repro/internal/stattest"
	"repro/internal/tslot"
)

// ODPair is one origin→destination route query of the experiment fleet.
type ODPair struct{ Src, Dst int }

// RoutePairs draws a deterministic fleet of OD pairs that admit a multi-road
// path on the environment's network (planned over the periodicity prior).
func RoutePairs(env *Env, count int) []ODPair {
	rng := rand.New(rand.NewSource(env.Seed + 11))
	prior := env.Sys.Model().At(env.Slot)
	pairs := make([]ODPair, 0, count)
	for tries := 0; len(pairs) < count && tries < 50*count; tries++ {
		src := rng.Intn(env.Net.N())
		dst := rng.Intn(env.Net.N())
		if src == dst {
			continue
		}
		if r, err := router.Static(env.Net, prior.Mu, src, dst); err == nil && len(r.Roads) >= 3 {
			pairs = append(pairs, ODPair{Src: src, Dst: dst})
		}
	}
	return pairs
}

// RouteCoverageCell is one (probe density, nominal level) cell of the
// route-level coverage sweep.
type RouteCoverageCell struct {
	Probes   int
	Level    float64
	Coverage float64 // fraction of trips whose realized time fell in the interval
	N        int
	// MeanWidth is the mean interval width in minutes.
	MeanWidth float64
}

// RouteCoverageResult is the sweep plus the fitted route-level scale.
type RouteCoverageResult struct {
	RouteScale float64
	Pairs      int
	Slots      int
	Cells      []RouteCoverageCell
}

// frozenDistField serves one estimate as a slot-frozen uncertainty field:
// trips of a few minutes stay inside the five-minute slot they depart in.
func frozenDistField(speeds, sd []float64) router.DistField {
	return func(_ tslot.Slot, road int) (router.SpeedDist, bool) {
		return router.SpeedDist{Mean: speeds[road], SD: sd[road], Provenance: "fused"}, true
	}
}

// routeSample is one planned trip on a scoring slot, held for post-fit
// scoring.
type routeSample struct {
	probes   int
	mean     float64
	sd       float64
	realized float64
}

// RouteETACoverage walks a 2·slots window on every evaluation day at each
// probe density, plans every OD pair's route on the slot's estimated field,
// and replays the plan against held-out truth. Calibration slots (even
// offsets) pool the route-level z-scores |realized − ETA|/SD into a
// conformal scale at the serving level; scoring slots (odd offsets) measure
// the coverage of the scaled interval at each nominal level. Probe schedules
// reuse the calibration ablation's deterministic per-day stream, so the
// sweep is reproducible bit for bit.
func RouteETACoverage(env *Env, nPairs int, densities []int, levels []float64, slots int) (*RouteCoverageResult, error) {
	if slots < 2 {
		return nil, fmt.Errorf("experiments: route coverage needs ≥2 scored slots, got %d", slots)
	}
	if nPairs < 1 || len(densities) == 0 || len(levels) == 0 {
		return nil, fmt.Errorf("experiments: route coverage needs ≥1 pair, density and level")
	}
	n := env.Net.N()
	for _, d := range densities {
		if d < 1 || d > n {
			return nil, fmt.Errorf("experiments: probe density %d out of range", d)
		}
	}
	for _, lv := range levels {
		if !(lv > 0 && lv < 1) {
			return nil, fmt.Errorf("experiments: credible level %v outside (0,1)", lv)
		}
	}
	pairs := RoutePairs(env, nPairs)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no routable OD pairs on this network")
	}

	oldNoise := env.Sys.ObsNoise()
	defer func() { env.Sys.SetObsNoise(oldNoise) }()

	var zs []float64
	var samples []routeSample
	for _, day := range env.EvalDays {
		sched := calibSchedule(env, day, 2*slots)
		t := env.Slot
		for i := 0; i < 2*slots; i++ {
			if i > 0 {
				t = t.Next()
			}
			if err := env.Sys.SetObsNoise(obsNoiseVec(env, t)); err != nil {
				return nil, err
			}
			truthF := func(_ tslot.Slot, road int) float64 { return env.Hist.At(day, t, road) }
			depart := float64(t.StartMinute())
			for _, d := range densities {
				obs := probeSet(env, day, t, sched[i].permA, sched[i].noiseA, d)
				res, err := env.Sys.Estimate(context.TODO(), t, obs)
				if err != nil {
					return nil, err
				}
				field := frozenDistField(res.Speeds, res.SD)
				for _, p := range pairs {
					eta, err := router.PlanETA(env.Net, field, depart, p.Src, p.Dst)
					if err != nil || eta.SD <= 0 {
						continue
					}
					realized, err := router.Evaluate(env.Net, truthF, depart, eta.Route)
					if err != nil {
						continue
					}
					if i%2 == 0 {
						zs = append(zs, math.Abs(realized-eta.Minutes)/eta.SD)
					} else {
						samples = append(samples, routeSample{
							probes: d, mean: eta.Minutes, sd: eta.SD, realized: realized,
						})
					}
				}
			}
		}
	}
	if len(zs) == 0 || len(samples) == 0 {
		return nil, fmt.Errorf("experiments: route coverage produced no trips (%d cal, %d score)", len(zs), len(samples))
	}
	scale := conformalQuantile(zs, calibServingLevel) / stattest.IntervalZ(calibServingLevel)

	out := &RouteCoverageResult{RouteScale: scale, Pairs: len(pairs), Slots: slots}
	for _, d := range densities {
		for _, lv := range levels {
			z := stattest.IntervalZ(lv) * scale
			hit, count := 0, 0
			width := 0.0
			for _, s := range samples {
				if s.probes != d {
					continue
				}
				h := z * s.sd
				if s.mean-h <= s.realized && s.realized <= s.mean+h {
					hit++
				}
				width += 2 * h
				count++
			}
			if count == 0 {
				return nil, fmt.Errorf("experiments: empty route coverage cell %d/%v", d, lv)
			}
			out.Cells = append(out.Cells, RouteCoverageCell{
				Probes: d, Level: lv, Coverage: float64(hit) / float64(count),
				N: count, MeanWidth: width / float64(count),
			})
		}
	}
	return out, nil
}

// RouteOCSRow is one budget level of the route-aware OCS ablation: the
// realized delta-method ETA variance (min², summed over evaluation days and
// OD pairs) after probing the correlation objective's selection vs the
// route-weighted variance objective's, at equal budget.
type RouteOCSRow struct {
	Budget      int
	HybridVar   float64
	RouteVarVar float64
	// WinPct is the route-aware objective's relative reduction in percent
	// (positive = RouteVar better).
	WinPct float64
}

// RouteOCSAblation plans each OD pair's route on the unprobed field, then
// lets both objectives spend the same probe budget on the same worker pool
// (query set = the planned path, RouteVar additionally weighted by the
// path's travel-time sensitivities), probes each selection against the
// day's truth, re-estimates, and totals the realized ETA variance
// Σ_path sens_r²·SD_r² over the FIXED planned path. The path is held fixed
// across objectives so the comparison isolates what the probes bought, not
// what replanning did.
func RouteOCSAblation(env *Env, nPairs int, budgets []int, theta float64) ([]RouteOCSRow, error) {
	if nPairs < 1 {
		return nil, fmt.Errorf("experiments: route OCS needs ≥1 pair")
	}
	pairs := RoutePairs(env, nPairs)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no routable OD pairs on this network")
	}
	oldNoise := env.Sys.ObsNoise()
	defer func() { env.Sys.SetObsNoise(oldNoise) }()
	if err := env.Sys.SetObsNoise(obsNoiseVec(env, env.Slot)); err != nil {
		return nil, err
	}
	pool := everywherePool(env)
	depart := float64(env.Slot.StartMinute())

	// Plan once on the unprobed posterior: the trip the dispatcher is asked
	// to firm up.
	base, err := env.Sys.Estimate(context.TODO(), env.Slot, nil)
	if err != nil {
		return nil, err
	}
	field := frozenDistField(base.Speeds, base.SD)
	type plan struct {
		query   []int // dedup'd path roads, traversal order
		weights []float64
	}
	plans := make([]plan, 0, len(pairs))
	for _, p := range pairs {
		eta, err := router.PlanETA(env.Net, field, depart, p.Src, p.Dst)
		if err != nil {
			continue
		}
		pl := plan{weights: eta.SensitivityWeights(env.Net.N())}
		seen := map[int]bool{}
		for _, seg := range eta.Segments {
			if !seen[seg.Road] {
				seen[seg.Road] = true
				pl.query = append(pl.query, seg.Road)
			}
		}
		plans = append(plans, pl)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("experiments: no plannable routes")
	}

	rows := make([]RouteOCSRow, 0, len(budgets))
	for _, budget := range budgets {
		if budget < 1 {
			return nil, fmt.Errorf("experiments: budget %d < 1", budget)
		}
		var hv, rv float64
		for _, day := range env.EvalDays {
			for _, pl := range plans {
				for _, run := range []struct {
					sel core.Selector
					sum *float64
				}{{core.Hybrid, &hv}, {core.RouteVar, &rv}} {
					req := core.SelectRequest{
						Slot: env.Slot, Roads: pl.query, WorkerRoads: pool.Roads(),
						Budget: budget, Theta: theta, Selector: run.sel,
						Seed: env.Seed + int64(day),
					}
					if run.sel == core.RouteVar {
						req.Weights = pl.weights
					}
					sol, err := env.Sys.Select(context.TODO(), req)
					if err != nil {
						return nil, err
					}
					ledger := crowd.Ledger{Budget: budget}
					probed, _, err := pool.Probe(sol.Roads, env.Net.Costs(), env.Truth(day),
						crowd.ProbeConfig{NoiseSD: 0.02, Seed: int64(day)}, &ledger)
					if err != nil {
						return nil, err
					}
					res, err := env.Sys.Estimate(context.TODO(), env.Slot, probed)
					if err != nil {
						return nil, err
					}
					for _, r := range pl.query {
						*run.sum += pl.weights[r] * res.SD[r] * res.SD[r]
					}
				}
			}
		}
		win := 0.0
		if hv > 0 {
			win = 100 * (hv - rv) / hv
		}
		rows = append(rows, RouteOCSRow{Budget: budget, HybridVar: hv, RouteVarVar: rv, WinPct: win})
	}
	return rows, nil
}

// RenderRouteCoverage writes the route-level coverage sweep as text.
func RenderRouteCoverage(w io.Writer, res *RouteCoverageResult) {
	fmt.Fprintf(w, "Route ETA coverage: %d OD pairs, route-level conformal scale %.3f\n",
		res.Pairs, res.RouteScale)
	fmt.Fprintf(w, "%8s %8s %10s %8s %12s\n", "probes", "level", "coverage", "n", "width(min)")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "%8d %8.2f %10.4f %8d %12.3f\n", c.Probes, c.Level, c.Coverage, c.N, c.MeanWidth)
	}
}

// RenderRouteOCS writes the route-aware OCS ablation as text.
func RenderRouteOCS(w io.Writer, rows []RouteOCSRow) {
	fmt.Fprintf(w, "Route-aware OCS ablation: realized Σ sens²·SD² on the planned path (min²)\n")
	fmt.Fprintf(w, "%8s %12s %12s %8s\n", "budget", "corr", "routevar", "win%")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.6f %12.6f %7.1f%%\n", r.Budget, r.HybridVar, r.RouteVarVar, r.WinPct)
	}
}
