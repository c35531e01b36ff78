package experiments

import (
	"context"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// estimatorSet builds the four compared estimators for the environment's
// slot: GSP plus the three baselines, with the paper's tuned parameters
// (LASSO L1 = 0.1, GRMC latent dimension 10). The baselines train on the
// raw per-slot samples (window 0), as the paper's methods do; the ±1-slot
// pooling is an RTF fitting device, not part of LASSO/GRMC.
func estimatorSet(env *Env) []baselines.Estimator {
	view := env.Sys.Model().At(env.Slot)
	return []baselines.Estimator{
		env.Sys.NewGSPEstimator(env.Slot),
		baselines.NewLasso(env.TrainHist, env.Net.N(), env.Slot, 0, 0.1),
		baselines.NewGRMC(env.Net.Graph(), env.TrainHist, env.Slot, 0),
		baselines.NewPer(view.Mu),
	}
}

// everywherePool is the semi-synthesized dataset's worker placement:
// R^w = R.
func everywherePool(env *Env) *crowd.Pool { return crowd.PlaceEverywhere(env.Net) }

// selectAndProbe runs OCS with the given selector and probes the selection
// against day's ground truth, returning the aggregated observations.
func selectAndProbe(env *Env, pool *crowd.Pool, sel core.Selector, budget int, theta float64, day int) (map[int]float64, error) {
	sol, err := env.Sys.Select(context.TODO(), core.SelectRequest{
		Slot: env.Slot, Roads: env.Query, WorkerRoads: pool.Roads(),
		Budget: budget, Theta: theta, Selector: sel, Seed: env.Seed + int64(day),
	})
	if err != nil {
		return nil, err
	}
	ledger := crowd.Ledger{Budget: budget}
	probed, _, err := pool.Probe(sol.Roads, env.Net.Costs(), env.Truth(day),
		crowd.ProbeConfig{NoiseSD: 0.02, Seed: int64(day)}, &ledger)
	if err != nil {
		return nil, err
	}
	return probed, nil
}

// fig5One trains a fresh RTF on a connected subnetwork of the given size
// using the paper's Fig. 5 protocol: vanilla gradient descent on μ with
// λ = 0.1, convergence measured by the max μ-gradient.
func fig5One(env *Env, size int, tol float64) (Fig5Row, error) {
	sub, orig, err := env.Net.ConnectedSubnetwork(0, size)
	if err != nil {
		return Fig5Row{}, err
	}
	subHist := &subHistory{h: env.TrainHist, roads: orig}
	m := rtf.New(sub)
	// Alg. 1 initialization: "small random values" for every parameter
	// family (σ and ρ start at their clamped minima from rtf.New; μ gets
	// small deterministic pseudo-random values). The paper's Fig. 5
	// measures convergence of the full vanilla-gradient training by the
	// max μ-gradient, with λ fixed to 0.1.
	for r := 0; r < sub.N(); r++ {
		m.SetMu(env.Slot, r, 1+float64((r*37)%11))
		m.SetSigma(env.Slot, r, 1+float64((r*13)%5))
	}
	opt := rtf.CCDOptions{
		Lambda: 0.1, MaxIters: 4000, Tol: tol, Window: 1,
		UpdateMu: true, UpdateSigma: true, UpdateRho: true, GradientMu: true,
	}
	stats, err := rtf.RefineCCD(m, sub, subHist, []tslot.Slot{env.Slot}, opt)
	if err != nil {
		return Fig5Row{}, err
	}
	return Fig5Row{Roads: size, Iterations: stats[0].Iterations, Converged: stats[0].Converged}, nil
}

// subHistory restricts a history to a road subset with renumbered ids, so a
// subnetwork can be trained against the full network's records.
type subHistory struct {
	h     rtf.History
	roads []int
}

func (s *subHistory) NumDays() int { return s.h.NumDays() }

func (s *subHistory) Speed(day int, t tslot.Slot, r int) float64 {
	return s.h.Speed(day, t, s.roads[r])
}
