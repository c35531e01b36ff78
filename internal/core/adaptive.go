package core

import (
	"context"
	"fmt"

	"repro/internal/crowd"
	"repro/internal/obs"
)

// AdaptiveResult is QueryResult plus the adaptive-spending diagnostics.
type AdaptiveResult struct {
	QueryResult
	// StagesUsed is how many budget increments were actually spent.
	StagesUsed int
	// MaxQuerySD is the final largest posterior SD over the queried roads.
	MaxQuerySD float64
}

// QueryAdaptive answers a query while spending the budget incrementally:
// the budget is split into `stages` increments, and after each
// select-probe-propagate round the posterior uncertainty (gsp.Result.SD) of
// the queried roads is checked — once every queried road's SD is at or
// below targetSD, no further budget is spent. Crowdsourcing money goes only
// where the model is still unsure, an economics refinement in the spirit of
// the paper's "modest budget" goal.
//
// Observations accumulate across stages; each stage re-runs OCS with the
// enlarged budget and probes only roads not yet probed, paying from one
// shared ledger so the total spend never exceeds req.Budget.
//
// When req.Campaign is set, each stage runs the full task lifecycle
// (worker willingness, rounds, partial tasks) instead of direct probes;
// only fulfilled tasks join the observation set, and stage k derives its
// campaign seed from the base seed so the stages draw independent but
// reproducible willingness sequences.
//
// An expired context stops opening new stages and lets GSP return its
// best-so-far field.
func (s *System) QueryAdaptive(ctx context.Context, req QueryRequest, targetSD float64, stages int) (*AdaptiveResult, error) {
	pipe := s.Obs()
	pipe.QueriesAdaptive.Inc()
	queryStart := pipe.Clock.Now()
	res, err := s.queryAdaptive(ctx, pipe, req, targetSD, stages)
	pipe.QueryLatency.Observe(pipe.Clock.Since(queryStart))
	if err != nil {
		pipe.QueryErrors.Inc()
	} else if len(res.Probed) == 0 {
		pipe.QueryDegraded.Inc()
	}
	return res, err
}

func (s *System) queryAdaptive(ctx context.Context, pipe *obs.Pipeline, req QueryRequest, targetSD float64, stages int) (*AdaptiveResult, error) {
	if err := req.Validate(s.net.N()); err != nil {
		return nil, err
	}
	if stages <= 0 {
		return nil, fmt.Errorf("core: stages must be positive, got %d", stages)
	}
	if targetSD < 0 {
		return nil, fmt.Errorf("core: negative target SD %v", targetSD)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	probeCfg, campBase := req.seeded()
	ledger := crowd.Ledger{Budget: req.Budget}
	observed := make(map[int]float64)
	var answers []crowd.Answer
	var campaign *crowd.CampaignReport
	if campBase != nil {
		campaign = &crowd.CampaignReport{}
	}
	out := &AdaptiveResult{}

	costs := s.net.Costs()
	workerRoads := req.Workers.Roads()
	// Pin one model generation across all stages (RCU hot-swap safety).
	st := s.current()
	ranStage := false
	for stage := 1; stage <= stages; stage++ {
		if ranStage && ctx.Err() != nil {
			break // deadline: keep what earlier stages bought
		}
		stageBudget := req.Budget * stage / stages
		if stageBudget <= 0 {
			continue
		}
		sol, err := s.selectState(ctx, st, SelectRequest{
			Slot: req.Slot, Roads: req.Roads, WorkerRoads: workerRoads,
			Budget: stageBudget, Theta: req.Theta, Selector: req.Selector, Seed: req.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: OCS stage %d: %w", stage, err)
		}
		out.Selected = sol
		spentBefore := ledger.Spent
		answersBefore := len(answers)
		probeStart := pipe.Clock.Now()
		if campBase != nil {
			// Campaign path: run the task lifecycle over this stage's new,
			// still-affordable roads against the shared ledger (RunCampaign
			// itself never overspends it).
			var toProbe []int
			for _, r := range sol.Roads {
				if _, done := observed[r]; done {
					continue
				}
				if costs[r] > ledger.Remaining() {
					continue
				}
				toProbe = append(toProbe, r)
			}
			if len(toProbe) > 0 {
				cfg := *campBase
				cfg.Seed = campBase.Seed + 1009*int64(stage-1)
				probed, rep, err := req.Workers.RunCampaign(toProbe, costs, req.Truth, cfg, &ledger)
				if err != nil {
					return nil, fmt.Errorf("core: campaign stage %d: %w", stage, err)
				}
				campaign.Merge(rep)
				answers = append(answers, rep.Answers...)
				for r, v := range probed {
					observed[r] = v
				}
			}
		} else {
			for _, r := range sol.Roads {
				if _, done := observed[r]; done {
					continue
				}
				if costs[r] > ledger.Remaining() {
					continue // cannot afford this road anymore
				}
				probed, ans, err := req.Workers.Probe([]int{r}, costs, req.Truth, probeCfg, &ledger)
				if err != nil {
					return nil, fmt.Errorf("core: probing stage %d: %w", stage, err)
				}
				observed[r] = probed[r]
				answers = append(answers, ans...)
			}
		}
		if ledger.Spent != spentBefore || len(answers) != answersBefore {
			observeProbeRound(pipe, obs.FromContext(ctx), probeStart,
				len(answers)-answersBefore, ledger.Spent-spentBefore)
		}
		prop, err := s.estimateState(ctx, st, req.Slot, observed, nil)
		if err != nil {
			return nil, fmt.Errorf("core: GSP stage %d: %w", stage, err)
		}
		ranStage = true
		out.Propagation = prop
		out.Speeds = prop.Speeds
		out.StagesUsed = stage

		out.MaxQuerySD = 0
		for _, r := range req.Roads {
			if prop.SD[r] > out.MaxQuerySD {
				out.MaxQuerySD = prop.SD[r]
			}
		}
		if out.MaxQuerySD <= targetSD {
			break
		}
	}
	if !ranStage {
		// Degenerate inputs (e.g. every stage budget rounded to zero):
		// return the prior field rather than a nil-speeds result.
		prop, err := s.estimateState(ctx, st, req.Slot, observed, nil)
		if err != nil {
			return nil, fmt.Errorf("core: GSP: %w", err)
		}
		out.Propagation = prop
		out.Speeds = prop.Speeds
	}
	out.Probed = observed
	out.Answers = answers
	out.Ledger = ledger
	out.Campaign = campaign
	out.QuerySpeeds = QuerySpeeds(out.Speeds, req.Roads)
	return out, nil
}
