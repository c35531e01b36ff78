package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/obs"
	"repro/internal/tslot"
)

// ResilientOptions tunes the fault-tolerant pipeline.
type ResilientOptions struct {
	// MaxRounds bounds the OCS re-selection rounds (default 3). Round 1 is
	// the ordinary pipeline; each further round recycles the budget left
	// unspent by failed/partial tasks into a fresh OCS pass over the
	// remaining worker roads.
	MaxRounds int
	// RetryPartial re-includes partial roads in later rounds instead of
	// abandoning them. Default false: a road that failed to meet its quota
	// once has demonstrated unreliable coverage, and the paper defines the
	// cost as the *minimum* answers for a reliable probe — retrying the same
	// road usually strands more budget than picking a correlated substitute.
	RetryPartial bool
}

// ResilientResult extends QueryResult with degradation diagnostics.
type ResilientResult struct {
	QueryResult

	// Rounds is how many OCS→campaign rounds actually ran.
	Rounds int
	// SpentPerRound is the ledger spend of each round.
	SpentPerRound []int
	// BudgetRecycled is the total budget spent in rounds after the first —
	// money that the plain pipeline would have stranded on failed tasks.
	BudgetRecycled int
	// AbandonedRoads lists roads excluded after their tasks failed (or ended
	// partial, unless RetryPartial), sorted ascending.
	AbandonedRoads []int
	// Reports holds each round's campaign report; QueryResult.Campaign is
	// their merge.
	Reports []*crowd.CampaignReport
	// Degraded is set when zero probes succeeded: the returned speeds are
	// the periodicity prior μ with no realtime signal behind them.
	Degraded bool
	// FallbackPrior mirrors Degraded for API clarity: the estimate is the
	// RTF prior mean, not a propagated crowd observation.
	FallbackPrior bool
	// DeadlineHit is set when the context expired before the pipeline
	// finished (rounds were cut short and/or GSP aborted early).
	DeadlineHit bool
	// QueryProvenance labels each queried road's answer — observed (a probe
	// landed on the road itself), fused (propagated from correlated probes),
	// or prior (no realtime signal reached it). Degraded answers are partial
	// by nature; this says *per road* which part of the answer is live.
	QueryProvenance map[int]gsp.Provenance
}

// QueryResilient is the fault-tolerant online pipeline: OCS → campaign →
// re-selection rounds → GSP, degrading gracefully instead of failing.
//
// Each round selects roads among the not-yet-probed, not-abandoned worker
// roads with the budget still unspent, runs the task campaign against one
// shared ledger (so the query can never overspend req.Budget), folds
// fulfilled tasks into the observation set, and abandons the roads whose
// tasks failed. Rounds stop when everything fulfilled, when nothing
// affordable remains, when MaxRounds is reached, or when ctx expires.
//
// If the context deadline passes, GSP returns its best-so-far field
// (Propagation.Aborted) rather than erroring. If zero probes ever succeed,
// the result falls back to the periodicity prior μ with Degraded and
// FallbackPrior set — the caller always gets an estimate, plus an explicit
// signal of how much to trust it.
//
// The whole pipeline is deterministic for a fixed req.Seed: round r uses
// OCS seed req.Seed+r−1 and campaign seed base+1009·(r−1).
func (s *System) QueryResilient(ctx context.Context, req QueryRequest, opt ResilientOptions) (*ResilientResult, error) {
	pipe := s.Obs()
	pipe.QueriesResilient.Inc()
	queryStart := pipe.Clock.Now()
	res, err := s.queryResilient(ctx, pipe, req, opt)
	pipe.QueryLatency.Observe(pipe.Clock.Since(queryStart))
	if err != nil {
		pipe.QueryErrors.Inc()
		return res, err
	}
	if res.Degraded {
		pipe.QueryDegraded.Inc()
	}
	if res.FallbackPrior {
		pipe.QueryFallback.Inc()
	}
	if res.DeadlineHit {
		pipe.QueryDeadline.Inc()
	}
	pipe.BudgetRecycled.Add(res.BudgetRecycled)
	return res, nil
}

func (s *System) queryResilient(ctx context.Context, pipe *obs.Pipeline, req QueryRequest, opt ResilientOptions) (*ResilientResult, error) {
	if err := req.Validate(s.net.N()); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 3
	}
	campBase := crowd.DefaultCampaign(req.Seed)
	if _, camp := req.seeded(); camp != nil {
		campBase = *camp
	}

	costs := s.net.Costs()
	ledger := crowd.Ledger{Budget: req.Budget}
	observed := make(map[int]float64)
	abandoned := make(map[int]bool)
	workerRoads := req.Workers.Roads()

	// Pin one model generation for every round and the final propagation:
	// a hot-swap mid-query must not mix parameters across rounds (RCU).
	st := s.current()

	out := &ResilientResult{}
	merged := &crowd.CampaignReport{}

	for round := 1; round <= maxRounds; round++ {
		if ctx.Err() != nil {
			out.DeadlineHit = true
			break
		}
		// Remaining candidates: worker roads not yet probed and not
		// abandoned, with at least one affordable.
		cands := make([]int, 0, len(workerRoads))
		minCost := -1
		for _, r := range workerRoads {
			if abandoned[r] {
				continue
			}
			if _, done := observed[r]; done {
				continue
			}
			cands = append(cands, r)
			if minCost < 0 || costs[r] < minCost {
				minCost = costs[r]
			}
		}
		if len(cands) == 0 || ledger.Remaining() <= 0 || minCost > ledger.Remaining() {
			break
		}
		sol, err := s.selectState(ctx, st, SelectRequest{
			Slot: req.Slot, Roads: req.Roads, WorkerRoads: cands,
			Budget: ledger.Remaining(), Theta: req.Theta,
			Selector: req.Selector, Seed: req.Seed + int64(round-1),
		})
		if err != nil {
			if round == 1 {
				return nil, fmt.Errorf("core: OCS: %w", err)
			}
			// A re-selection failure degrades the answer, it must not lose
			// the observations already paid for.
			break
		}
		if len(sol.Roads) == 0 {
			break
		}
		out.Selected = sol // the most recent OCS pass
		campCfg := campBase
		campCfg.Seed = campBase.Seed + 1009*int64(round-1)
		spentBefore := ledger.Spent
		probeStart := pipe.Clock.Now()
		probed, rep, err := req.Workers.RunCampaign(sol.Roads, costs, req.Truth, campCfg, &ledger)
		if err != nil {
			return nil, fmt.Errorf("core: campaign round %d: %w", round, err)
		}
		observeProbeRound(pipe, obs.FromContext(ctx), probeStart, len(rep.Answers), ledger.Spent-spentBefore)
		out.Rounds = round
		out.Reports = append(out.Reports, rep)
		merged.Merge(rep)
		spent := ledger.Spent - spentBefore
		out.SpentPerRound = append(out.SpentPerRound, spent)
		if round > 1 {
			out.BudgetRecycled += spent
		}
		for r, v := range probed {
			observed[r] = v
		}
		retry := false
		for _, task := range rep.Tasks {
			switch task.Status {
			case crowd.TaskFulfilled:
				// done
			case crowd.TaskPartial:
				retry = true
				if !opt.RetryPartial {
					abandoned[task.Road] = true
				}
			default: // TaskFailed
				retry = true
				abandoned[task.Road] = true
			}
		}
		if !retry {
			break // every task fulfilled — nothing to recycle
		}
	}

	for r := range abandoned {
		out.AbandonedRoads = append(out.AbandonedRoads, r)
	}
	sort.Ints(out.AbandonedRoads)

	// Propagate whatever we got. With zero observations GSP has no sources
	// and the field rests at the periodicity prior μ — the explicit
	// graceful-degradation fallback.
	prop, err := s.estimateState(ctx, st, req.Slot, observed, nil)
	if err != nil {
		return nil, fmt.Errorf("core: GSP: %w", err)
	}
	if prop.Aborted {
		out.DeadlineHit = true
	}
	if len(observed) == 0 {
		out.Degraded = true
		out.FallbackPrior = true
	}
	qp := make(map[int]gsp.Provenance, len(req.Roads))
	for _, r := range req.Roads {
		if r < len(prop.Provenance) {
			qp[r] = prop.Provenance[r]
		}
	}
	out.QueryProvenance = qp
	out.Probed = observed
	out.Answers = merged.Answers
	out.Speeds = prop.Speeds
	out.QuerySpeeds = QuerySpeeds(prop.Speeds, req.Roads)
	out.Propagation = prop
	out.Ledger = ledger
	out.Campaign = merged
	return out, nil
}

// PriorSpeeds returns the periodicity prior μ for slot t — the field a
// fully degraded query falls back to. The slice is a copy.
func (s *System) PriorSpeeds(t tslot.Slot) []float64 {
	mu := s.current().model.At(t).Mu
	out := make([]float64, len(mu))
	copy(out, mu)
	return out
}
