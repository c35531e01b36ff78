// The batch suite (BENCH_PR5.json): the coalescing harness. N identical
// same-slot queries issued independently vs the same N coalesced through the
// core.Batcher — the coalesced batch must execute at least 2× fewer total
// GSP sweeps with estimates identical within the GSP epsilon — plus the
// incremental warm-start economics. Sweep counts are read from the obs
// pipeline counters, so the measurement is deterministic (no wall-clock
// dependence) and the gate needs no machine calibration: the fresh ratio
// must clear the recorded target and stay within tol of the recorded ratio.
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/experiments"
	"repro/internal/obs"
)

const (
	batchBudget = 25
	batchTheta  = 0.9
	batchSeed   = 7
)

// The size is the number of same-slot queries per coalesced batch.
var batchSuite = &suite[batchReport, int]{
	name:  "batch",
	file:  "BENCH_PR5.json",
	full:  32,
	fresh: 32,
	drive: driveBatch,
	pass:  passBatch,
}

// batchReport is the BENCH_PR5.json schema.
type batchReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Roads     int     `json:"roads"`
	Days      int     `json:"days"`
	Slot      int     `json:"slot"`
	QuerySize int     `json:"query_size"`
	Budget    int     `json:"budget"`
	Theta     float64 `json:"theta"`
	BatchSize int     `json:"batch_size"`

	// Sweep economics: total GSP sweeps for batch_size independent Query
	// calls vs the same queries coalesced through the Batcher.
	SequentialSweeps uint64  `json:"sequential_sweeps"`
	BatchedSweeps    uint64  `json:"batched_sweeps"`
	SweepRatio       float64 `json:"sweep_ratio"`
	BatchGroups      uint64  `json:"batch_groups"`
	BatchMembers     uint64  `json:"batch_members"`
	CoalescedQueries uint64  `json:"coalesced_queries"`

	// Warm-start economics: an incremental re-estimate after a one-road
	// observation change, seeded from the previous field.
	WarmStarts      uint64 `json:"warm_starts"`
	WarmSweepsSaved uint64 `json:"warm_sweeps_saved"`
	ColdIterations  int    `json:"cold_iterations"`
	WarmIterations  int    `json:"warm_iterations"`

	// Equivalence: the largest |batched − sequential| estimate delta over all
	// members and roads, which must stay within epsilon.
	MaxEstimateDelta float64 `json:"max_estimate_delta"`
	Epsilon          float64 `json:"epsilon"`

	SweepRatioTarget float64 `json:"sweep_ratio_target"`
	TargetAchieved   bool    `json:"target_achieved"`
}

// batchInstrumented builds a fresh System over the env's trained model with a
// zeroed pipeline, so each measurement starts from cold counters and caches.
func batchInstrumented(env *experiments.Env) (*core.System, *obs.Pipeline, error) {
	sys, err := core.NewFromModel(env.Net, env.Sys.Model(), core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	pipe := obs.NewPipeline(obs.NewRegistry(), obs.SystemClock())
	sys.Instrument(pipe)
	return sys, pipe, nil
}

// driveBatch runs batchSize queries sequentially, then coalesced, then the
// warm-start probe.
func driveBatch(fx *fixture, batchSize int, w io.Writer) (*batchReport, error) {
	env, err := fx.env()
	if err != nil {
		return nil, err
	}
	pool := crowd.PlaceEverywhere(env.Net)
	slot := env.Slot
	truth := env.Truth(env.EvalDays[0])
	mkReq := func() core.QueryRequest {
		return core.QueryRequest{
			Slot: slot, Roads: env.Query, Budget: batchBudget, Theta: batchTheta,
			Workers: pool, Truth: truth, Seed: batchSeed,
		}
	}

	rep := &batchReport{
		Generated:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Roads:            fx.opt.Roads,
		Days:             fx.opt.Days,
		Slot:             int(slot),
		QuerySize:        len(env.Query),
		Budget:           batchBudget,
		Theta:            batchTheta,
		BatchSize:        batchSize,
		Epsilon:          core.DefaultConfig().GSP.Epsilon,
		SweepRatioTarget: 2.0,
	}

	// Sequential: batchSize independent Query calls, each paying its own
	// OCS + probe + full GSP propagation.
	seqSys, seqPipe, err := batchInstrumented(env)
	if err != nil {
		return nil, err
	}
	seqResults := make([]*core.QueryResult, batchSize)
	for i := range seqResults {
		if seqResults[i], err = seqSys.Query(context.Background(), mkReq()); err != nil {
			return nil, fmt.Errorf("sequential query %d: %w", i, err)
		}
	}
	rep.SequentialSweeps = seqPipe.GSP.Iterations.Value()

	// Batched: the same queries arriving concurrently through the Batcher,
	// which coalesces them into shared same-slot passes.
	batSys, batPipe, err := batchInstrumented(env)
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatcher(batSys, core.BatcherOptions{
		Window: 50 * time.Millisecond, MaxBatch: batchSize,
	})
	if err != nil {
		return nil, err
	}
	batResults := make([]*core.QueryResult, batchSize)
	errs := make([]error, batchSize)
	var wg sync.WaitGroup
	for i := 0; i < batchSize; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batResults[i], errs[i] = b.Query(context.Background(), mkReq())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("batched query %d: %w", i, err)
		}
	}
	rep.BatchedSweeps = batPipe.GSP.Iterations.Value()
	rep.BatchGroups = batPipe.Batch.Groups.Value()
	rep.BatchMembers = batPipe.Batch.Members.Value()
	rep.CoalescedQueries = batPipe.Batch.Coalesced.Value()
	if rep.BatchedSweeps > 0 {
		rep.SweepRatio = float64(rep.SequentialSweeps) / float64(rep.BatchedSweeps)
	}

	// Equivalence: every batched member must agree with its sequential twin
	// within epsilon on every requested road.
	for i, br := range batResults {
		for r, want := range seqResults[i].QuerySpeeds {
			got, ok := br.QuerySpeeds[r]
			if !ok {
				return nil, fmt.Errorf("batched result %d missing road %d", i, r)
			}
			if d := math.Abs(got - want); d > rep.MaxEstimateDelta {
				rep.MaxEstimateDelta = d
			}
		}
	}

	// Warm-start: estimate cold, perturb one observed road, re-estimate. The
	// second pass seeds from the first field and resweeps only the dirty
	// frontier.
	warmSys, warmPipe, err := batchInstrumented(env)
	if err != nil {
		return nil, err
	}
	wb, err := core.NewBatcher(warmSys, core.BatcherOptions{})
	if err != nil {
		return nil, err
	}
	obsA := map[int]float64{}
	for r := 0; r < env.Net.N(); r += 6 {
		obsA[r] = truth(r)
	}
	cold, err := wb.Estimate(context.Background(), slot, obsA)
	if err != nil {
		return nil, err
	}
	obsB := make(map[int]float64, len(obsA))
	for r, v := range obsA {
		obsB[r] = v
	}
	obsB[0] += 4
	warm, err := wb.Estimate(context.Background(), slot, obsB)
	if err != nil {
		return nil, err
	}
	rep.ColdIterations = cold.Iterations
	rep.WarmIterations = warm.Iterations
	rep.WarmStarts = warmPipe.GSP.WarmStarts.Value()
	rep.WarmSweepsSaved = warmPipe.GSP.SweepsSaved.Value()
	rep.TargetAchieved = passBatch(nil, rep, io.Discard) == nil

	fmt.Fprintf(w, "batch: %d same-slot queries  sequential %d sweeps  coalesced %d sweeps  ratio %.1f× (target ≥ %.1f×)\n",
		batchSize, rep.SequentialSweeps, rep.BatchedSweeps, rep.SweepRatio, rep.SweepRatioTarget)
	fmt.Fprintf(w, "batch: groups=%d members=%d coalesced=%d  max estimate delta %.2e (ε=%.0e)\n",
		rep.BatchGroups, rep.BatchMembers, rep.CoalescedQueries, rep.MaxEstimateDelta, rep.Epsilon)
	fmt.Fprintf(w, "batch: warm-start cold=%d warm=%d sweeps (saved %d, warm starts %d)\n",
		rep.ColdIterations, rep.WarmIterations, rep.WarmSweepsSaved, rep.WarmStarts)
	return rep, nil
}

// passBatch: the sweep ratio must clear the recorded target (and, for a
// fresh run, stay within tol of the recorded ratio), and coalesced estimates
// must match independent ones within the recorded epsilon.
func passBatch(base, run *batchReport, w io.Writer) error {
	ref := base
	if ref == nil {
		ref = run
	}
	if ref.BatchSize < 2 || ref.SweepRatioTarget <= 0 || ref.Epsilon <= 0 {
		return fmt.Errorf("implausible baseline (batch_size=%d, target=%v, epsilon=%v)",
			ref.BatchSize, ref.SweepRatioTarget, ref.Epsilon)
	}
	verdict := compareSweepRatio(ref.SweepRatio, run.SweepRatio, ref.SweepRatioTarget, tol)
	if base != nil {
		fmt.Fprintf(w, "rtsebench: batch sweep ratio baseline %.1f×, fresh %.1f×, target %.1f× — %s\n",
			ref.SweepRatio, run.SweepRatio, ref.SweepRatioTarget, passFail(verdict == nil))
	}
	if verdict != nil {
		return verdict
	}
	verdict = compareEstimateDelta(run.MaxEstimateDelta, ref.Epsilon)
	if base != nil {
		fmt.Fprintf(w, "rtsebench: batch equivalence max delta %.2e, epsilon %.0e — %s\n",
			run.MaxEstimateDelta, ref.Epsilon, passFail(verdict == nil))
	}
	return verdict
}
