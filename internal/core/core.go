// Package core assembles the CrowdRTSE system (§III-B): the offline stage
// trains the RTF graphical model from historical records; the online stage
// answers a realtime speed query in three steps — select the crowdsourced
// roads (OCS), probe them through the worker pool, and propagate the probed
// speeds over the network (GSP).
//
// Typical use:
//
//	sys, err := core.Train(net, history, core.DefaultConfig())
//	res, err := sys.Query(ctx, core.QueryRequest{
//		Slot: slot, Roads: queried, Budget: 60, Theta: 0.92,
//		Workers: pool, Truth: truth,
//	})
//	speeds := res.QuerySpeeds // road → estimated realtime speed
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/corr"
	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/rtf"
	"repro/internal/tslot"
)

// Config controls the offline stage and the propagation defaults.
type Config struct {
	// Window pools ±Window neighboring slots when fitting RTF parameters.
	Window int
	// RefineSlots optionally runs CCD refinement (Alg. 1) on these slots
	// after the moment fit; empty means moment fit only (the moment
	// estimates are already maximum-likelihood for μ and near-ML for σ, ρ).
	RefineSlots []tslot.Slot
	// CCD configures the refinement when RefineSlots is non-empty.
	CCD rtf.CCDOptions
	// Transform selects the path-correlation transform (NegLog is exact).
	Transform corr.Transform
	// GSP configures the propagation engine.
	GSP gsp.Options
	// OracleCacheSlots bounds how many per-slot correlation oracles stay
	// resident (LRU, most recent first). ≤0 selects DefaultOracleCacheSlots
	// (288 — a full day of slots).
	OracleCacheSlots int
	// OracleCacheBytes optionally bounds the total resident correlation-row
	// bytes across cached oracles; 0 disables the byte budget. The budget is
	// re-enforced on every oracle access because rows accrete lazily.
	OracleCacheBytes int64
	// ParallelOCS evaluates greedy marginal gains across a goroutine pool
	// and runs Hybrid-Greedy's two passes concurrently; results are
	// bit-identical to the sequential solver (see ocs.Problem.Parallel).
	// Small instances fall back to the sequential loop automatically.
	ParallelOCS bool
	// PrewarmWorkers additionally precomputes the worker roads' correlation
	// rows before each OCS solve (query rows are always pre-warmed). Worth
	// it when many concurrent queries share a slot; wasteful for one-shot
	// queries over large worker pools.
	PrewarmWorkers bool
	// LegacyOracle selects the pre-PR-2 global-mutex correlation oracle.
	// Retained exclusively as the perf-trajectory baseline for
	// BenchmarkConcurrentQueries and `rtsebench -record qps`; leave false in
	// production paths.
	LegacyOracle bool
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Window:           1,
		CCD:              rtf.DefaultCCD(),
		Transform:        corr.NegLog,
		GSP:              gsp.DefaultOptions(),
		OracleCacheSlots: DefaultOracleCacheSlots,
		ParallelOCS:      true,
	}
}

// modelState is the immutable unit of the RCU scheme: one fitted model plus
// the per-slot oracle LRU derived from it. A query pins exactly one
// modelState for its whole lifetime; SwapModel publishes a fresh state (new
// model, empty oracle cache) with a single atomic pointer store. In-flight
// queries keep the state they pinned — and its oracles — until they finish,
// so a swap can never mix parameters from two model generations inside one
// query, and stale correlation rows can never serve a post-swap query.
type modelState struct {
	model   *rtf.Model
	oracles *oracleCache
	version uint64 // monotonically increasing swap generation, 1-based
}

// System is a trained CrowdRTSE instance, safe for concurrent queries. The
// per-slot correlation oracles live in a bounded LRU (see oracleCache); the
// hot row-lookup path inside each oracle is lock-free. The model itself is
// hot-swappable (SwapModel) with RCU semantics.
type System struct {
	net *network.Network
	cfg Config

	state atomic.Pointer[modelState]
	swaps atomic.Uint64

	// obsPipe is the attached instrument set (Instrument/Obs); nil means
	// uninstrumented, in which case Obs() hands out the shared discard set.
	obsPipe atomic.Pointer[obs.Pipeline]

	// retired accumulates the cache counters of states replaced by swaps so
	// OracleCacheReport stays monotonic across model generations.
	retired retiredCounters

	// noiseHolder carries the heteroscedastic uncertainty knobs (PR 9):
	// the per-road observation-noise vector and the SD calibration scale.
	noiseHolder
}

func (s *System) current() *modelState { return s.state.Load() }

// newState builds a modelState around model with a cold oracle cache.
func (s *System) newState(model *rtf.Model, version uint64) *modelState {
	return &modelState{
		model:   model,
		oracles: newOracleCache(s.cfg.OracleCacheSlots, s.cfg.OracleCacheBytes),
		version: version,
	}
}

// Train runs the offline stage: fit RTF on the history and prepare the
// correlation machinery.
func Train(net *network.Network, h rtf.History, cfg Config) (*System, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	model := rtf.New(net)
	if err := rtf.FitMoments(model, h, cfg.Window); err != nil {
		return nil, fmt.Errorf("core: offline fit: %w", err)
	}
	if len(cfg.RefineSlots) > 0 {
		if _, err := rtf.RefineCCD(model, net, h, cfg.RefineSlots, cfg.CCD); err != nil {
			return nil, fmt.Errorf("core: CCD refinement: %w", err)
		}
	}
	s := &System{net: net, cfg: cfg}
	s.state.Store(s.newState(model, 1))
	return s, nil
}

// NewFromModel wraps an existing fitted model (e.g. loaded from disk) into a
// queryable system.
func NewFromModel(net *network.Network, model *rtf.Model, cfg Config) (*System, error) {
	if net == nil || model == nil {
		return nil, fmt.Errorf("core: nil network or model")
	}
	if model.N() != net.N() {
		return nil, fmt.Errorf("core: model covers %d roads, network has %d", model.N(), net.N())
	}
	s := &System{net: net, cfg: cfg}
	s.state.Store(s.newState(model, 1))
	return s, nil
}

// Network returns the system's road network.
func (s *System) Network() *network.Network { return s.net }

// Model returns the currently serving RTF model.
func (s *System) Model() *rtf.Model { return s.current().model }

// ModelVersion returns the swap generation of the serving model (1 for the
// model the system was constructed with, +1 per successful SwapModel).
func (s *System) ModelVersion() uint64 { return s.current().version }

// Swaps returns how many hot-swaps the system has performed.
func (s *System) Swaps() uint64 { return s.swaps.Load() }

// SwapModel atomically replaces the serving model (RCU): the new model gets
// a fresh, empty per-slot oracle LRU — flushing every correlation row derived
// from the old parameters — and becomes visible to all subsequent queries
// with one atomic pointer store. Queries already in flight finish on the old
// model and its oracles. prewarm optionally pre-builds the oracles of the
// given slots into the new cache before publication, so the first queries
// after the swap skip the cold-start; their rows still compute lazily
// (building an oracle is cheap, rows are the expensive part and accrete
// through the usual singleflight path).
//
// It returns the old and new model versions. The old model is untouched and
// remains valid for as long as callers hold references to it.
func (s *System) SwapModel(model *rtf.Model, prewarm []tslot.Slot) (oldVersion, newVersion uint64, err error) {
	if model == nil {
		return 0, 0, fmt.Errorf("core: swap to nil model")
	}
	if model.N() != s.net.N() {
		return 0, 0, fmt.Errorf("core: swap model covers %d roads, network has %d", model.N(), s.net.N())
	}
	for {
		old := s.current()
		next := s.newState(model, old.version+1)
		for _, t := range prewarm {
			if t.Valid() {
				s.oracleAt(next, t)
			}
		}
		if s.state.CompareAndSwap(old, next) {
			s.retired.fold(old.oracles.counters())
			s.swaps.Add(1)
			return old.version, next.version, nil
		}
	}
}

// oracleAt returns st's cached correlation oracle for slot t, admitting it
// into st's LRU. The oracle is built from st's model, so two states never
// share correlation rows.
func (s *System) oracleAt(st *modelState, t tslot.Slot) corr.Source {
	return st.oracles.get(t, func() corr.Source {
		view := st.model.At(t)
		if s.cfg.LegacyOracle {
			return corr.NewMutexOracle(s.net.Graph(), view, s.cfg.Transform)
		}
		pipe := s.Obs()
		return corr.NewOracle(s.net.Graph(), view, s.cfg.Transform,
			corr.WithCSR(s.net.CSR()),
			corr.WithRowObs(pipe.CorrRowCompute, pipe.Clock))
	})
}

// Oracle returns the (cached) correlation oracle for slot t of the currently
// serving model. The engine is the sharded singleflight oracle unless the
// configuration pins the legacy baseline.
func (s *System) Oracle(t tslot.Slot) corr.Source {
	return s.oracleAt(s.current(), t)
}

// OracleCacheReport returns the aggregated correlation-cache counters:
// hit/miss/inflight totals (including retired counters of evicted oracles
// and of caches flushed by model swaps), resident rows and bytes, and
// eviction count. The server exports it through /v1/healthz.
func (s *System) OracleCacheReport() CacheReport {
	r := s.current().oracles.report()
	s.retired.addTo(&r)
	if total := r.Hits + r.Misses; total > 0 {
		r.HitRate = float64(r.Hits) / float64(total)
	}
	return r
}

// Selector chooses the crowdsourced-road selection algorithm.
type Selector int

const (
	// Hybrid is Hybrid-Greedy (Alg. 4), the paper's recommended solver.
	Hybrid Selector = iota
	// Ratio is Ratio-Greedy alone (Alg. 2).
	Ratio
	// Objective is Objective-Greedy alone (Alg. 3).
	Objective
	// RandomSel is the randomized baseline.
	RandomSel
	// VarMin is Hybrid-Greedy under the variance-minimizing objective
	// (ocs.ObjVarianceMin): spend the probe budget where it shrinks the
	// queried roads' posterior variance most, instead of where the
	// periodicity-weighted correlation is highest.
	VarMin
	// RouteVar is Hybrid-Greedy under the route-aware weighted-variance
	// objective (ocs.ObjRouteVar): each queried road carries a travel-time
	// sensitivity weight from a planned route, so the budget goes where
	// conditioning most shrinks the route's ETA variance. Requires
	// SelectRequest.Weights.
	RouteVar
)

// String returns the selector name as used in the paper's figures.
func (s Selector) String() string {
	switch s {
	case Hybrid:
		return "Hybrid"
	case Ratio:
		return "Ratio"
	case Objective:
		return "OBJ"
	case RandomSel:
		return "Rand"
	case VarMin:
		return "VarMin"
	case RouteVar:
		return "RouteVar"
	default:
		return fmt.Sprintf("Selector(%d)", int(s))
	}
}

// SelectRequest is one OCS road-selection request, mirroring QueryRequest so
// the two public entry points read the same.
type SelectRequest struct {
	Slot  tslot.Slot
	Roads []int // R^q, the queried roads
	// WorkerRoads is R^w, the roads currently covered by at least one
	// worker (Pool.Roads()).
	WorkerRoads []int
	Budget      int // K
	Theta       float64
	// Selector picks the OCS algorithm (default Hybrid).
	Selector Selector
	// Seed drives the Random selector.
	Seed int64
	// Weights is the per-road importance vector of the RouteVar selector
	// (road-id indexed, length N; see ocs.Problem.Weights). Ignored by the
	// other selectors.
	Weights []float64
}

// Select solves OCS for the request. Before the solve it pre-warms the slot
// oracle's query rows (the greedy correlation table) through the parallel
// warm pool — and the worker rows too when Config.PrewarmWorkers is set — so
// concurrent queries sharing a slot find the rows resident instead of
// recomputing them. A trace attached to ctx receives an "ocs_select" span.
func (s *System) Select(ctx context.Context, req SelectRequest) (ocs.Solution, error) {
	return s.selectState(ctx, s.current(), req)
}

// selectState is Select pinned to one model state, so a query's OCS solve
// and GSP propagation cannot straddle a hot-swap. The solve counts into the
// attached instrument set via ocs.Problem.Metrics.
func (s *System) selectState(ctx context.Context, st *modelState, req SelectRequest) (ocs.Solution, error) {
	t, query, workerRoads := req.Slot, req.Roads, req.WorkerRoads
	budget, theta, sel, seed := req.Budget, req.Theta, req.Selector, req.Seed
	tr := obs.FromContext(ctx)
	var spanStart time.Time
	if tr != nil {
		spanStart = tr.Clock().Now()
	}
	view := st.model.At(t)
	oracle := s.oracleAt(st, t)
	warm := query
	if s.cfg.PrewarmWorkers {
		warm = make([]int, 0, len(query)+len(workerRoads))
		warm = append(append(warm, query...), workerRoads...)
	}
	oracle.Warm(warm)
	p := &ocs.Problem{
		Query:    query,
		Workers:  workerRoads,
		Costs:    s.net.Costs(),
		Budget:   budget,
		Theta:    theta,
		Sigma:    view.Sigma,
		Oracle:   oracle,
		Parallel: s.cfg.ParallelOCS,
		Metrics:  &s.Obs().OCS,
		// The legacy engine reproduces the pre-PR-2 access pattern end to
		// end: per-pair mutex lookups in the θ check, no row caching.
		DirectCorr: s.cfg.LegacyOracle,
	}
	var sol ocs.Solution
	var err error
	switch sel {
	case Hybrid:
		sol, err = ocs.HybridGreedy(p)
	case VarMin:
		p.Mode = ocs.ObjVarianceMin
		sol, err = ocs.HybridGreedy(p)
	case RouteVar:
		p.Mode = ocs.ObjRouteVar
		p.Weights = req.Weights
		sol, err = ocs.HybridGreedy(p)
	case Ratio:
		sol, err = ocs.RatioGreedy(p)
	case Objective:
		sol, err = ocs.ObjectiveGreedy(p)
	case RandomSel:
		sol, err = ocs.Random(p, rand.New(rand.NewSource(seed)))
	default:
		return ocs.Solution{}, fmt.Errorf("core: unknown selector %d", sel)
	}
	if err == nil && tr != nil {
		tr.Span("ocs_select", spanStart, spanAttrsOCS(&sol)...)
	}
	return sol, err
}

// Estimate runs GSP at slot t from already-collected observations,
// returning the full-network speed field. Use Query for the complete
// select-probe-propagate pipeline. When ctx expires, GSP stops sweeping and
// returns the best-so-far field with Result.Aborted set.
func (s *System) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (gsp.Result, error) {
	return s.estimateState(ctx, s.current(), t, observed, nil)
}

// estimateState is Estimate pinned to one model state, with an optional
// warm-start seed: when initial is a previous full-network estimate, GSP runs
// the incremental dirty-frontier engine (gsp.Options.WithInitial) instead of
// a cold pass. The propagation counts into the attached instrument set and
// records a "gsp" span on any trace carried by ctx.
func (s *System) estimateState(ctx context.Context, st *modelState, t tslot.Slot, observed map[int]float64, initial *gsp.Result) (gsp.Result, error) {
	opt := s.cfg.GSP
	opt.Metrics = &s.Obs().GSP
	// Thread the heteroscedastic uncertainty knobs (PR 9) into every run:
	// per-road observation-noise variances and the empirical SD calibration.
	opt.ObsNoise = s.ObsNoise()
	opt.SDScale = s.SDScale()
	if initial != nil && len(initial.Speeds) == s.net.N() {
		opt = opt.WithInitial(*initial)
	}
	return gsp.PropagateCtx(ctx, s.net, st.model.At(t), observed, opt)
}

// QueryRequest is one online realtime-speed query.
type QueryRequest struct {
	Slot   tslot.Slot
	Roads  []int // R^q, the queried roads
	Budget int   // K
	Theta  float64
	// Workers is the current worker pool; its distinct roads form R^w.
	Workers *crowd.Pool
	// Selector picks the OCS algorithm (default Hybrid).
	Selector Selector
	// Seed drives the Random selector and the probe noise.
	Seed int64
	// Probe configures answer generation (noise, aggregation).
	Probe crowd.ProbeConfig
	// Campaign, when non-nil, replaces the direct probe with the full task
	// lifecycle (worker willingness, assignment rounds, partial tasks).
	// Only fulfilled tasks feed GSP.
	Campaign *crowd.CampaignConfig
	// Truth supplies ground-truth speeds to the simulated workers.
	Truth crowd.TruthFunc
}

// QueryResult is the answer to a query plus full diagnostics.
type QueryResult struct {
	Selected    ocs.Solution    // the crowdsourced roads R^c
	Probed      map[int]float64 // aggregated crowd answers
	Answers     []crowd.Answer  // raw per-worker answers
	Speeds      []float64       // estimated speeds for every road
	QuerySpeeds map[int]float64 // estimates restricted to R^q
	Propagation gsp.Result      // GSP diagnostics
	Ledger      crowd.Ledger    // budget accounting
	// Campaign holds the task-lifecycle report when the query ran with a
	// campaign configuration; nil for direct probes.
	Campaign *crowd.CampaignReport
}

// Validate checks the request against a network of n roads: it needs a worker
// pool and a truth source, a valid slot, and queried roads in [0, n). Every
// query entry point runs it before any OCS work, so a bad request computes no
// correlation row.
func (req QueryRequest) Validate(n int) error {
	if req.Workers == nil {
		return fmt.Errorf("core: query without a worker pool")
	}
	if req.Truth == nil {
		return fmt.Errorf("core: query without a truth source (workers need speeds to report)")
	}
	if !req.Slot.Valid() {
		return fmt.Errorf("core: invalid slot %d", req.Slot)
	}
	for _, r := range req.Roads {
		if r < 0 || r >= n {
			return fmt.Errorf("core: queried road %d out of range", r)
		}
	}
	return nil
}

// seeded returns the request's probe configuration and a copy of its
// campaign configuration (nil for a direct probe), each seeded by req.Seed
// unless it pins its own seed.
func (req QueryRequest) seeded() (crowd.ProbeConfig, *crowd.CampaignConfig) {
	probe := req.Probe
	if probe.Seed == 0 {
		probe.Seed = req.Seed
	}
	if req.Campaign == nil {
		return probe, nil
	}
	camp := *req.Campaign
	if camp.Seed == 0 {
		camp.Seed = req.Seed
	}
	return probe, &camp
}

// Crowdsource probes the selected roads through the request's worker pool,
// charging ledger: a direct probe, or the full task lifecycle when
// req.Campaign is set (only fulfilled tasks are returned as probed). The
// campaign report is nil for a direct probe.
func (req QueryRequest) Crowdsource(roads, costs []int, ledger *crowd.Ledger) (map[int]float64, []crowd.Answer, *crowd.CampaignReport, error) {
	probe, camp := req.seeded()
	if camp == nil {
		probed, answers, err := req.Workers.Probe(roads, costs, req.Truth, probe, ledger)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: probing: %w", err)
		}
		return probed, answers, nil, nil
	}
	probed, rep, err := req.Workers.RunCampaign(roads, costs, req.Truth, *camp, ledger)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: campaign: %w", err)
	}
	return probed, rep.Answers, rep, nil
}

// QuerySpeeds restricts a full-network field to the queried roads, which
// Validate has already checked against the field's length.
func QuerySpeeds(speeds []float64, roads []int) map[int]float64 {
	qs := make(map[int]float64, len(roads))
	for _, r := range roads {
		qs[r] = speeds[r]
	}
	return qs
}

// Query executes the online pipeline: OCS → crowd probing → GSP. An expired
// context aborts the GSP sweeps early (best-so-far field, Propagation.Aborted
// set) rather than failing the query. For retry rounds and degraded-mode
// fallbacks use QueryResilient.
func (s *System) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	// Pin one model generation for the whole query: selection and
	// propagation must see the same parameters even if a hot-swap lands
	// mid-query (RCU — the swap retires this state only after we drop it).
	return s.queryState(ctx, s.current(), req, nil)
}

// queryState is the instrumented online pipeline pinned to one model state,
// optionally seeding GSP with a previous full-network estimate — Query's body
// and the Batcher's shared pass.
func (s *System) queryState(ctx context.Context, st *modelState, req QueryRequest, initial *gsp.Result) (*QueryResult, error) {
	pipe := s.Obs()
	pipe.Queries.Inc()
	queryStart := pipe.Clock.Now()
	res, err := s.runQuery(ctx, pipe, st, req, initial)
	pipe.QueryLatency.Observe(pipe.Clock.Since(queryStart))
	if err != nil {
		pipe.QueryErrors.Inc()
	}
	return res, err
}

func (s *System) runQuery(ctx context.Context, pipe *obs.Pipeline, st *modelState, req QueryRequest, initial *gsp.Result) (*QueryResult, error) {
	if err := req.Validate(s.net.N()); err != nil {
		return nil, err
	}
	sol, err := s.selectState(ctx, st, SelectRequest{
		Slot: req.Slot, Roads: req.Roads, WorkerRoads: req.Workers.Roads(),
		Budget: req.Budget, Theta: req.Theta, Selector: req.Selector, Seed: req.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: OCS: %w", err)
	}
	probeStart := pipe.Clock.Now()
	ledger := crowd.Ledger{Budget: req.Budget}
	probed, answers, campaign, err := req.Crowdsource(sol.Roads, s.net.Costs(), &ledger)
	if err != nil {
		return nil, err
	}
	observeProbeRound(pipe, obs.FromContext(ctx), probeStart, len(answers), ledger.Spent)
	if len(probed) == 0 {
		pipe.QueryDegraded.Inc()
	}
	prop, err := s.estimateState(ctx, st, req.Slot, probed, initial)
	if err != nil {
		return nil, fmt.Errorf("core: GSP: %w", err)
	}
	if prop.Aborted {
		pipe.QueryDeadline.Inc()
	}
	return &QueryResult{
		Selected:    sol,
		Probed:      probed,
		Answers:     answers,
		Speeds:      prop.Speeds,
		QuerySpeeds: QuerySpeeds(prop.Speeds, req.Roads),
		Propagation: prop,
		Ledger:      ledger,
		Campaign:    campaign,
	}, nil
}

// GSPEstimator adapts the system to the baselines.Estimator interface for
// one slot, so GSP can be compared head-to-head with LASSO/GRMC/Per.
type GSPEstimator struct {
	sys  *System
	slot tslot.Slot
}

// NewGSPEstimator returns the adapter for slot t.
func (s *System) NewGSPEstimator(t tslot.Slot) *GSPEstimator {
	return &GSPEstimator{sys: s, slot: t}
}

// Name implements baselines.Estimator.
func (g *GSPEstimator) Name() string { return "GSP" }

// Estimate implements baselines.Estimator.
func (g *GSPEstimator) Estimate(observed map[int]float64) ([]float64, error) {
	res, err := g.sys.Estimate(context.TODO(), g.slot, observed)
	if err != nil {
		return nil, err
	}
	return res.Speeds, nil
}
