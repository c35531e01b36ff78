// Package server exposes a trained CrowdRTSE system over HTTP — the service
// surface a deployment would run: workers push their positions and speed
// reports; clients ask for crowdsourced-road selections, realtime estimates
// and incident alerts.
//
//	GET  /v1/                        machine-readable route inventory (names, methods, deprecation)
//	GET  /v1/network                 network statistics
//	POST /v1/workers                 replace the worker pool            {"workers":[{"road":3}, ...]}
//	POST /v1/report                  submit a speed answer              {"road":3,"slot":102,"speed":47.5}
//	POST /v1/select                  run OCS                            {"slot":102,"roads":[1,2],"budget":30,"theta":0.92,"selector":"Hybrid"}
//	POST /v1/estimate                run GSP over current reports       {"slot":102,"roads":[1,2],"observed":{"3":47.5}}
//	POST /v1/query                   batch estimate: coalesces entries  {"queries":[{"slot":102,"roads":[1,2]}, ...]}
//	POST /v1/route                   origin→destination ETA distribution {"slot":102,"src":3,"dst":41,"horizon":3}
//	POST /v1/forecast                k-slot-ahead forecast fan          {"slot":102,"roads":[1,2],"horizon":3}
//	GET  /v1/subscribe?slot=102&roads=1,2    standing query: long-poll (digest=...) or SSE (stream=sse)
//	GET  /v1/alerts?slot=102         scan the slot's estimates for incidents
//	GET  /v1/healthz                 liveness + degraded-state report
//	GET  /v1/model                   model lifecycle: version, history, counters
//	POST /v1/model                   admin actions                      {"action":"rollback"|"reload"|"refit"}
//	GET  /v1/metrics                 Prometheus text exposition of every pipeline instrument
//	GET  /debug/pprof/...            standard pprof surface (EnablePprof, on by default)
//
// Reports are kept per slot; an estimate uses the aggregated reports of its
// slot as the GSP observations. All handlers are safe for concurrent use.
//
// Estimation runs through a core.Batcher: identical concurrent estimates
// singleflight into one propagation, batch entries sharing a slot coalesce
// into one pass, and every pass warm-starts from the slot's previous field
// (incremental GSP). The amortization counters appear on /v1/metrics
// (crowdrtse_batch_*, crowdrtse_gsp_warm_starts_total,
// crowdrtse_warmstart_sweeps_saved_total).
//
// Errors: every /v1 handler answers failures with one JSON envelope,
// {"error":{"code","message","request_id"}} — code derives from the HTTP
// status, request_id echoes the X-Request-ID header (minted when absent).
//
// Hardening: every request runs under panic recovery (a malformed campaign
// or model edge case returns 500 JSON instead of killing the process), a
// per-request timeout (GSP aborts early and the response is flagged
// degraded), and a bounded request body. Estimates computed from zero
// observations carry "degraded": true — they are the periodicity prior, not
// realtime signal.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/detect"
	"repro/internal/gsp"
	"repro/internal/modelstore"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/shard"
	"repro/internal/stattest"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// Server is the HTTP facade over a trained system. Speed reports flow
// through a stream.Collector, which rejects implausible values and
// MAD-filters outliers before aggregation.
type Server struct {
	sys       *core.System
	collector *stream.Collector
	// batcher is the coalescing layer in front of select/estimate/query:
	// identical concurrent requests singleflight, same-slot batch entries
	// share one pass, and every propagation warm-starts from the slot's
	// previous field.
	batcher *core.Batcher

	// Timeout bounds each request; the estimate/alerts handlers plumb it
	// through context so GSP early-aborts with a best-so-far field.
	// Zero disables the per-request deadline.
	Timeout time.Duration
	// MaxBodyBytes bounds POST bodies (default 1 MiB).
	MaxBodyBytes int64
	// StaleAfter is how old the newest report may be before /v1/healthz
	// declares the collector stale (default 10 min).
	StaleAfter time.Duration
	// EnablePprof mounts the net/http/pprof surface under /debug/pprof/
	// (default true).
	EnablePprof bool
	// TraceLog, when set, turns on per-request stage tracing: each request
	// gets an X-Request-ID correlated obs.Trace and its OCS/probe/GSP spans
	// are emitted as structured log lines after the response. This is the
	// `crowdrtse serve -trace` sink.
	TraceLog *slog.Logger
	// ServiceFloor, when positive, holds every admitted work-route request in
	// the handler for at least this long (load-testing aid). The synthetic
	// benchmark network turns an estimate around in microseconds — far faster
	// than a production-scale deployment, and too fast for closed-loop load to
	// accumulate observable concurrency — so the load harness sets a floor
	// emulating realistic propagation/collection latency; the admission
	// controller then reads the in-flight pressure a real deployment would.
	// The floor sits inside the in-flight gauge and after admission: shed
	// requests return immediately. Zero (the default) disables it.
	ServiceFloor time.Duration

	// Observability wiring: one registry, one pipeline instrument set,
	// shared with core/stream at construction (New) or re-clocked by
	// SetClock.
	reg    *obs.Registry
	pipe   *obs.Pipeline
	httpm  *httpMetrics
	clock  obs.Clock
	reqSeq atomic.Uint64

	started time.Time

	mu   sync.RWMutex
	pool *crowd.Pool

	// lifecycle/refitter are set by AttachLifecycle; without them /v1/model
	// serves the System's swap generation read-only and admin actions return
	// 409.
	lifecycle *modelstore.Manager
	refitter  *modelstore.Refitter

	// qosCtl is the admission controller (EnableQoS); nil serves every
	// request at full fidelity with no tenancy.
	qosCtl *qos.Controller

	// shards is the optional graph-partitioned engine (AttachShards); it only
	// feeds the observability surfaces — request routing through the engine
	// stays with the embedder that built it.
	shards *shard.Engine
}

// New wraps a trained system. The worker pool starts empty. Construction
// wires the full observability chain: one obs.Registry, one pipeline
// instrument set attached to the system (every query stage counts), the
// collector's accepted/rejected counters, and the system's oracle-cache and
// model-generation exports — all served by /v1/metrics and rolled up in
// /v1/healthz.
func New(sys *core.System) *Server {
	reg := obs.NewRegistry()
	clock := obs.SystemClock()
	pipe := obs.NewPipeline(reg, clock)
	s := &Server{
		sys:          sys,
		collector:    stream.NewCollector(sys.Network().N()),
		pool:         crowd.NewPool(nil),
		Timeout:      5 * time.Second,
		MaxBodyBytes: 1 << 20,
		StaleAfter:   10 * time.Minute,
		EnablePprof:  true,
		reg:          reg,
		pipe:         pipe,
		httpm:        newHTTPMetrics(reg),
		clock:        clock,
		started:      clock.Now(),
	}
	sys.Instrument(pipe)
	sys.RegisterMetrics(reg)
	s.collector.SetMetrics(pipe.Stream)
	// The batcher reads the pipeline through sys.Obs(), so SetClock's pipeline
	// rebuild is picked up automatically.
	s.batcher, _ = core.NewBatcher(sys, core.BatcherOptions{})
	// The cross-slot filter (PR 8): estimates feed it, probe-less warm starts
	// seed from it, and /v1/forecast iterates its predict step. Default AR(1)
	// parameters; embedders with history can refit via temporal.FitAR1 and
	// re-attach.
	net := sys.Network()
	classes := make([]network.Class, net.N())
	for i := range classes {
		classes[i] = net.Road(i).Class
	}
	if filt, err := temporal.New(sys.Model(), 0, temporal.DefaultParams(), classes,
		temporal.Options{Metrics: pipe.Temporal}); err == nil {
		s.batcher.AttachTemporal(filt)
	}
	return s
}

// Batcher exposes the server's coalescing layer (tests and embedders).
func (s *Server) Batcher() *core.Batcher { return s.batcher }

// Handler returns the HTTP routing table wrapped in the hardening
// middleware (panic recovery → body limit → request timeout).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", s.handleIndex)
	mux.HandleFunc("/v1/network", s.handleNetwork)
	mux.HandleFunc("/v1/workers", s.handleWorkers)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/select", s.handleSelect)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/route", s.handleRoute)
	mux.HandleFunc("/v1/forecast", s.handleForecast)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/alerts", s.handleAlerts)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/model", s.handleModel)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	if s.EnablePprof {
		mountPprof(mux)
	}
	return s.withObs(s.withRecovery(s.withBodyLimit(s.withAdmission(s.withTimeout(s.withServiceFloor(mux))))))
}

// AttachLifecycle enables the model-lifecycle admin surface: /v1/model gains
// history and the rollback/reload/refit actions, and /v1/healthz reports the
// lifecycle counters. refitter may be nil (the "refit" action then returns
// 409).
func (s *Server) AttachLifecycle(mgr *modelstore.Manager, refitter *modelstore.Refitter) {
	s.mu.Lock()
	s.lifecycle = mgr
	s.refitter = refitter
	s.mu.Unlock()
	if mgr != nil {
		mgr.RegisterMetrics(s.reg)
	}
	if refitter != nil {
		refitter.RegisterMetrics(s.reg)
	}
}

// Collector exposes the server's report collector so the serve command can
// wire it into a background refitter and configure the eviction horizon.
func (s *Server) Collector() *stream.Collector { return s.collector }

// AttachShards wires a graph-partitioned engine into the observability
// surfaces: /v1/metrics gains the shard-labeled oracle-cache series and
// /v1/healthz reports per-shard ownership/halo sizes and cache counters.
func (s *Server) AttachShards(eng *shard.Engine) {
	s.mu.Lock()
	s.shards = eng
	s.mu.Unlock()
	if eng != nil {
		eng.Instrument(s.pipe)
		eng.RegisterMetrics(s.reg)
	}
}

// withRecovery converts a handler panic into a 500 JSON error. A degraded
// crowd (or a bug) must never take the estimation service down with it.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				debug.PrintStack()
				writeErr(w, r, http.StatusInternalServerError, "internal panic: %v", rec)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withBodyLimit bounds request bodies so a misbehaving client cannot make
// the decoder buffer arbitrary amounts of memory.
func (s *Server) withBodyLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil && s.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// withTimeout attaches a deadline to the request context. Handlers that do
// real work (estimate, alerts) pass it down to GSP, which returns its
// best-so-far field when the deadline passes.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.Timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

type networkInfo struct {
	Roads int `json:"roads"`
	Edges int `json:"edges"`
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	net := s.sys.Network()
	writeJSON(w, http.StatusOK, networkInfo{Roads: net.N(), Edges: net.M()})
}

type workersRequest struct {
	Workers []struct {
		Road int `json:"road"`
	} `json:"workers"`
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req workersRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	n := s.sys.Network().N()
	ws := make([]crowd.Worker, len(req.Workers))
	for i, rw := range req.Workers {
		if rw.Road < 0 || rw.Road >= n {
			writeErr(w, r, http.StatusBadRequest, "worker %d on road %d: out of range", i, rw.Road)
			return
		}
		ws[i] = crowd.Worker{Road: rw.Road}
	}
	s.mu.Lock()
	s.pool = crowd.NewPool(ws)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{"workers": len(ws)})
}

type reportRequest struct {
	Road  int     `json:"road"`
	Slot  int     `json:"slot"`
	Speed float64 `json:"speed"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req reportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	slot := tslot.Slot(req.Slot)
	if err := s.collector.Add(stream.Report{Road: req.Road, Slot: slot, Speed: req.Speed}); err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"answers": s.collector.Count(slot, req.Road)})
}

type selectRequest struct {
	Slot     int     `json:"slot"`
	Roads    []int   `json:"roads"`
	Budget   int     `json:"budget"`
	Theta    float64 `json:"theta"`
	Selector string  `json:"selector"` // "Hybrid" (default), "Ratio", "OBJ", "Rand"
	Seed     int64   `json:"seed"`
}

type selectResponse struct {
	Roads []int   `json:"roads"`
	Value float64 `json:"value"`
	Cost  int     `json:"cost"`
}

func parseSelector(name string) (core.Selector, error) {
	switch name {
	case "", "Hybrid":
		return core.Hybrid, nil
	case "Ratio":
		return core.Ratio, nil
	case "OBJ", "Objective":
		return core.Objective, nil
	case "Rand", "Random":
		return core.RandomSel, nil
	case "VarMin", "VarianceMin":
		return core.VarMin, nil
	case "RouteVar":
		return core.RouteVar, nil
	default:
		return 0, fmt.Errorf("unknown selector %q", name)
	}
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req selectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	sel, err := parseSelector(req.Selector)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	slot := tslot.Slot(req.Slot)
	if !slot.Valid() {
		writeErr(w, r, http.StatusBadRequest, "slot %d out of range", req.Slot)
		return
	}
	s.mu.RLock()
	workerRoads := s.pool.Roads()
	s.mu.RUnlock()
	if len(workerRoads) == 0 {
		writeErr(w, r, http.StatusConflict, "no workers registered")
		return
	}
	// Probes cost real crowdsourcing money: charge the requested budget
	// against the tenant's quota before the oracle does any work.
	if ai := admissionFrom(r.Context()); ai != nil && s.qosCtl != nil {
		if ok, retry := s.qosCtl.ConsumeProbeBudget(ai.Tenant, req.Budget); !ok {
			writeQuotaExhausted(w, r, ai.Tenant, req.Budget, retry.Seconds())
			return
		}
	}
	sol, err := s.batcher.Select(r.Context(), core.SelectRequest{
		Slot: slot, Roads: req.Roads, WorkerRoads: workerRoads,
		Budget: req.Budget, Theta: req.Theta, Selector: sel, Seed: req.Seed,
	})
	if err != nil {
		// No probes were bought — refund the quota charge so a failing
		// request (bad θ, empty query) can't drain a tenant's budget.
		if ai := admissionFrom(r.Context()); ai != nil && s.qosCtl != nil {
			s.qosCtl.RefundProbeBudget(ai.Tenant, req.Budget)
		}
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, selectResponse{Roads: sol.Roads, Value: sol.Value, Cost: sol.Cost})
}

// healthResponse is the /v1/healthz body. Status is "ok" or "degraded";
// degraded means estimates are currently running on prior-only or stale
// signal (no workers registered, or the collector has gone stale).
type healthResponse struct {
	Status           string  `json:"status"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Roads            int     `json:"roads"`
	Workers          int     `json:"workers"`
	ReportSlots      int     `json:"report_slots"`
	TotalReports     int     `json:"total_reports"`
	LastReportAgeSec float64 `json:"last_report_age_seconds"` // -1 if none
	CollectorStale   bool    `json:"collector_stale"`
	// OracleCache is the correlation-cache perf signal: hit rate, resident
	// bytes and LRU evictions of the per-slot oracle cache. A collapsing hit
	// rate or runaway evictions flag an undersized cache long before
	// latency degrades.
	OracleCache core.CacheReport `json:"oracle_cache"`
	// ModelGeneration / ModelSwaps expose the hot-swap state of the serving
	// system even without a lifecycle manager attached.
	ModelGeneration uint64 `json:"model_generation"`
	ModelSwaps      uint64 `json:"model_swaps"`
	// EvictedReportSlots counts collector slot-buckets dropped by the memory
	// horizon (0 when the horizon is disabled).
	EvictedReportSlots int `json:"evicted_report_slots"`
	// Lifecycle is the model-lifecycle counter block (nil when no manager is
	// attached).
	Lifecycle *modelstore.Status `json:"lifecycle,omitempty"`
	// Observability rolls up the pipeline instrument set. It reads the very
	// counters /v1/metrics exports, so the two surfaces agree by
	// construction.
	Observability *obsRollup `json:"observability,omitempty"`
	// QoS is the admission-control rollup (nil when EnableQoS was not
	// called): current pressure plus per-tenant admit/shed/tier counters,
	// read from the same atomics the /v1/metrics bridges export.
	QoS *qos.Report `json:"qos,omitempty"`
	// Shards is the per-shard layout and oracle-cache block (empty when no
	// shard engine is attached via AttachShards).
	Shards []shard.ShardReport `json:"shards,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.RLock()
	workers := s.pool.Size()
	lifecycle := s.lifecycle
	shardEng := s.shards
	s.mu.RUnlock()
	evictedSlots, _ := s.collector.Evicted()
	out := healthResponse{
		Status:             "ok",
		UptimeSeconds:      s.clock.Since(s.started).Seconds(),
		Roads:              s.sys.Network().N(),
		Workers:            workers,
		ReportSlots:        s.collector.SlotCount(),
		TotalReports:       s.collector.TotalReports(),
		LastReportAgeSec:   -1,
		OracleCache:        s.sys.OracleCacheReport(),
		ModelGeneration:    s.sys.ModelVersion(),
		ModelSwaps:         s.sys.Swaps(),
		EvictedReportSlots: evictedSlots,
		Observability:      s.rollup(),
	}
	if lifecycle != nil {
		st := lifecycle.Status()
		out.Lifecycle = &st
	}
	if s.qosCtl != nil {
		out.QoS = s.qosCtl.Report()
	}
	if shardEng != nil {
		out.Shards = shardEng.Reports()
	}
	if last, ok := s.collector.LastReport(); ok {
		age := s.clock.Since(last)
		out.LastReportAgeSec = age.Seconds()
		out.CollectorStale = s.StaleAfter > 0 && age > s.StaleAfter
	} else {
		out.CollectorStale = true // never heard from the crowd
	}
	if workers == 0 || out.CollectorStale {
		out.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, out)
}

type estimateResponse struct {
	Slot      int                `json:"slot"`
	Observed  int                `json:"observed_roads"`
	Estimates map[string]float64 `json:"estimates"` // road id (string for JSON) → speed
	Converged bool               `json:"converged"`
	// Degraded: the slot had zero usable observations, so the estimates are
	// the periodicity prior μ — structurally valid but carrying no realtime
	// signal. FallbackPrior mirrors it for API clarity.
	Degraded      bool `json:"degraded"`
	FallbackPrior bool `json:"fallback_prior"`
	// Aborted: the request deadline cut GSP short; estimates are the
	// best-so-far field.
	Aborted bool `json:"aborted,omitempty"`
	// WarmStarted: this propagation was seeded from the slot's previous
	// estimate (incremental GSP) instead of running cold.
	WarmStarted bool `json:"warm_started,omitempty"`
	// Quality labels the QoS service tier the answer was served at ("full",
	// "batched", "cached", "prior") when admission control is enabled. A
	// degraded tier is always visible here — never silent.
	Quality string `json:"quality,omitempty"`
	// VarianceInflation is the factor SD carries over the full-pipeline
	// uncertainty (1.0 at full tier) — a cheaper answer is honestly wider,
	// not just flagged.
	VarianceInflation float64 `json:"variance_inflation,omitempty"`
	// SD maps each requested road to its (tier-inflated) standard deviation.
	// Present only when admission control is enabled.
	SD map[string]float64 `json:"sd,omitempty"`
	// Level is the credible level of Intervals (default 0.9).
	Level float64 `json:"level"`
	// Intervals maps each requested road to its central credible interval at
	// Level, derived from the calibrated (tier-inflated) posterior SD.
	Intervals map[string]intervalJSON `json:"intervals"`
	// Provenance maps each requested road to how its answer was produced:
	// "observed" (a probe landed on the road), "fused" (propagated from
	// correlated probes) or "prior" (no realtime signal reached it).
	Provenance map[string]string `json:"provenance"`
}

// intervalJSON is a per-road credible interval: lo ≤ estimate ≤ hi.
type intervalJSON struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// resolveLevel validates a requested credible level: 0 means the default
// (0.9); anything else must lie strictly inside (0, 1).
func resolveLevel(level float64) (float64, error) {
	if level == 0 {
		return defaultCredibleLevel, nil
	}
	if level <= 0 || level >= 1 || math.IsNaN(level) {
		return 0, fmt.Errorf("level %v outside (0, 1)", level)
	}
	return level, nil
}

// defaultCredibleLevel is the interval level served when a request doesn't
// ask for one.
const defaultCredibleLevel = 0.9

// estimateRequest is the POST /v1/estimate body — the shared road-set base
// (slot, roads, level) plus per-road observation overrides: values in
// Observed replace (or extend) the collector's aggregates for the slot,
// letting a client ask "what would the field look like if road 3 reported
// 47.5 right now". The pre-PR-5 GET query-string alias (deprecated since
// then with a Deprecation header) is gone: POST is the only form.
type estimateRequest struct {
	RoadSetRequest
	// Observed maps road id (string, JSON object keys) → speed override.
	Observed map[string]float64 `json:"observed,omitempty"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req estimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	out, status, err := s.estimateOne(r.Context(), req)
	if err != nil {
		writeErr(w, r, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// estimateAdmitted answers one estimate at the service tier the admission
// decision picked — the full pipeline when QoS is disabled, exactly as
// pre-QoS — and records the tier actually served with the QoS controller
// (execution can degrade past the decision: cached → prior fallthrough on a
// cold slot). The returned admission info is nil when QoS is disabled.
func (s *Server) estimateAdmitted(ctx context.Context, slot tslot.Slot, observed map[int]float64) (core.TierResult, *admissionInfo, error) {
	tier := qos.TierFull
	ai := admissionFrom(ctx)
	if ai != nil {
		tier = ai.Decision.Tier
	}
	res, err := s.batcher.EstimateTier(ctx, tier, slot, observed)
	if err == nil && ai != nil && s.qosCtl != nil {
		s.qosCtl.Observe(ai.Tenant, ai.Decision.Tier, res.Tier)
	}
	return res, ai, err
}

// estimateOne validates and answers one estimate request through the
// coalescing layer. On error the returned status is the HTTP code to report.
func (s *Server) estimateOne(ctx context.Context, req estimateRequest) (*estimateResponse, int, error) {
	n := s.sys.Network().N()
	slot, level, err := req.validate(n)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	roads := req.roadsOrAll(n)

	// Robust per-road aggregates of this slot's reports, plus any explicit
	// per-request overrides.
	observed := s.collector.Observations(slot)
	for key, v := range req.Observed {
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("observed road %q: %v", key, err)
		}
		if id < 0 || id >= n {
			return nil, http.StatusBadRequest, fmt.Errorf("observed road %d out of range", id)
		}
		observed[id] = v
	}

	res, ai, err := s.estimateAdmitted(ctx, slot, observed)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	// A prior-tier answer is the periodicity prior regardless of how many
	// observations arrived — it is degraded by construction.
	degraded := len(observed) == 0 || res.Tier == qos.TierPrior
	out := &estimateResponse{
		Slot:          req.Slot,
		Observed:      len(observed),
		Estimates:     make(map[string]float64, len(roads)),
		Converged:     res.Converged,
		Degraded:      degraded,
		FallbackPrior: degraded,
		Aborted:       res.Aborted,
		WarmStarted:   res.WarmStarted,
		Level:         level,
		Intervals:     make(map[string]intervalJSON, len(roads)),
		Provenance:    make(map[string]string, len(roads)),
	}
	for _, id := range roads {
		key := strconv.Itoa(id)
		out.Estimates[key] = res.Speeds[id]
		var sd float64
		if id < len(res.SD) {
			sd = res.SD[id]
		}
		lo, hi := stattest.Interval(res.Speeds[id], sd, level)
		out.Intervals[key] = intervalJSON{Lo: lo, Hi: hi}
		if id < len(res.Provenance) {
			out.Provenance[key] = res.Provenance[id].String()
		} else {
			out.Provenance[key] = gsp.ProvPrior.String()
		}
	}
	if ai != nil {
		out.Quality = res.Tier.String()
		out.VarianceInflation = res.VarianceInflation
		out.SD = make(map[string]float64, len(roads))
		for _, id := range roads {
			if id < len(res.SD) {
				out.SD[strconv.Itoa(id)] = res.SD[id]
			}
		}
	}
	return out, http.StatusOK, nil
}

type alertJSON struct {
	Road     int     `json:"road"`
	Estimate float64 `json:"estimate"`
	Expected float64 `json:"expected"`
	Drop     float64 `json:"drop"`
	Z        float64 `json:"z"`
}

type alertsResponse struct {
	Slot     int         `json:"slot"`
	Observed int         `json:"observed_roads"`
	Alerts   []alertJSON `json:"alerts"`
	// Degraded: no observations backed this scan — alerts on a pure-prior
	// field are vacuous and the empty list must not be read as "all clear".
	Degraded bool `json:"degraded"`
	// Quality labels the QoS tier the scanned field was served at (set when
	// admission control is enabled). An alerting-class tenant under the
	// default ladder keeps "full" deep into overload.
	Quality string `json:"quality,omitempty"`
}

// handleAlerts serves both alert forms: GET scans the slot's estimates for
// incident-like drops (package detect); POST evaluates caller-supplied
// probabilistic predicates ("speed < 20 with ≥90% confidence") against the
// calibrated posterior.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// fall through to the scan below
	case http.MethodPost:
		s.handleAlertPredicates(w, r)
		return
	default:
		writeErr(w, r, http.StatusMethodNotAllowed, "GET or POST only")
		return
	}
	slotN, err := strconv.Atoi(r.URL.Query().Get("slot"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "slot: %v", err)
		return
	}
	slot := tslot.Slot(slotN)
	if !slot.Valid() {
		writeErr(w, r, http.StatusBadRequest, "slot %d out of range", slotN)
		return
	}
	observed := s.collector.Observations(slot)
	res, ai, err := s.estimateAdmitted(r.Context(), slot, observed)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	alerts, err := detect.Scan(s.sys.Model().At(slot), res.Result, detect.DefaultConfig())
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	out := alertsResponse{Slot: slotN, Observed: len(observed), Alerts: []alertJSON{},
		Degraded: len(observed) == 0 || res.Tier == qos.TierPrior}
	if ai != nil {
		out.Quality = res.Tier.String()
	}
	for _, a := range alerts {
		out.Alerts = append(out.Alerts, alertJSON{
			Road: a.Road, Estimate: a.Estimate, Expected: a.Expected, Drop: a.Drop, Z: a.Z,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// alertPredicateJSON is one probabilistic alert condition: fire when the
// posterior probability of the road's speed lying below SpeedBelow reaches
// Confidence (default 0.9).
type alertPredicateJSON struct {
	Road       int     `json:"road"`
	SpeedBelow float64 `json:"speed_below"`
	Confidence float64 `json:"confidence,omitempty"`
}

// alertsPredicateRequest embeds the shared road-set base (the slot; roads
// are named per predicate) plus the predicate list.
type alertsPredicateRequest struct {
	RoadSetRequest
	Predicates []alertPredicateJSON `json:"predicates"`
}

// predicateResultJSON reports one evaluated predicate with the posterior it
// was judged against, so a client can see *why* it fired or held.
type predicateResultJSON struct {
	Road        int     `json:"road"`
	SpeedBelow  float64 `json:"speed_below"`
	Confidence  float64 `json:"confidence"`
	Probability float64 `json:"probability"` // P(speed < SpeedBelow | posterior)
	Estimate    float64 `json:"estimate"`
	SD          float64 `json:"sd"`
	Provenance  string  `json:"provenance"`
	Fired       bool    `json:"fired"`
}

type alertsPredicateResponse struct {
	Slot     int                   `json:"slot"`
	Observed int                   `json:"observed_roads"`
	Results  []predicateResultJSON `json:"results"`
	Fired    int                   `json:"fired"`
	// Degraded: the judged posterior carries no realtime signal (zero
	// observations, or a prior-tier answer); fired predicates then reflect
	// the historical prior, not live traffic.
	Degraded bool   `json:"degraded"`
	Quality  string `json:"quality,omitempty"`
}

// handleAlertPredicates is POST /v1/alerts: estimate the slot at the
// admitted tier, then judge each predicate against the calibrated posterior
// N(estimate, sd²) — a predicate fires when P(speed < threshold) ≥ the
// requested confidence. The tier's principled variance inflation flows
// straight into the decision: a degraded answer needs a larger margin below
// the threshold to reach the same confidence.
func (s *Server) handleAlertPredicates(w http.ResponseWriter, r *http.Request) {
	var req alertsPredicateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
		return
	}
	slot := tslot.Slot(req.Slot)
	if !slot.Valid() {
		writeErr(w, r, http.StatusBadRequest, "slot %d out of range", req.Slot)
		return
	}
	if len(req.Predicates) == 0 {
		writeErr(w, r, http.StatusBadRequest, "no predicates")
		return
	}
	n := s.sys.Network().N()
	for i := range req.Predicates {
		p := &req.Predicates[i]
		if p.Road < 0 || p.Road >= n {
			writeErr(w, r, http.StatusBadRequest, "predicate road %d out of range", p.Road)
			return
		}
		if p.SpeedBelow <= 0 || math.IsNaN(p.SpeedBelow) {
			writeErr(w, r, http.StatusBadRequest, "predicate speed_below %v must be positive", p.SpeedBelow)
			return
		}
		if p.Confidence == 0 {
			p.Confidence = defaultCredibleLevel
		}
		if p.Confidence <= 0 || p.Confidence >= 1 || math.IsNaN(p.Confidence) {
			writeErr(w, r, http.StatusBadRequest, "predicate confidence %v outside (0, 1)", p.Confidence)
			return
		}
	}

	observed := s.collector.Observations(slot)
	res, ai, err := s.estimateAdmitted(r.Context(), slot, observed)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "%v", err)
		return
	}

	out := alertsPredicateResponse{
		Slot:     req.Slot,
		Observed: len(observed),
		Results:  make([]predicateResultJSON, 0, len(req.Predicates)),
		Degraded: len(observed) == 0 || res.Tier == qos.TierPrior,
	}
	if ai != nil {
		out.Quality = res.Tier.String()
	}
	for _, p := range req.Predicates {
		var sd float64
		if p.Road < len(res.SD) {
			sd = res.SD[p.Road]
		}
		prov := gsp.ProvPrior
		if p.Road < len(res.Provenance) {
			prov = res.Provenance[p.Road]
		}
		prob := stattest.ExceedProb(res.Speeds[p.Road], sd, p.SpeedBelow)
		fired := prob >= p.Confidence
		if fired {
			out.Fired++
		}
		out.Results = append(out.Results, predicateResultJSON{
			Road: p.Road, SpeedBelow: p.SpeedBelow, Confidence: p.Confidence,
			Probability: prob, Estimate: res.Speeds[p.Road], SD: sd,
			Provenance: prov.String(), Fired: fired,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// modelResponse is the GET /v1/model body.
type modelResponse struct {
	// ModelGeneration is the serving system's swap generation; Swaps counts
	// completed hot-swaps. Present even without a lifecycle manager.
	ModelGeneration uint64 `json:"model_generation"`
	Swaps           uint64 `json:"swaps"`
	// Lifecycle and History appear when a manager is attached.
	Lifecycle *modelstore.Status       `json:"lifecycle,omitempty"`
	History   []modelstore.VersionInfo `json:"history,omitempty"`
	// Refit is the last background-refit report (when a refitter is wired).
	Refit         *modelstore.RefitReport `json:"refit,omitempty"`
	RefitAttempts uint64                  `json:"refit_attempts,omitempty"`
}

type modelActionRequest struct {
	Action string `json:"action"` // "rollback" | "reload" | "refit"
}

type modelActionResponse struct {
	Action          string                  `json:"action"`
	Version         uint64                  `json:"version,omitempty"`
	ModelGeneration uint64                  `json:"model_generation"`
	Refit           *modelstore.RefitReport `json:"refit,omitempty"`
}

// handleModel is the model-lifecycle admin endpoint: GET reports the serving
// version, store history and swap/refit counters; POST triggers rollback,
// reload (re-load the store's current version) or a synchronous refit.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	mgr, refitter := s.lifecycle, s.refitter
	s.mu.RUnlock()
	switch r.Method {
	case http.MethodGet:
		out := modelResponse{
			ModelGeneration: s.sys.ModelVersion(),
			Swaps:           s.sys.Swaps(),
		}
		if mgr != nil {
			st := mgr.Status()
			out.Lifecycle = &st
			out.History = mgr.History()
		}
		if refitter != nil {
			rep, attempts := refitter.LastReport()
			if attempts > 0 {
				out.Refit = &rep
			}
			out.RefitAttempts = attempts
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		if mgr == nil {
			writeErr(w, r, http.StatusConflict, "no model lifecycle attached (start with a model store)")
			return
		}
		var req modelActionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, r, http.StatusBadRequest, "decode: %v", err)
			return
		}
		switch req.Action {
		case "rollback":
			info, err := mgr.Rollback()
			if err != nil {
				writeErr(w, r, http.StatusConflict, "rollback: %v", err)
				return
			}
			writeJSON(w, http.StatusOK, modelActionResponse{
				Action: "rollback", Version: info.Version, ModelGeneration: s.sys.ModelVersion(),
			})
		case "reload":
			info, err := mgr.Reload()
			if err != nil {
				writeErr(w, r, http.StatusConflict, "reload: %v", err)
				return
			}
			writeJSON(w, http.StatusOK, modelActionResponse{
				Action: "reload", Version: info.Version, ModelGeneration: s.sys.ModelVersion(),
			})
		case "refit":
			if refitter == nil {
				writeErr(w, r, http.StatusConflict, "no refitter attached")
				return
			}
			rep, err := refitter.RefitOnce()
			if err != nil && !rep.Gate.Refused {
				writeErr(w, r, http.StatusInternalServerError, "refit: %v", err)
				return
			}
			// A gate refusal is a successful *refusal*, not a server error:
			// report it with the gate verdict so operators see why.
			writeJSON(w, http.StatusOK, modelActionResponse{
				Action: "refit", Version: rep.Version,
				ModelGeneration: s.sys.ModelVersion(), Refit: &rep,
			})
		default:
			writeErr(w, r, http.StatusBadRequest, "unknown action %q (want rollback|reload|refit)", req.Action)
		}
	default:
		writeErr(w, r, http.StatusMethodNotAllowed, "GET or POST only")
	}
}
