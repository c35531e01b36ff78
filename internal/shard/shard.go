// Package shard scales CrowdRTSE to metropolitan networks by graph
// partitioning: the road network is split into k balanced districts
// (graph.Partition), each district runs its own complete core.System — RTF
// submodel, per-slot correlation-oracle LRU, Batcher coalescing leader — over
// the district plus a halo of boundary roads, and a single facade routes
// queries by road ownership and merges the per-shard answers
// deterministically.
//
// # Halo stitching
//
// Cutting the graph would sever the boundary correlations that GSP and the
// correlation oracle propagate across (Eq. 7–10 path products stop at the
// cut). Each shard therefore owns its partition and additionally carries
// every road within HaloHops of it: observations landing in the halo are
// duplicated into the shard, so propagation into the owned interior sees the
// same boundary evidence the unsharded engine would. Halo roads are
// estimated by the shard but never reported by it — ownership is a partition
// of the roads, so every road's answer comes from exactly one shard and the
// merged field is independent of shard completion order.
//
// A shard's model is sliced from the global model with rtf.Submodel, which
// preserves slot aliasing (speedgen.MetroModel's phase arrays), so sharding a
// metro model costs phase-count× the slice memory, not 288×.
package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/ocs"
	"repro/internal/rtf"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// Config controls the shard layout and the per-shard engines.
type Config struct {
	// Shards is the number of partitions k (≥ 1).
	Shards int
	// Seed drives the partitioner; a fixed seed yields the identical layout
	// on every start (graph.Partition is deterministic).
	Seed int64
	// HaloHops is how far beyond its owned roads each shard extends
	// (default 2 — matching the speed generator's correlation range and the
	// 2-hop incident spillover).
	HaloHops int
	// Core configures every per-shard system identically.
	Core core.Config
	// Batch configures the per-shard Batcher leaders.
	Batch core.BatcherOptions
}

// Shard is one district engine: a complete core.System over the owned roads
// plus halo, renumbered locally.
type Shard struct {
	index int
	sys   *core.System
	batch *core.Batcher
	sub   *network.Network
	orig  []int // local id -> global id (owned ∪ halo)
	owned []int // global ids this shard owns (sorted)
	halo  []int // global ids carried as halo only (sorted)
}

// System returns the shard's core engine (for instrumentation/attachment).
func (s *Shard) System() *core.System { return s.sys }

// Batcher returns the shard's coalescing leader.
func (s *Shard) Batcher() *core.Batcher { return s.batch }

// Owned returns the global ids the shard owns. Shared; do not modify.
func (s *Shard) Owned() []int { return s.owned }

// Halo returns the global ids the shard carries as halo. Shared; do not
// modify.
func (s *Shard) Halo() []int { return s.halo }

// Engine is the sharded facade: it owns the partition layout and routes
// estimation and selection by road ownership.
type Engine struct {
	net    *network.Network
	cfg    Config
	owner  []int32   // global road -> owning shard
	local  [][]int32 // [shard][global road] -> local id, -1 if absent
	shards []*Shard

	// filters holds one temporal filter per shard once EnableTemporal runs;
	// nil until then. See temporal.go for the owner-only update rule.
	filters []*temporal.Filter
}

// New partitions the network, slices the model, and builds one core.System
// per shard. The layout is a pure function of (topology, Shards, Seed).
func New(net *network.Network, model *rtf.Model, cfg Config) (*Engine, error) {
	if net == nil || model == nil {
		return nil, fmt.Errorf("shard: nil network or model")
	}
	if model.N() != net.N() {
		return nil, fmt.Errorf("shard: model covers %d roads, network has %d", model.N(), net.N())
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.HaloHops == 0 {
		cfg.HaloHops = 2
	}
	if cfg.Core.GSP.Epsilon <= 0 {
		// Zero-value Core: adopt the serving defaults so an engine built with
		// just {Shards, Seed} works out of the box.
		cfg.Core.GSP = gsp.DefaultOptions()
		cfg.Core.ParallelOCS = true
	}
	if cfg.HaloHops < 0 {
		return nil, fmt.Errorf("shard: negative halo depth %d", cfg.HaloHops)
	}
	g := net.Graph()
	parts, err := g.Partition(cfg.Shards, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}
	n := net.N()
	e := &Engine{
		net:    net,
		cfg:    cfg,
		owner:  make([]int32, n),
		local:  make([][]int32, cfg.Shards),
		shards: make([]*Shard, cfg.Shards),
	}
	for p, part := range parts {
		for _, u := range part {
			e.owner[u] = int32(p)
		}
	}
	for p, part := range parts {
		extended := g.WithinHops(part, cfg.HaloHops) // sorted, ⊇ part
		subnet, orig, err := net.Subnetwork(extended)
		if err != nil {
			return nil, fmt.Errorf("shard %d: subnetwork: %w", p, err)
		}
		submodel, err := model.Submodel(orig, subnet.Graph().EdgeList())
		if err != nil {
			return nil, fmt.Errorf("shard %d: submodel: %w", p, err)
		}
		sys, err := core.NewFromModel(subnet, submodel, cfg.Core)
		if err != nil {
			return nil, fmt.Errorf("shard %d: system: %w", p, err)
		}
		batch, err := core.NewBatcher(sys, cfg.Batch)
		if err != nil {
			return nil, fmt.Errorf("shard %d: batcher: %w", p, err)
		}
		local := make([]int32, n)
		for i := range local {
			local[i] = -1
		}
		var halo []int
		for li, gid := range orig {
			local[gid] = int32(li)
			if e.owner[gid] != int32(p) {
				halo = append(halo, gid)
			}
		}
		e.local[p] = local
		e.shards[p] = &Shard{
			index: p, sys: sys, batch: batch, sub: subnet,
			orig: orig, owned: part, halo: halo,
		}
	}
	return e, nil
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard p.
func (e *Engine) Shard(p int) *Shard { return e.shards[p] }

// Owner returns the shard that owns global road r.
func (e *Engine) Owner(r int) int { return int(e.owner[r]) }

// Network returns the global network.
func (e *Engine) Network() *network.Network { return e.net }

// Result is a merged full-network estimate. Speeds is indexed by global road
// id; every entry was produced by the road's owning shard.
type Result struct {
	Speeds []float64
	// Aborted is set when any shard's propagation hit the deadline.
	Aborted bool
	// PerShard holds each shard's own propagation diagnostics.
	PerShard []gsp.Result
}

// Estimate runs GSP on every shard concurrently and stitches the owned
// interiors into one global field. Observations are routed to every shard
// that carries the road — its owner and any shard holding it in the halo —
// which is exactly the boundary-stitching step: a probe just across the cut
// still anchors this side's propagation.
func (e *Engine) Estimate(ctx context.Context, t tslot.Slot, observed map[int]float64) (Result, error) {
	obsPerShard, err := e.routeObservations(observed)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Speeds:   make([]float64, e.net.N()),
		PerShard: make([]gsp.Result, len(e.shards)),
	}
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for p := range e.shards {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r, err := e.shards[p].batch.Estimate(ctx, t, obsPerShard[p])
			res.PerShard[p], errs[p] = r, err
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("shard %d: estimate: %w", p, err)
		}
	}
	for p, sh := range e.shards {
		speeds := res.PerShard[p].Speeds
		local := e.local[p]
		for _, gid := range sh.owned {
			res.Speeds[gid] = speeds[local[gid]]
		}
		if res.PerShard[p].Aborted {
			res.Aborted = true
		}
	}
	return res, nil
}

// routeObservations builds each shard's local observation map: every global
// observation lands in its owner shard and in every shard whose halo carries
// the road. An out-of-range road id is an error, as it is for the unsharded
// engine.
func (e *Engine) routeObservations(observed map[int]float64) ([]map[int]float64, error) {
	out := make([]map[int]float64, len(e.shards))
	for p := range out {
		out[p] = make(map[int]float64)
	}
	for gid, v := range observed {
		if gid < 0 || gid >= len(e.owner) {
			return nil, fmt.Errorf("shard: observed road %d out of range", gid)
		}
		for p := range e.shards {
			if li := e.local[p][gid]; li >= 0 {
				out[p][int(li)] = v
			}
		}
	}
	return out, nil
}

// Select solves OCS per shard and merges: query roads and worker candidates
// are routed to their owning shard (a worker road is a candidate only where
// it is owned, so no road can be selected twice), the budget is split
// proportionally to each shard's queried-road count (largest-remainder,
// shard order breaks ties — deterministic), and the per-shard selections are
// concatenated in shard order. Road ids are global and must be in range. The
// RouteVar weights are not sharded, so a request carrying Weights is
// rejected.
func (e *Engine) Select(ctx context.Context, req core.SelectRequest) (ocs.Solution, error) {
	if req.Weights != nil {
		return ocs.Solution{}, fmt.Errorf("shard: select weights (RouteVar) are not sharded")
	}
	k := len(e.shards)
	queries := make([][]int, k)
	workers := make([][]int, k)
	for _, r := range req.Roads {
		if r < 0 || r >= len(e.owner) {
			return ocs.Solution{}, fmt.Errorf("shard: queried road %d out of range", r)
		}
		p := e.owner[r]
		queries[p] = append(queries[p], int(e.local[p][r]))
	}
	for _, r := range req.WorkerRoads {
		if r < 0 || r >= len(e.owner) {
			return ocs.Solution{}, fmt.Errorf("shard: worker road %d out of range", r)
		}
		p := e.owner[r]
		workers[p] = append(workers[p], int(e.local[p][r]))
	}
	budgets := splitBudget(req.Budget, queries)

	sols := make([]ocs.Solution, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		if len(queries[p]) == 0 || budgets[p] == 0 {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sols[p], errs[p] = e.shards[p].batch.Select(ctx, core.SelectRequest{
				Slot: req.Slot, Roads: queries[p], WorkerRoads: workers[p],
				Budget: budgets[p], Theta: req.Theta,
				Selector: req.Selector, Seed: req.Seed,
			})
		}(p)
	}
	wg.Wait()
	var merged ocs.Solution
	for p := 0; p < k; p++ {
		if errs[p] != nil {
			return ocs.Solution{}, fmt.Errorf("shard %d: select: %w", p, errs[p])
		}
		for _, lr := range sols[p].Roads {
			merged.Roads = append(merged.Roads, e.shards[p].orig[lr])
		}
		merged.Value += sols[p].Value
		merged.Cost += sols[p].Cost
	}
	return merged, nil
}

// splitBudget apportions the budget proportionally to each shard's query
// count by largest remainder; shards with no queries get nothing.
func splitBudget(budget int, queries [][]int) []int {
	k := len(queries)
	out := make([]int, k)
	total := 0
	for _, q := range queries {
		total += len(q)
	}
	if total == 0 || budget <= 0 {
		return out
	}
	assigned := 0
	rem := make([]int, k) // remainder numerators
	for p, q := range queries {
		share := budget * len(q)
		out[p] = share / total
		rem[p] = share % total
		assigned += out[p]
	}
	for assigned < budget {
		best := -1
		for p := 0; p < k; p++ {
			if len(queries[p]) == 0 {
				continue
			}
			if best < 0 || rem[p] > rem[best] {
				best = p
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		rem[best] = -1 // each shard gains at most one remainder unit
		assigned++
	}
	return out
}

// QueryResult is the sharded pipeline's answer.
type QueryResult struct {
	Selected    ocs.Solution
	Probed      map[int]float64
	Speeds      []float64
	QuerySpeeds map[int]float64
	Ledger      crowd.Ledger
	Propagation Result
}

// Query runs the sharded online pipeline: per-shard OCS under a split budget,
// one global crowd probe of the merged selection (a task campaign when
// req.Campaign is set), then halo-stitched estimation. Probing stays global
// because the crowd is global — a worker does not care which shard owns the
// road it drives on.
func (e *Engine) Query(ctx context.Context, req core.QueryRequest) (*QueryResult, error) {
	if err := req.Validate(e.net.N()); err != nil {
		return nil, err
	}
	sol, err := e.Select(ctx, core.SelectRequest{
		Slot: req.Slot, Roads: req.Roads, WorkerRoads: req.Workers.Roads(),
		Budget: req.Budget, Theta: req.Theta, Selector: req.Selector, Seed: req.Seed,
	})
	if err != nil {
		return nil, err
	}
	ledger := crowd.Ledger{Budget: req.Budget}
	probed, _, _, err := req.Crowdsource(sol.Roads, e.net.Costs(), &ledger)
	if err != nil {
		return nil, err
	}
	prop, err := e.Estimate(ctx, req.Slot, probed)
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Selected:    sol,
		Probed:      probed,
		Speeds:      prop.Speeds,
		QuerySpeeds: core.QuerySpeeds(prop.Speeds, req.Roads),
		Ledger:      ledger,
		Propagation: prop,
	}, nil
}

// ShardReport is one shard's health rollup for /v1/healthz.
type ShardReport struct {
	Shard       int              `json:"shard"`
	Roads       int              `json:"roads"`
	HaloRoads   int              `json:"halo_roads"`
	OracleCache core.CacheReport `json:"oracle_cache"`
}

// Reports returns each shard's cache/health rollup, in shard order.
func (e *Engine) Reports() []ShardReport {
	out := make([]ShardReport, len(e.shards))
	for p, sh := range e.shards {
		out[p] = ShardReport{
			Shard:       p,
			Roads:       len(sh.owned),
			HaloRoads:   len(sh.halo),
			OracleCache: sh.sys.OracleCacheReport(),
		}
	}
	return out
}

// Instrument attaches one instrument set to every shard system.
func (e *Engine) Instrument(p *obs.Pipeline) {
	for _, sh := range e.shards {
		sh.sys.Instrument(p)
	}
}

// RegisterMetrics exports shard-labeled oracle-cache series for every shard:
// crowdrtse_shardN_oracle_cache_{hits_total,misses_total,resident_rows,
// resident_bytes} plus crowdrtse_shards. They read the same
// OracleCacheReport values Reports serializes, so /v1/metrics and
// /v1/healthz agree by construction.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("crowdrtse_shards", "number of partition shards",
		func() float64 { return float64(len(e.shards)) })
	for p := range e.shards {
		sys := e.shards[p].sys
		prefix := fmt.Sprintf("crowdrtse_shard%d_oracle_cache_", p)
		reg.CounterFunc(prefix+"hits_total", fmt.Sprintf("shard %d oracle-cache row hits", p),
			func() uint64 { return sys.OracleCacheReport().Hits })
		reg.CounterFunc(prefix+"misses_total", fmt.Sprintf("shard %d oracle-cache row misses", p),
			func() uint64 { return sys.OracleCacheReport().Misses })
		reg.GaugeFunc(prefix+"resident_rows", fmt.Sprintf("shard %d resident correlation rows", p),
			func() float64 { return float64(sys.OracleCacheReport().ResidentRows) })
		reg.GaugeFunc(prefix+"resident_bytes", fmt.Sprintf("shard %d resident correlation bytes", p),
			func() float64 { return float64(sys.OracleCacheReport().ResidentBytes) })
	}
}
