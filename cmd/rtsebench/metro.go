// The metro suite (BENCH_PR7.json): the metropolitan-scale harness. It
// synthesizes a metro network with a phase-aliased RTF model (no multi-day
// history needed), measures the end-to-end sharded query latency against the
// 1-second budget, and sweeps shard counts × client counts over the
// partitioned engine. The record runs at 100k roads; the reduced -check run
// is a 5k-road e2e smoke through the same sharded pipeline, so a regression
// in the CSR substrate, the partitioner or the halo-stitched merge fails
// even without re-running the 100k benchmark.
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/shard"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

const (
	// metroBudgetSeconds is the e2e latency budget. A 5k smoke query that
	// cannot finish inside the same second the 100k record must meet
	// signals a pipeline regression, not noise.
	metroBudgetSeconds = 1.0
	metroMinRoads      = 100000 // the scale a record must reach
	metroQuerySize     = 33     // the paper's |R^q| for the Beijing workload
	metroBudget        = 30
	metroSlotGroup     = 16 // queries served before the active slot advances
	metroSlotCount     = 8  // distinct slots the sweep cycles through
)

// metroSize sizes the metro harness.
type metroSize struct {
	roads int
	// workers is the uniform crowd size; PlaceEverywhere would make OCS
	// candidate scans O(N).
	workers int
	// e2eShards is the engine width of the e2e query; e2eSlots holds one
	// slot per e2e sample, at distinct phases so every sample is cold.
	e2eShards int
	e2eSlots  []tslot.Slot
	// The throughput sweep: shard counts × client counts, each cell run for
	// duration. Empty skips the sweep.
	shards, clients []int
	duration        time.Duration
}

var metroSuite = &suite[metroReport, metroSize]{
	name: "metro",
	file: "BENCH_PR7.json",
	full: metroSize{
		roads: 100000, workers: 2000, e2eShards: 4, e2eSlots: []tslot.Slot{60, 96, 132},
		shards: []int{1, 2, 4}, clients: []int{1, 4, 16}, duration: 2 * time.Second,
	},
	fresh: metroSize{roads: 5000, workers: 500, e2eShards: 4, e2eSlots: []tslot.Slot{96}},
	drive: driveMetro,
	pass:  passMetro,
}

// metroSweepRun is one (shards, clients) cell of the throughput sweep.
type metroSweepRun struct {
	Shards int `json:"shards"`
	clientRun
}

// metroE2E records the end-to-end query latency samples against the budget.
// Every sample runs the full pipeline (per-shard OCS → global crowd probe →
// halo-stitched GSP) on a previously untouched slot, so each one pays the
// cold Γ-row Dijkstras.
type metroE2E struct {
	Shards        int     `json:"shards"`
	QuerySize     int     `json:"query_size"`
	Budget        int     `json:"budget"`
	Samples       int     `json:"samples"`
	ColdSeconds   float64 `json:"cold_seconds"` // first sample
	MeanSeconds   float64 `json:"mean_seconds"`
	MaxSeconds    float64 `json:"max_seconds"`
	BudgetSeconds float64 `json:"budget_seconds"`
	WithinBudget  bool    `json:"within_budget"`
}

// metroReport is the BENCH_PR7.json schema.
type metroReport struct {
	Generated         string          `json:"generated"`
	GoVersion         string          `json:"go_version"`
	GOMAXPROCS        int             `json:"gomaxprocs"`
	Roads             int             `json:"roads"`
	Edges             int             `json:"edges"`
	Workers           int             `json:"workers"`
	Theta             float64         `json:"theta"`
	BuildTopoSeconds  float64         `json:"build_topo_seconds"`
	BuildModelSeconds float64         `json:"build_model_seconds"`
	ModelBytes        int64           `json:"model_bytes_approx"`
	E2E               metroE2E        `json:"e2e"`
	DurationS         float64         `json:"duration_per_cell_s"`
	Sweep             []metroSweepRun `json:"sweep"`
}

// driveMetro builds the metro substrate once and reuses it across the e2e
// measurement and every sweep cell (a fresh engine per cell keeps the caches
// cold; the topology and model are immutable and safely shared).
func driveMetro(_ *fixture, size metroSize, w io.Writer) (*metroReport, error) {
	t0 := time.Now()
	net := network.Metro(network.MetroOptions{Roads: size.roads, Seed: 7})
	topoS := time.Since(t0).Seconds()
	t0 = time.Now()
	model, profiles, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 8})
	if err != nil {
		return nil, err
	}
	modelS := time.Since(t0).Seconds()
	fmt.Fprintf(w, "metro: %d roads, %d edges (topo %.2fs, model %.2fs)\n",
		net.N(), net.M(), topoS, modelS)

	pool := crowd.PlaceUniform(net, size.workers, rand.New(rand.NewSource(9)))
	query := make([]int, metroQuerySize)
	for i := range query {
		// Spread evenly across the id space — with the district-of-grids
		// layout that straddles every district (and so every shard).
		query[i] = i * net.N() / len(query)
	}
	newEngine := func(shards int) (*shard.Engine, error) {
		cfg := core.DefaultConfig()
		// Bound the per-shard Γ cache: at 100k roads a single row is
		// ~800 KB and the sweep cycles metroSlotCount slots, so an
		// unbounded cache would keep every slot's rows resident forever.
		cfg.OracleCacheSlots = metroSlotCount
		return shard.New(net, model, shard.Config{Shards: shards, Seed: 11, Core: cfg})
	}

	rep := &metroReport{
		Generated:         time.Now().UTC().Format(time.RFC3339),
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Roads:             net.N(),
		Edges:             net.M(),
		Workers:           size.workers,
		Theta:             theta,
		BuildTopoSeconds:  topoS,
		BuildModelSeconds: modelS,
		ModelBytes:        model.ApproxBytes(),
		DurationS:         size.duration.Seconds(),
	}

	// --- End-to-end latency against the budget ---------------------------
	eng, err := newEngine(size.e2eShards)
	if err != nil {
		return nil, err
	}
	e2e := metroE2E{
		Shards: size.e2eShards, QuerySize: len(query), Budget: metroBudget,
		Samples: len(size.e2eSlots), BudgetSeconds: metroBudgetSeconds,
	}
	var total float64
	for i, slot := range size.e2eSlots {
		truth := func(r int) float64 { return profiles[r].Speed(slot) * 0.93 }
		t0 := time.Now()
		res, err := eng.Query(context.Background(), core.QueryRequest{
			Slot: slot, Roads: query, Budget: metroBudget, Theta: theta,
			Workers: pool, Truth: truth, Seed: int64(i + 1),
			Probe: crowd.ProbeConfig{NoiseSD: 0.02},
		})
		if err != nil {
			return nil, err
		}
		sec := time.Since(t0).Seconds()
		if len(res.Speeds) != net.N() {
			return nil, fmt.Errorf("e2e sample %d: %d speeds for %d roads", i, len(res.Speeds), net.N())
		}
		if i == 0 {
			e2e.ColdSeconds = sec
		}
		e2e.MaxSeconds = max(e2e.MaxSeconds, sec)
		total += sec
	}
	e2e.MeanSeconds = total / float64(len(size.e2eSlots))
	e2e.WithinBudget = e2e.MaxSeconds < metroBudgetSeconds
	rep.E2E = e2e
	fmt.Fprintf(w, "metro: e2e query (shards=%d) cold %.3fs, mean %.3fs, max %.3fs — budget %.1fs %s\n",
		e2e.Shards, e2e.ColdSeconds, e2e.MeanSeconds, e2e.MaxSeconds,
		e2e.BudgetSeconds, passFail(e2e.WithinBudget))

	// --- Shards × clients throughput sweep --------------------------------
	for _, shards := range size.shards {
		eng, err := newEngine(shards)
		if err != nil {
			return nil, err
		}
		for _, clients := range size.clients {
			run, err := metroDrive(eng, query, pool.Roads(), shards, clients, size.duration)
			if err != nil {
				return nil, err
			}
			rep.Sweep = append(rep.Sweep, run)
			fmt.Fprintf(w, "metro: shards=%d clients=%-3d %8.1f queries/s (%d queries in %.1fs)\n",
				shards, clients, run.QueriesPS, run.Queries, run.Seconds)
		}
	}
	return rep, nil
}

// metroDrive hammers Engine.Select from `clients` goroutines for roughly
// `duration` with the slot-cycling live-traffic pattern of the qps harness.
func metroDrive(eng *shard.Engine, query, workerRoads []int, shards, clients int, duration time.Duration) (metroSweepRun, error) {
	run, err := driveClients(clients, duration, func(i int64) error {
		_, err := eng.Select(context.Background(), core.SelectRequest{
			Slot: tslot.Slot(int(i/metroSlotGroup) % metroSlotCount * 36), Roads: query, WorkerRoads: workerRoads,
			Budget: metroBudget, Theta: theta, Selector: core.Hybrid, Seed: i,
		})
		return err
	})
	return metroSweepRun{Shards: shards, clientRun: run}, err
}

// passMetro: every e2e sample must meet the budget. A record must also reach
// metroMinRoads and carry a live multi-shard sweep.
func passMetro(base, run *metroReport, w io.Writer) error {
	e := run.E2E
	verdict := e.WithinBudget && e.MaxSeconds < metroBudgetSeconds
	if base != nil {
		fmt.Fprintf(w, "rtsebench: metro smoke %dk roads e2e %.3fs, ceiling %.1fs — %s\n",
			run.Roads/1000, e.MaxSeconds, metroBudgetSeconds, passFail(verdict))
	}
	if !verdict {
		return fmt.Errorf("e2e max %.3fs violates the %.1fs budget", e.MaxSeconds, metroBudgetSeconds)
	}
	if base != nil {
		return nil
	}
	if run.Roads < metroMinRoads {
		return fmt.Errorf("recorded at %d roads, want ≥ %d", run.Roads, metroMinRoads)
	}
	shardCounts := map[int]bool{}
	for _, cell := range run.Sweep {
		if cell.QueriesPS <= 0 {
			return fmt.Errorf("sweep cell shards=%d clients=%d has no throughput", cell.Shards, cell.Clients)
		}
		shardCounts[cell.Shards] = true
	}
	if len(shardCounts) < 2 {
		return fmt.Errorf("sweep covers %d shard counts, want a multi-shard sweep", len(shardCounts))
	}
	fmt.Fprintf(w, "rtsebench: metro baseline %d roads, e2e max %.3fs < %.1fs budget, %d sweep cells — ok\n",
		run.Roads, e.MaxSeconds, metroBudgetSeconds, len(run.Sweep))
	return nil
}
