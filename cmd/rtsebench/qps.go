// The qps suite (BENCH_PR2.json): the concurrent-throughput harness. It
// drives concurrent clients against one core.System — the same slot-cycling
// workload as BenchmarkConcurrentQueries — once with the legacy oracle
// configuration (global-mutex row cache, sequential OCS, per-pair θ lookups)
// and once with the sharded singleflight engine, and records both throughput
// curves and the clients=16 speedup.
//
// The gate is strict: fresh sharded throughput at qpsGateClients must stay
// above 75% of the recorded number, scaled by a machine calibration — the
// legacy engine, recorded in the same file and untouched by hot-path
// changes, is re-measured too, so a box that is simply slower than the
// baseline machine scales the floor down instead of producing a false
// regression.
package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/tslot"
)

const (
	qpsSlotGroup = 64 // queries served before the active slot advances
	qpsSlotCount = 48 // distinct slots the workload cycles through
	qpsBudget    = 20
	// qpsGateClients is the client count the throughput gate compares at.
	qpsGateClients = 16
)

// qpsSize sizes the throughput sweep.
type qpsSize struct {
	clients  []int
	duration time.Duration // wall-clock length of each (engine, clients) run
	// attempts is how many runs each (engine, clients) cell gets; the best
	// is kept. A shared box can steal half a core from any single attempt;
	// a genuine hot-path regression slows every attempt.
	attempts int
}

var qpsSuite = &suite[qpsReport, qpsSize]{
	name:  "qps",
	file:  "BENCH_PR2.json",
	full:  qpsSize{clients: []int{1, 4, 16}, duration: 2 * time.Second, attempts: 1},
	fresh: qpsSize{clients: []int{qpsGateClients}, duration: time.Second, attempts: 3},
	drive: driveQPS,
	pass:  passQPS,
}

// clientRun is one closed-loop throughput measurement.
type clientRun struct {
	Clients   int     `json:"clients"`
	Queries   int64   `json:"queries"`
	Seconds   float64 `json:"seconds"`
	QueriesPS float64 `json:"queries_per_s"`
}

// qpsEngineRun groups the client sweep for one oracle engine.
type qpsEngineRun struct {
	Oracle      string           `json:"oracle"` // "legacy" (pre-sharding) or "sharded"
	ParallelOCS bool             `json:"parallel_ocs"`
	Runs        []clientRun      `json:"runs"`
	OracleCache core.CacheReport `json:"oracle_cache"`
}

// qpsReport is the BENCH_PR2.json schema.
type qpsReport struct {
	Generated      string         `json:"generated"`
	GoVersion      string         `json:"go_version"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	Roads          int            `json:"roads"`
	Days           int            `json:"days"`
	QuerySize      int            `json:"query_size"`
	Budget         int            `json:"budget"`
	Theta          float64        `json:"theta"`
	SlotGroup      int            `json:"slot_group"`
	SlotCount      int            `json:"slot_count"`
	DurationS      float64        `json:"duration_per_run_s"`
	Engines        []qpsEngineRun `json:"engines"`
	SpeedupC16     float64        `json:"speedup_clients16"`
	SpeedupTarget  float64        `json:"speedup_target"`
	TargetAchieved bool           `json:"target_achieved"`
}

// engineQPS returns the recorded throughput for one oracle engine at
// `clients`, falling back to the highest recorded client count when the
// exact one is absent.
func (r *qpsReport) engineQPS(engine string, clients int) (float64, error) {
	bestClients, best := -1, 0.0
	for _, e := range r.Engines {
		if e.Oracle != engine {
			continue
		}
		for _, run := range e.Runs {
			if run.Clients == clients {
				return run.QueriesPS, nil
			}
			if run.Clients > bestClients {
				bestClients, best = run.Clients, run.QueriesPS
			}
		}
	}
	if bestClients < 0 {
		return 0, fmt.Errorf("baseline has no %s-engine runs", engine)
	}
	return best, nil
}

// driveQPS sweeps both engines over the client counts.
func driveQPS(fx *fixture, size qpsSize, w io.Writer) (*qpsReport, error) {
	env, err := fx.env()
	if err != nil {
		return nil, err
	}
	workerRoads := crowd.PlaceEverywhere(env.Net).Roads()
	rep := &qpsReport{
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Roads:         fx.opt.Roads,
		Days:          fx.opt.Days,
		QuerySize:     fx.opt.QuerySize,
		Budget:        qpsBudget,
		Theta:         theta,
		SlotGroup:     qpsSlotGroup,
		SlotCount:     qpsSlotCount,
		DurationS:     size.duration.Seconds(),
		SpeedupTarget: 3.0,
	}

	qpsAt := map[string]map[int]float64{}
	for _, engine := range []string{"legacy", "sharded"} {
		cfg := core.DefaultConfig()
		if engine == "legacy" {
			cfg.LegacyOracle = true
			cfg.ParallelOCS = false // the legacy solver was sequential
		} else {
			cfg.PrewarmWorkers = true
		}
		er := qpsEngineRun{Oracle: engine, ParallelOCS: cfg.ParallelOCS}
		qpsAt[engine] = map[int]float64{}
		for _, clients := range size.clients {
			var best clientRun
			for a := 0; a < size.attempts; a++ {
				// A fresh System per run so each measurement starts from a
				// cold oracle cache and LRU — no cross-run warm-row leakage.
				sys, err := core.NewFromModel(env.Net, env.Sys.Model(), cfg)
				if err != nil {
					return nil, err
				}
				run, err := qpsDrive(sys, env.Query, workerRoads, clients, size.duration)
				if err != nil {
					return nil, err
				}
				if run.QueriesPS > best.QueriesPS {
					best = run
				}
				er.OracleCache = sys.OracleCacheReport()
			}
			er.Runs = append(er.Runs, best)
			qpsAt[engine][clients] = best.QueriesPS
			fmt.Fprintf(w, "qps: oracle=%-8s clients=%-3d %10.0f queries/s (%d queries in %.1fs)\n",
				engine, clients, best.QueriesPS, best.Queries, best.Seconds)
		}
		rep.Engines = append(rep.Engines, er)
	}

	if legacy := qpsAt["legacy"][16]; legacy > 0 {
		rep.SpeedupC16 = qpsAt["sharded"][16] / legacy
		rep.TargetAchieved = rep.SpeedupC16 >= rep.SpeedupTarget
		fmt.Fprintf(w, "qps: clients=16 speedup sharded/legacy = %.2f× (target ≥ %.1f×)\n",
			rep.SpeedupC16, rep.SpeedupTarget)
	}
	return rep, nil
}

// driveClients calls do from `clients` goroutines for roughly `duration`,
// passing every call a unique sequence number, and stops every client at
// the first error.
func driveClients(clients int, duration time.Duration, do func(i int64) error) (clientRun, error) {
	var next atomic.Int64
	var stop atomic.Bool
	errs := make(chan error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := do(next.Add(1) - 1); err != nil {
					errs <- err
					stop.Store(true)
					return
				}
			}
		}()
	}
	timer := time.AfterFunc(duration, func() { stop.Store(true) })
	wg.Wait()
	timer.Stop()
	elapsed := time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		return clientRun{}, err
	}
	done := next.Load()
	return clientRun{
		Clients:   clients,
		Queries:   done,
		Seconds:   elapsed,
		QueriesPS: float64(done) / elapsed,
	}, nil
}

// qpsDrive hammers sys.Select from `clients` goroutines for roughly
// `duration`, advancing the slot every qpsSlotGroup queries across
// qpsSlotCount distinct slots — the live-traffic pattern where every client
// asks about "now" and now keeps moving.
func qpsDrive(sys *core.System, query, workerRoads []int, clients int, duration time.Duration) (clientRun, error) {
	return driveClients(clients, duration, func(i int64) error {
		_, err := sys.Select(context.Background(), core.SelectRequest{
			Slot: tslot.Slot(int(i/qpsSlotGroup) % qpsSlotCount * 6), Roads: query, WorkerRoads: workerRoads,
			Budget: qpsBudget, Theta: theta, Selector: core.Hybrid, Seed: i,
		})
		return err
	})
}

// passQPS: a record must carry a positive sharded throughput; a fresh run
// must clear the calibrated floor.
func passQPS(base, run *qpsReport, w io.Writer) error {
	fresh, err := run.engineQPS("sharded", qpsGateClients)
	if err != nil {
		return err
	}
	if base == nil {
		return compareThroughput(fresh, fresh, tol, 1)
	}
	baseQPS, err := base.engineQPS("sharded", qpsGateClients)
	if err != nil {
		return err
	}
	calibration := 1.0
	if baseRef, err := base.engineQPS("legacy", qpsGateClients); err == nil {
		freshRef, _ := run.engineQPS("legacy", qpsGateClients)
		calibration = machineCalibration(baseRef, freshRef)
		fmt.Fprintf(w, "rtsebench: reference (legacy engine) baseline %.0f q/s, fresh %.0f q/s → machine calibration %.2f\n",
			baseRef, freshRef, calibration)
	}
	verdict := compareThroughput(baseQPS, fresh, tol, calibration)
	fmt.Fprintf(w, "rtsebench: throughput clients=%d baseline %.0f q/s, fresh %.0f q/s (%+.1f%%), floor %.0f — %s\n",
		qpsGateClients, baseQPS, fresh, 100*(fresh-baseQPS)/baseQPS, baseQPS*(1-tol)*min(calibration, 1), passFail(verdict == nil))
	if base.GOMAXPROCS != run.GOMAXPROCS {
		fmt.Fprintf(w, "rtsebench: note: baseline GOMAXPROCS=%d, current %d — absolute q/s not strictly comparable\n",
			base.GOMAXPROCS, run.GOMAXPROCS)
	}
	return verdict
}
