// The lifecycle suite (BENCH_PR3.json): the model-lifecycle latency harness.
// It measures the three operations the lifecycle subsystem puts on the
// serving path — snapshot save (encode + fsync + atomic publish), snapshot
// load (decode + checksum verification), and hot-swap (RCU state
// replacement with oracle pre-warm) — plus a full refit drill (fold → gate →
// publish → swap). The gate watches the first three: a fresh mean beyond
// latFactor (5×) the recorded one fails.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/modelstore"
	"repro/internal/stream"
	"repro/internal/tslot"
)

// lifecycleGated are the ops the latency gate watches; the refit drill is
// recorded but not gated.
var lifecycleGated = []string{"snapshot_save", "snapshot_load", "hot_swap_prewarm1"}

// The size is the sample count per operation.
var lifecycleSuite = &suite[lifecycleReport, int]{
	name:  "lifecycle",
	file:  "BENCH_PR3.json",
	full:  20,
	fresh: 6,
	drive: driveLifecycle,
	pass:  passLifecycle,
}

// latencyStats summarizes one operation's latency distribution.
type latencyStats struct {
	Op       string  `json:"op"`
	Samples  int     `json:"samples"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	MaxMS    float64 `json:"max_ms"`
	BytesPer int64   `json:"bytes_per_op,omitempty"` // snapshot size for save/load
}

// lifecycleReport is the BENCH_PR3.json schema.
type lifecycleReport struct {
	Generated  string         `json:"generated"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Roads      int            `json:"roads"`
	Edges      int            `json:"edges"`
	Days       int            `json:"days"`
	Ops        []latencyStats `json:"ops"`
}

func (r *lifecycleReport) meanMS(op string) (float64, bool) {
	for _, o := range r.Ops {
		if o.Op == op {
			return o.MeanMS, true
		}
	}
	return 0, false
}

func summarize(op string, durs []time.Duration, bytesPer int64) latencyStats {
	s := latencyStats{Op: op, Samples: len(durs), BytesPer: bytesPer}
	if len(durs) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	s.MeanMS = ms(total / time.Duration(len(sorted)))
	s.P50MS = ms(sorted[len(sorted)/2])
	s.P95MS = ms(sorted[len(sorted)*95/100])
	s.MaxMS = ms(sorted[len(sorted)-1])
	return s
}

// driveLifecycle measures save/load/swap/refit latencies, iters samples each.
func driveLifecycle(fx *fixture, iters int, w io.Writer) (*lifecycleReport, error) {
	env, err := fx.env()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "rtsebench-lifecycle-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := modelstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	model := env.Sys.Model()

	rep := &lifecycleReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Roads:      model.N(),
		Edges:      len(model.Edges()),
		Days:       fx.opt.Days,
	}

	// Snapshot save: encode + fsync + atomic rename + manifest.
	var saveDurs []time.Duration
	var size int64
	var lastInfo modelstore.VersionInfo
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		info, err := store.Save(model, modelstore.Meta{Source: "bench"})
		if err != nil {
			return nil, err
		}
		saveDurs = append(saveDurs, time.Since(t0))
		size = info.SizeBytes
		lastInfo = info
	}
	rep.Ops = append(rep.Ops, summarize("snapshot_save", saveDurs, size))

	// Snapshot load: open + decode + every checksum.
	var loadDurs []time.Duration
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if _, _, err := store.Load(lastInfo.Version); err != nil {
			return nil, err
		}
		loadDurs = append(loadDurs, time.Since(t0))
	}
	rep.Ops = append(rep.Ops, summarize("snapshot_load", loadDurs, size))

	// Hot-swap: RCU replace with a one-slot oracle pre-warm, on a dedicated
	// system so the shared env stays untouched. The clone happens outside
	// the timed window.
	sys, err := core.NewFromModel(env.Net, model, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var swapDurs []time.Duration
	for i := 0; i < iters; i++ {
		next := sys.Model().Clone()
		slot := tslot.Slot(i % int(tslot.PerDay))
		t0 := time.Now()
		if _, _, err := sys.SwapModel(next, []tslot.Slot{slot}); err != nil {
			return nil, err
		}
		swapDurs = append(swapDurs, time.Since(t0))
	}
	rep.Ops = append(rep.Ops, summarize("hot_swap_prewarm1", swapDurs, 0))

	// Refit drill: fold one slot of streamed reports, gate, publish, swap.
	mgr, err := modelstore.NewManager(sys, store, modelstore.GateConfig{})
	if err != nil {
		return nil, err
	}
	col := stream.NewCollector(env.Net.N())
	refitter, err := modelstore.NewRefitter(mgr, col, modelstore.RefitterConfig{})
	if err != nil {
		return nil, err
	}
	day := fx.opt.Days - 1
	var refitDurs []time.Duration
	for i := 0; i < iters; i++ {
		slot := tslot.Slot(100 + i%8)
		for r := 0; r < env.Net.N(); r++ {
			if err := col.Add(stream.Report{Road: r, Slot: slot, Speed: env.Hist.At(day, slot, r)}); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if _, err := refitter.RefitOnce(); err != nil {
			return nil, err
		}
		refitDurs = append(refitDurs, time.Since(t0))
	}
	rep.Ops = append(rep.Ops, summarize("refit_fold_gate_publish_swap", refitDurs, 0))

	for _, op := range rep.Ops {
		fmt.Fprintf(w, "lifecycle: %-30s n=%-3d mean %8.3fms  p50 %8.3fms  p95 %8.3fms  max %8.3fms\n",
			op.Op, op.Samples, op.MeanMS, op.P50MS, op.P95MS, op.MaxMS)
	}
	return rep, nil
}

// passLifecycle: every gated op must be recorded with a positive mean, and a
// fresh mean must stay under latFactor× the recorded one.
func passLifecycle(base, run *lifecycleReport, w io.Writer) error {
	ref := base
	if ref == nil {
		ref = run
	}
	for _, op := range lifecycleGated {
		baseMS, ok := ref.meanMS(op)
		if !ok {
			return fmt.Errorf("baseline missing op %q", op)
		}
		freshMS, ok := run.meanMS(op)
		if !ok {
			return fmt.Errorf("fresh lifecycle run missing op %q", op)
		}
		verdict := compareLatency(op, baseMS, freshMS, latFactor)
		if base != nil {
			fmt.Fprintf(w, "rtsebench: latency %-18s baseline %8.3f ms, fresh %8.3f ms, ceiling %8.3f ms — %s\n",
				op, baseMS, freshMS, baseMS*latFactor, passFail(verdict == nil))
		}
		if verdict != nil {
			return verdict
		}
	}
	return nil
}
