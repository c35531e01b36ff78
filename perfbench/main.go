// Command perfbench is the serving benchmark of CrowdRTSE. It builds a
// workload's world, starts the real server.New(sys).Handler() behind a
// loopback listener in this process, drives it over at most two connections
// (a serial loop for latency, then a closed loop for capacity), checks every
// answer, scores accuracy on a sequential verification pass, and prints one
// JSON result as its last line of output. Every timing is reported at a
// reference speed (see reference.go):
//
//	bash perfbench/run.sh --workload city-live --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run,
// which drives an open loop at the workload's rate in place of the serial
// loop and reports the per-layer metrics from /v1/metrics scrapes and
// replays of the same request stream through each layer's public functions.
//
//	bash perfbench/run.sh --compare BASE CAND
//
// reads two files of result lines and reports every end-to-end metric whose
// median in CAND is worse than in BASE by more than BENCHMARK.json's bound.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/tslot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Float64("seconds", 45, "measured seconds: 60% latency loop, 40% closed loop")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of result lines: --compare BASE CAND")
	child := fs.Bool("child", false, "run as one process of a multi-process run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes BASE and CAND files")
			return 2
		}
		regressed, err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if regressed {
			return 3
		}
		return 0
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, size: fullSize, log: stderr}
	var out *output
	if !o.traced && !*child {
		out, err = runProcs(w, o)
	} else {
		out, err = runWorkload(w, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !*child {
		out.Pool = nil
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	size    size
	// wrap, when set, wraps the server's handler (the self-test's injected
	// slowdown).
	wrap func(http.Handler) http.Handler
	log  io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's numbers. A value that could not be measured is
// reported as 0 and named in missing, and the run is not correct.
type metrics struct {
	m       map[string]metric
	missing []string
}

func (ms *metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ms.missing = append(ms.missing, name)
		v = 0
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Pool is what a process of a multi-process run hands to the parent;
	// the parent's own result line leaves it out.
	Pool    *pool    `json:"pool,omitempty"`
	missing []string // metrics that could not be measured; logged, not printed
}

// pool holds the samples behind the timing metrics, at the reference
// speed. A multi-process run pools them over its processes, so that each
// metric is a median over every sample of the run.
type pool struct {
	Lat    [numKinds][]float64 `json:"lat"`    // latency loop (select probe), ms
	RPS    []float64           `json:"rps"`    // closed-loop windows
	CPU    []float64           `json:"cpu"`    // closed-loop windows, µs per request
	Allocs []float64           `json:"allocs"` // closed-loop windows, per request
	Setups []float64           `json:"setups"` // s
}

func (p *pool) merge(o *pool) {
	for k := range p.Lat {
		p.Lat[k] = append(p.Lat[k], o.Lat[k]...)
	}
	p.RPS = append(p.RPS, o.RPS...)
	p.CPU = append(p.CPU, o.CPU...)
	p.Allocs = append(p.Allocs, o.Allocs...)
	p.Setups = append(p.Setups, o.Setups...)
}

// set records the pool's end-to-end timing metrics. A report's median is
// not one of them: it is a tenth of a millisecond of HTTP and scheduler
// work, which the reference tracks least. When a shared 2-vCPU VM sped up
// 2.5-fold, it moved 28% at the reference speed, more than a bound may
// allow; the traced run reports it.
func (p *pool) set(ms *metrics) {
	for k := kind(0); k < numKinds; k++ {
		if k != kReport {
			ms.set(kindNames[k]+"_p50_ms", median(p.Lat[k]), "ms")
		}
	}
	ms.set("setup_s", median(p.Setups), "s")
	ms.set("capacity_rps", median(p.RPS), "1/s")
	ms.set("cpu_us_per_req", median(p.CPU), "us")
	ms.set("allocs_per_req", median(p.Allocs), "count")
}

// Run shape.
const (
	setupRepeats = 3
	latencyShare = 0.6 // of --seconds, for the latency loop; the closed loop gets the rest
	// A run is invalid when the generator, not the server, set its
	// latency: the open loop's mean lateness reached lateShare of the mean
	// latency it measured.
	lateShare = 0.5
)

// runWorkload runs one workload and returns its result.
func runWorkload(w *workload, o options) (*output, error) {
	logf := func(format string, args ...any) { fmt.Fprintf(o.log, "perfbench: "+format+"\n", args...) }

	// Set-up: build the world (train or synthesize the model), draw the OD
	// pairs and construct a serving instance, several times; the median,
	// at the reference speed, is setup_s and the last build serves.
	ref := newReference()
	var s *traffic
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		wd, err := w.build(o.size)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		s = &traffic{w: w, wd: wd, seed: o.seed}
		if err := s.drawODs(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if _, err := newServer(wd); err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		setups = append(setups, took*ref.lap())
	}
	logf("%s: %d roads, set-up %.3fs (median of %d)", w.name, s.wd.net.N(), median(setups), setupRepeats)

	t, err := startTarget(s, ref, o.wrap)
	if err != nil {
		return nil, err
	}
	res, err := measure(t, w, o, setups, logf)
	if cerr := t.close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

func measure(t *target, w *workload, o options, setups []float64, logf func(string, ...any)) (*output, error) {
	latDur := time.Duration(o.seconds * latencyShare * float64(time.Second))
	closedDur := time.Duration(o.seconds * (1 - latencyShare) * float64(time.Second))
	if o.traced {
		// The untraced and the traced open loop share the latency loop's time.
		latDur /= 2
	}
	out := &metrics{m: map[string]metric{}}
	total := &recorder{}

	lp, err := t.latencyLoop(o, latDur, false)
	if err != nil {
		return nil, err
	}
	total.merge(&lp.rec)
	var traced *phase
	if o.traced {
		if traced, err = t.latencyLoop(o, latDur, true); err != nil {
			return nil, err
		}
		total.merge(&traced.rec)
	}
	closed, err := t.closedLoop(streamClosed, maxConns, closedDur, o.traced)
	if err != nil {
		return nil, err
	}
	total.merge(&closed.rec)
	mape, vrec, err := t.verify()
	if err != nil {
		return nil, err
	}
	total.merge(vrec)
	// The live heap right after the verification pass: its fixed requests
	// to a fresh instance leave the same state on every run, where the
	// timed loops send as many steps as their time allows.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	if w.selectProbe > 0 {
		lat, prec, err := t.selectProbe(w.selectProbe)
		if err != nil {
			return nil, err
		}
		total.merge(prec)
		lp.rec.lat[kSelect] = lat
	}

	// The generator set the latency if, on average, it ran late by a fair
	// share of the latency it measured from the steps' due times. A serial
	// loop has no schedule to run late on.
	lateP99 := lateness(lp)
	valid := len(lp.late) == 0 || mean(lp.late) < lateShare*mean(lp.rec.fromDue)
	if !valid {
		logf("%s: invalid run: generator mean lateness %.3fms against mean latency %.3fms",
			w.name, mean(lp.late), mean(lp.rec.fromDue))
	}

	if o.traced {
		scrapeMetrics(out, traced, closed)
		rrec, err := t.replay(out)
		if err != nil {
			return nil, err
		}
		total.merge(rrec)
		out.set("loadgen.late_p99_ms", lateness(traced), "ms")
		out.set("loadgen.backlog_max", float64(traced.backlog), "count")
		base, tr := median(lp.rec.lat[kEstimate]), median(traced.rec.lat[kEstimate])
		out.set("trace.overhead_pct", 100*(tr-base)/base, "%")
		out.set("host.ref_ms", median(t.ref.readings), "ms")
	}
	for k := kind(0); k < numKinds; k++ {
		sm := summarize(lp.rec.lat[k])
		name := kindNames[k]
		// Medians are end-to-end metrics; tails, which host stalls on a
		// shared VM move by more than any bound allows, are reported
		// without a bound in the traced run, as is the report median.
		switch {
		case o.traced && k == kReport:
			out.set(name+"_p50_ms", sm.p50, "ms")
		case o.traced:
			out.set(name+"_tail_ms", sm.tail, "ms")
		}
		logf("%s: %-8s n=%-5d p50 %.3fms  p%g %.3fms", w.name, name, sm.n, sm.p50, 100*sm.tailAt, sm.tail)
	}
	pl := &pool{Lat: lp.rec.lat, Setups: setups}
	for _, w := range closed.windows {
		n := float64(w.requests)
		pl.RPS = append(pl.RPS, n/(w.wall.Seconds()*w.speed))
		pl.CPU = append(pl.CPU, float64(w.cpu.Microseconds())*w.speed/n)
		pl.Allocs = append(pl.Allocs, float64(w.mallocs)/n)
	}
	logf("%s: closed loop %.1f requests/s, %.1fµs CPU per request (medians of %d windows)",
		w.name, median(pl.RPS), median(pl.CPU), len(pl.RPS))
	if !o.traced {
		pl.set(out)
		out.set("heap_mb", heapMB, "MB")
		out.set("mape_pct", mape, "%")
		out.set("success_pct", 100*(1-float64(total.failed)/float64(total.attempted)), "%")
	}
	if len(lp.late) > 0 {
		logf("%s: open loop late mean %.3fms p99 %.3fms, backlog max %d", w.name, mean(lp.late), lateP99, lp.backlog)
	}
	logf("%s: %d requests, %d failed", w.name, total.attempted, total.failed)
	logf("%s: reference %.3fms (median of %d readings; times above are scaled to %gms)",
		w.name, median(t.ref.readings), len(t.ref.readings), refNominal)
	for _, e := range total.errs {
		logf("failure: %s", e)
	}
	if len(out.missing) > 0 {
		logf("%s: not measured: %s", w.name, strings.Join(out.missing, ", "))
	}
	return &output{
		Correct:   valid && total.failed == 0 && len(out.missing) == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   out.m,
		Pool:      pl,
		missing:   out.missing,
	}, nil
}

// procs is how many processes an untraced run is split over; each pays
// for its own set-ups, verification pass and select probe.
const procs = 5

// runProcs runs the workload in procs processes, one after another, each
// for its share of the seconds with a seed of its own. On a shared 2-vCPU
// VM a process's latencies can settle, for its whole life, in a mode up to
// 30% slower; pooled with the other processes' samples, such a process
// moves a median by a fraction of that. The timing metrics
// are medians over the pooled samples of every process, the others medians
// over the processes. Request counts add up.
func runProcs(w *workload, o options) (*output, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var runs []*output
	for k := 0; k < procs; k++ {
		cmd := exec.Command(exe, "--child", "--workload", w.name,
			"--seed", strconv.FormatInt(o.seed*procs+int64(k), 10),
			"--seconds", strconv.FormatFloat(o.seconds/procs, 'f', -1, 64))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, o.log
		// A process outlives no parent: if the run is killed, so is it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: process %d: %w", w.name, k, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("%s: process %d: %w", w.name, k, err)
		}
		runs = append(runs, &r)
	}
	return combine(runs), nil
}

// combine merges the results of one run's processes: the timing metrics
// come from the pooled samples, every other metric is the median over the
// processes, except success_pct, which is recomputed from the summed
// request counts so that no failure hides behind a median. The run is
// correct only if every process was and reported every metric.
func combine(runs []*output) *output {
	out := &output{Correct: true, Metrics: map[string]metric{}}
	pl := &pool{}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct && r.Pool != nil
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if r.Pool != nil {
			pl.merge(r.Pool)
		}
	}
	for name, m := range runs[0].Metrics {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			v, ok := r.Metrics[name]
			out.Correct = out.Correct && ok
			vals = append(vals, v.Value)
		}
		out.Metrics[name] = metric{Value: median(vals), Unit: m.Unit}
	}
	ms := &metrics{m: out.Metrics}
	pl.set(ms)
	out.Correct = out.Correct && len(ms.missing) == 0
	if m, ok := out.Metrics["success_pct"]; ok {
		m.Value = 100 * (1 - float64(out.Failed)/float64(out.Attempted))
		out.Metrics["success_pct"] = m
	}
	return out
}

// latencyLoop runs the phase the latencies come from. An untraced run
// sends the steps back to back from one client, the serial loop, so each
// request has the server to itself: its medians are the end-to-end
// latencies. A traced run drives the open loop at the workload's rate
// instead, for the tails under load and the generator's lateness.
func (t *target) latencyLoop(o options, dur time.Duration, traced bool) (*phase, error) {
	if o.traced {
		return t.openLoop(streamOpen, t.s.w.rate, dur, traced)
	}
	return t.closedLoop(streamOpen, 1, dur, traced)
}

// lateness is the p99 of how late the generator sent a phase's steps, 0
// for a phase without a schedule.
func lateness(p *phase) float64 {
	if len(p.late) == 0 {
		return 0
	}
	return quantile(sorted(p.late), 0.99)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// selectProbe sends n probe selects one after another to a fresh instance
// and returns their latencies, scaled by the reference readings on either
// side of the probe.
func (t *target) selectProbe(n int) ([]float64, *recorder, error) {
	if err := t.reset(); err != nil {
		return nil, nil, err
	}
	c := &client{p: t, s: t.s, rec: &recorder{}}
	t.ref.lap()
	for i := 0; i < n; i++ {
		st := t.s.probeStep(i)
		c.run(&st, time.Time{})
	}
	scale(c.rec.lat[kSelect], t.ref.lap())
	return c.rec.lat[kSelect], c.rec, nil
}

// verifyReports is how many reports a verification slot receives before
// its estimate.
const verifyReports = 10

const verifySeed = 1

// verify scores accuracy on a fixed, sequential pass over a fresh instance:
// spread slots of the day (no further apart than the temporal filter
// chases), each with crowd reports and then a query-set estimate, scored
// against the truth. The pass draws from verifySeed, not the run's seed:
// every run sends it the same requests, so mape_pct repeats and moves only
// when the answers do.
func (t *target) verify() (float64, *recorder, error) {
	if err := t.reset(); err != nil {
		return 0, nil, err
	}
	s := t.s
	c := &client{p: t, s: s, rec: &recorder{}}
	stride := min(12, tslot.PerDay/s.w.verifySlots)
	var apeSum float64
	var apeN int
	for v := 0; v < s.w.verifySlots; v++ {
		st := step{slot: tslot.Slot(v * stride), rng: newPRNG(verifySeed, int64(streamVerify), int64(v))}
		st.roads = s.querySet(&st.rng, querySize)
		lo, hi := s.wd.districts[0][0], s.wd.districts[0][1]
		for _, d := range s.wd.districts {
			if d[0] <= st.roads[0] && st.roads[0] < d[1] {
				lo, hi = d[0], d[1]
			}
		}
		for i := 0; i < verifyReports; i++ {
			road := lo + st.rng.intn(hi-lo)
			c.report(st.slot, road, s.report(&st.rng, st.slot, road), time.Time{})
		}
		res, ok := c.estimate(st.slot, st.roads, time.Time{})
		if !ok {
			continue
		}
		for _, road := range st.roads {
			truth := s.wd.truth(st.slot, road)
			apeSum += math.Abs(res.Estimates[fmt.Sprint(road)]-truth) / truth
			apeN++
		}
	}
	if apeN == 0 {
		return 0, c.rec, errors.New("verification: no estimate was answered")
	}
	return 100 * apeSum / float64(apeN), c.rec, nil
}
