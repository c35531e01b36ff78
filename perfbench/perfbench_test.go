package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload at reduced size:
//
//	cd perfbench && go test .
var smallSize = size{cityRoads: 120, cityDays: 6, metroRoads: 5000}

const smallSeconds = 6

type benchFile struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readBench(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func runSmall(t *testing.T, w *workload, traced bool, wrap func(http.Handler) http.Handler) *output {
	t.Helper()
	out, err := runWorkload(w, options{
		seed: 1, seconds: smallSeconds, traced: traced, size: smallSize, wrap: wrap, log: testLog{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	if len(out.missing) > 0 {
		t.Errorf("not measured: %v", out.missing)
	}
	return out
}

// checkMetrics: every named metric appears, with its unit, and is finite.
func checkMetrics(t *testing.T, got map[string]metric, want []bound) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, %d named", len(got), len(want))
	}
	for _, b := range want {
		m, ok := got[b.Name]
		switch {
		case !ok:
			t.Errorf("%s missing", b.Name)
		case m.Unit != b.Unit:
			t.Errorf("%s: unit %q, want %q", b.Name, m.Unit, b.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %v", b.Name, m.Value)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	bench := readBench(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, runSmall(t, w, false, nil).Metrics, bench.EndToEnd)
			checkMetrics(t, runSmall(t, w, true, nil).Metrics, bench.PerLayer)
		})
	}
}

// slowdown doubles the handler's time: it sleeps as long as the handler
// took before the response is flushed.
func slowdown(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		time.Sleep(time.Since(t0))
	})
}

// TestComparisonFlagsSlowdown: the gate can fail. A 2× slower handler must
// regress the estimate latency beyond its bound.
func TestComparisonFlagsSlowdown(t *testing.T) {
	bench := readBench(t)
	w, err := lookup("city-live")
	if err != nil {
		t.Fatal(err)
	}
	base := runSmall(t, w, false, nil)
	slow := runSmall(t, w, false, slowdown)
	flagged := map[string]bool{}
	for _, r := range compareRuns(bench.EndToEnd, []*output{base}, []*output{slow}) {
		t.Logf("regressed %s: %.4g → %.4g", r.name, r.base, r.cand)
		flagged[r.name] = true
	}
	for _, name := range []string{"estimate_p50_ms", "capacity_rps"} {
		if !flagged[name] {
			t.Errorf("a 2× slower handler did not regress %s", name)
		}
	}
}

// TestComparisonFailsIncorrectRun: a candidate whose medians look fine but
// whose run was not correct (a failed request, a late generator, a metric it
// could not measure) fails the gate.
func TestComparisonFailsIncorrectRun(t *testing.T) {
	bench := readBench(t)
	good := &output{Correct: true, Attempted: 10, Metrics: map[string]metric{}}
	for _, b := range bench.EndToEnd {
		good.Metrics[b.Name] = metric{Value: 1, Unit: b.Unit}
	}
	if regs := compareRuns(bench.EndToEnd, []*output{good}, []*output{good}); len(regs) != 0 {
		t.Fatalf("identical runs regressed: %v", regs)
	}
	bad := *good
	bad.Correct = false
	regs := compareRuns(bench.EndToEnd, []*output{good}, []*output{good, &bad})
	if len(regs) != 1 || regs[0].name != "correct" {
		t.Errorf("an incorrect candidate run was not flagged: %v", regs)
	}
}
