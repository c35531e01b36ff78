package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareThroughput(t *testing.T) {
	cases := []struct {
		name                        string
		baseline, fresh, tol, calib float64
		wantErr                     string
	}{
		{"exactly at baseline", 1000, 1000, 0.25, 1, ""},
		{"improvement passes", 1000, 5000, 0.25, 1, ""},
		{"within tolerance", 1000, 751, 0.25, 1, ""},
		{"at the floor passes", 1000, 750, 0.25, 1, ""},
		{"below the floor fails", 1000, 749, 0.25, 1, "regression"},
		{"zero tolerance is strict", 1000, 999, 0, 1, "regression"},
		{"slow box scales the floor down", 1000, 500, 0.25, 0.6, ""},
		{"regression caught despite slow box", 1000, 449, 0.25, 0.6, "regression"},
		{"fast box never loosens the gate", 1000, 749, 0.25, 2, "regression"},
		{"corrupt baseline fails loudly", 0, 1000, 0.25, 1, "not positive"},
		{"negative baseline fails loudly", -5, 1000, 0.25, 1, "not positive"},
		{"zero calibration rejected", 1000, 1000, 0.25, 0, "not positive"},
		{"tolerance one rejected", 1000, 1000, 1, 1, "outside"},
		{"negative tolerance rejected", 1000, 1000, -0.1, 1, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareThroughput(tc.baseline, tc.fresh, tc.tol, tc.calib)
			checkVerdict(t, err, tc.wantErr)
		})
	}
}

func TestMachineCalibration(t *testing.T) {
	if got := machineCalibration(1000, 600); got != 0.6 {
		t.Errorf("calibration = %v, want 0.6", got)
	}
	// Missing or corrupt reference measurements disable the correction
	// instead of producing a nonsense factor.
	for _, pair := range [][2]float64{{0, 600}, {1000, 0}, {-1, 600}} {
		if got := machineCalibration(pair[0], pair[1]); got != 1 {
			t.Errorf("calibration(%v, %v) = %v, want 1", pair[0], pair[1], got)
		}
	}
}

func TestCompareLatency(t *testing.T) {
	cases := []struct {
		name                string
		base, fresh, factor float64
		wantErr             string
	}{
		{"faster passes", 5, 1, 4, ""},
		{"equal passes", 5, 5, 4, ""},
		{"at the ceiling passes", 5, 20, 4, ""},
		{"above the ceiling fails", 5, 20.01, 4, "regression"},
		{"factor one is strict", 5, 5.01, 1, "regression"},
		{"corrupt baseline fails loudly", 0, 1, 4, "not positive"},
		{"factor below one rejected", 5, 1, 0.5, "below 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareLatency("op", tc.base, tc.fresh, tc.factor)
			checkVerdict(t, err, tc.wantErr)
		})
	}
}

func TestCompareSweepRatio(t *testing.T) {
	cases := []struct {
		name                         string
		baseline, fresh, target, tol float64
		wantErr                      string
	}{
		{"exactly at baseline", 32, 32, 2, 0.25, ""},
		{"improvement passes", 32, 40, 2, 0.25, ""},
		{"within tolerance", 32, 24.5, 2, 0.25, ""},
		{"at the floor passes", 32, 24, 2, 0.25, ""},
		{"below the floor fails", 32, 23.9, 2, 0.25, "regression"},
		{"hard target dominates", 2.1, 1.9, 2, 0.25, "hard target"},
		{"barely over target but far under baseline", 32, 2.5, 2, 0.25, "regression"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareSweepRatio(tc.baseline, tc.fresh, tc.target, tc.tol)
			checkVerdict(t, err, tc.wantErr)
		})
	}
}

func TestCompareEstimateDelta(t *testing.T) {
	if err := compareEstimateDelta(0, 1e-3); err != nil {
		t.Errorf("zero delta failed: %v", err)
	}
	if err := compareEstimateDelta(1e-3, 1e-3); err != nil {
		t.Errorf("delta at epsilon failed: %v", err)
	}
	if err := compareEstimateDelta(1.1e-3, 1e-3); err == nil {
		t.Error("delta above epsilon passed")
	}
}

func checkVerdict(t *testing.T, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Fatalf("unexpected failure: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("expected error containing %q, got pass", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestBaselineParsing checks the schema subset against miniature baseline
// files, including the highest-client-count fallback.
func TestBaselineParsing(t *testing.T) {
	dir := t.TempDir()
	pr2Path := filepath.Join(dir, "pr2.json")
	pr3Path := filepath.Join(dir, "pr3.json")
	writeFile(t, pr2Path, `{
	  "gomaxprocs": 1,
	  "engines": [
	    {"oracle": "legacy", "runs": [{"clients": 16, "queries_per_s": 5000}]},
	    {"oracle": "sharded", "runs": [
	      {"clients": 1, "queries_per_s": 21000},
	      {"clients": 16, "queries_per_s": 22500}
	    ]}
	  ]
	}`)
	writeFile(t, pr3Path, `{"ops": [
	  {"op": "snapshot_save", "mean_ms": 5.0},
	  {"op": "hot_swap_prewarm1", "mean_ms": 0.015}
	]}`)

	pr2, err := loadReport[qpsReport](pr2Path)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := pr2.engineQPS("sharded", 16); err != nil || v != 22500 {
		t.Errorf("engineQPS sharded 16 = %v, %v; want 22500", v, err)
	}
	// Exact client count absent → fall back to the highest recorded sweep
	// point, never to the legacy engine.
	if v, err := pr2.engineQPS("sharded", 64); err != nil || v != 22500 {
		t.Errorf("engineQPS sharded 64 fallback = %v, %v; want 22500", v, err)
	}

	pr3, err := loadReport[lifecycleReport](pr3Path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pr3.meanMS("snapshot_save"); !ok || v != 5.0 {
		t.Errorf("meanMS(snapshot_save) = %v, %v", v, ok)
	}
	if _, ok := pr3.meanMS("missing_op"); ok {
		t.Error("meanMS should miss on unknown ops")
	}

	// No sharded engine at all must be an error, not a silent zero.
	writeFile(t, pr2Path, `{"engines": [{"oracle": "legacy", "runs": [{"clients": 16, "queries_per_s": 5000}]}]}`)
	pr2, err = loadReport[qpsReport](pr2Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr2.engineQPS("sharded", 16); err == nil {
		t.Error("baseline without sharded runs should error")
	}
}

// TestCheckedInBaselinesParse guards the real baseline files in the repo
// root: -check must always be able to read what -record writes.
func TestCheckedInBaselinesParse(t *testing.T) {
	pr2, err := loadReport[qpsReport]("../../BENCH_PR2.json")
	if err != nil {
		t.Fatalf("BENCH_PR2.json: %v", err)
	}
	if v, err := pr2.engineQPS("sharded", 16); err != nil || v <= 0 {
		t.Errorf("checked-in sharded qps = %v, %v", v, err)
	}
	pr3, err := loadReport[lifecycleReport]("../../BENCH_PR3.json")
	if err != nil {
		t.Fatalf("BENCH_PR3.json: %v", err)
	}
	for _, op := range []string{"snapshot_save", "snapshot_load", "hot_swap_prewarm1"} {
		if v, ok := pr3.meanMS(op); !ok || v <= 0 {
			t.Errorf("checked-in baseline op %s = %v, %v", op, v, ok)
		}
	}
	pr5, err := loadReport[batchReport]("../../BENCH_PR5.json")
	if err != nil {
		t.Fatalf("BENCH_PR5.json: %v", err)
	}
	if pr5.SweepRatio < pr5.SweepRatioTarget {
		t.Errorf("checked-in sweep ratio %.2f below its own target %.2f",
			pr5.SweepRatio, pr5.SweepRatioTarget)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
