package experiments

import (
	"strings"
	"testing"

	"repro/internal/stattest"
)

// calibEnv builds the Small environment the calibration goldens run on.
func calibEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(Small())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

var (
	goldenDensities = []int{4, 8, 16}
	goldenLevels    = []float64{0.5, 0.8, 0.9, 0.95}
	goldenSlots     = 6
)

// TestCalibrationCoverageGolden is the PR's core honesty claim, pinned as a
// table-driven test: at the 90% serving level the full tier's empirical
// coverage sits within the binomial tolerance band of nominal, and every
// degraded tier is conservative — coverage ≥ nominal — at EVERY recorded
// level and density. The run is fully seeded, so these are exact
// regressions, not statistical hopes.
func TestCalibrationCoverageGolden(t *testing.T) {
	env := calibEnv(t)
	res, err := CalibrationAblation(env, goldenDensities, goldenLevels, goldenSlots)
	if err != nil {
		t.Fatal(err)
	}
	if res.SDScale <= 1 || res.PriorScale <= 1 {
		t.Fatalf("calibration scales not inflationary: sd %v prior %v — the raw posterior "+
			"was overconfident in every probe of this dataset", res.SDScale, res.PriorScale)
	}
	if want := len(goldenDensities) * len(calibTiers) * len(goldenLevels); len(res.Cells) != want {
		t.Fatalf("%d cells, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		switch c.Tier {
		case "full":
			if c.Level == 0.9 {
				if err := stattest.CheckCoverage(c.Coverage, c.Level, c.N, false); err != nil {
					t.Errorf("full tier at %d probes: %v", c.Probes, err)
				}
			}
		default:
			if c.Coverage < c.Level {
				t.Errorf("degraded tier %s at %d probes, level %.2f: coverage %.4f under nominal",
					c.Tier, c.Probes, c.Level, c.Coverage)
			}
		}
		if c.N == 0 || c.MeanWidth <= 0 {
			t.Errorf("cell %d/%s/%.2f: n=%d width=%v", c.Probes, c.Tier, c.Level, c.N, c.MeanWidth)
		}
	}
}

// TestCalibrationWidthMonotoneInTier: within every (density, level) cell the
// mean interval width widens with tier degradation — batched and cached pay
// for what they dropped; full is always the tightest honest answer.
func TestCalibrationWidthMonotoneInTier(t *testing.T) {
	env := calibEnv(t)
	res, err := CalibrationAblation(env, goldenDensities, goldenLevels, goldenSlots)
	if err != nil {
		t.Fatal(err)
	}
	width := map[[2]int]map[string]float64{}
	for _, c := range res.Cells {
		k := [2]int{c.Probes, int(c.Level * 100)}
		if width[k] == nil {
			width[k] = map[string]float64{}
		}
		width[k][c.Tier] = c.MeanWidth
	}
	for k, w := range width {
		if w["batched"] < w["full"] {
			t.Errorf("cell %v: batched width %.3f < full %.3f", k, w["batched"], w["full"])
		}
		if w["cached"] < w["full"] {
			t.Errorf("cell %v: cached width %.3f < full %.3f", k, w["cached"], w["full"])
		}
	}
}

// TestFitScalesDeterministic: the conformal fits are pure functions of the
// seeded environment.
func TestFitScalesDeterministic(t *testing.T) {
	a, err := FitSDScale(calibEnv(t), goldenDensities, goldenSlots)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitSDScale(calibEnv(t), goldenDensities, goldenSlots)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("FitSDScale not deterministic: %v vs %v", a, b)
	}
	pa, err := FitPriorScale(calibEnv(t), goldenSlots)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := FitPriorScale(calibEnv(t), goldenSlots)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("FitPriorScale not deterministic: %v vs %v", pa, pb)
	}
}

// TestCalibrationRestoresSystemState: the ablation installs noise and scales
// for its sweep but must leave the shared System untouched — rtsebench -check runs
// other gates on the same Env afterwards.
func TestCalibrationRestoresSystemState(t *testing.T) {
	env := calibEnv(t)
	if _, err := CalibrationAblation(env, []int{4}, []float64{0.9}, 2); err != nil {
		t.Fatal(err)
	}
	if env.Sys.ObsNoise() != nil {
		t.Error("obs-noise vector left installed")
	}
	if env.Sys.SDScale() != 0 || env.Sys.PriorScale() != 0 {
		t.Errorf("calibration scales left installed: sd %v prior %v", env.Sys.SDScale(), env.Sys.PriorScale())
	}
}

// TestVarMinAblationGolden: the variance-minimizing objective never does
// worse than the correlation objective on realized posterior variance at
// equal budget, and strictly beats it in total — the acceptance claim.
func TestVarMinAblationGolden(t *testing.T) {
	env := calibEnv(t)
	rows, err := VarMinAblation(env, []int{3, 5, 8}, 0.92)
	if err != nil {
		t.Fatal(err)
	}
	var hv, vv float64
	for _, r := range rows {
		if r.VarMinVar > r.HybridVar {
			t.Errorf("budget %d: varmin Σ SD² %.4f worse than correlation's %.4f",
				r.Budget, r.VarMinVar, r.HybridVar)
		}
		hv += r.HybridVar
		vv += r.VarMinVar
	}
	if vv >= hv {
		t.Fatalf("varmin total Σ SD² %.4f does not beat correlation's %.4f", vv, hv)
	}
}

// TestCalibrationValidation: bad sweep parameters are rejected.
func TestCalibrationValidation(t *testing.T) {
	env := calibEnv(t)
	cases := []struct {
		densities []int
		levels    []float64
		slots     int
		want      string
	}{
		{[]int{4}, []float64{0.9}, 1, "slots"},
		{[]int{0}, []float64{0.9}, 2, "density"},
		{[]int{4}, []float64{1.5}, 2, "level"},
		{nil, []float64{0.9}, 2, "density"},
	}
	for _, c := range cases {
		if _, err := CalibrationAblation(env, c.densities, c.levels, c.slots); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("densities=%v levels=%v slots=%d: error %v, want mention of %q",
				c.densities, c.levels, c.slots, err, c.want)
		}
	}
}
