package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/loadbench"
)

// baselineCase checks one suite's recorded-baseline predicate against the
// checked-in file: the file must pass, and a copy with its headline number
// degraded must not.
func baselineCase[R, S any](s *suite[R, S], degrade func(*R)) func(*testing.T) {
	return func(t *testing.T) {
		base, err := loadReport[R]("../../" + s.file)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.pass(nil, base, io.Discard); err != nil {
			t.Fatalf("checked-in %s rejected: %v", s.file, err)
		}
		degrade(base)
		if err := s.pass(nil, base, io.Discard); err == nil {
			t.Fatalf("degraded %s accepted", s.file)
		}
	}
}

// TestRecordedBaselinePredicates drives every registry entry's pass
// predicate over its checked-in BENCH file and a degraded copy, so each gate
// is shown to be able to fail.
func TestRecordedBaselinePredicates(t *testing.T) {
	cases := map[string]func(*testing.T){
		"qps": baselineCase(qpsSuite, func(r *qpsReport) {
			for i := range r.Engines {
				if r.Engines[i].Oracle == "sharded" {
					for j := range r.Engines[i].Runs {
						r.Engines[i].Runs[j].QueriesPS = 0
					}
				}
			}
		}),
		"lifecycle": baselineCase(lifecycleSuite, func(r *lifecycleReport) {
			r.Ops[0].MeanMS = 0
		}),
		"batch": baselineCase(batchSuite, func(r *batchReport) {
			r.SweepRatio = r.SweepRatioTarget * 0.9
		}),
		"load": baselineCase(loadSuite, func(r *loadbench.Report) {
			alerting := r.Classes["alerting"]
			alerting.Shed = 1
			r.Classes["alerting"] = alerting
		}),
		"metro": baselineCase(metroSuite, func(r *metroReport) {
			r.E2E.MaxSeconds = r.E2E.BudgetSeconds + 0.5
		}),
		"temporal": baselineCase(temporalSuite, func(r *temporalReport) {
			r.Ablation[0].FilterMAPE = r.Ablation[0].GSPMAPE
		}),
		"calib-coverage": baselineCase(calibSuite, func(r *calibReport) {
			for i, c := range r.Cells {
				if c.Tier == "full" && c.Level == servingLevel {
					r.Cells[i].Coverage = 0.5
					return
				}
			}
			t.Fatal("no full-tier cell at the serving level")
		}),
		"calib-varmin": baselineCase(calibSuite, func(r *calibReport) {
			r.VarMin[0].VarMinVar = r.VarMin[0].HybridVar + 1
		}),
		"route": baselineCase(routeSuite, func(r *routeReport) {
			r.RouteOCS[0].RouteVarVar = r.RouteOCS[0].HybridVar
		}),
	}
	for name, tc := range cases {
		t.Run(name, tc)
	}
	// Every registry entry has at least one case.
	for _, s := range suites {
		covered := false
		for name := range cases {
			if id, _, _ := strings.Cut(name, "-"); id == s.id() {
				covered = true
			}
		}
		if !covered {
			t.Errorf("suite %s has no degraded-baseline case", s.id())
		}
	}
}
