// The load suite (BENCH_PR6.json): the admission-control harness. It replays
// a diurnal demand curve (internal/loadbench — demand derived from the
// speedgen congestion profile, peak concurrency a calibrated multiple of the
// server's admission capacity) against a live server with multi-tenant QoS
// enabled, and records what the ladder did: per-class shed rates, served
// tiers, latency quantiles, and the recovery check.
//
// The gate fails when the ladder's promises regress:
//
//   - any alerting-class request shed (hard invariant, no tolerance)
//   - the class order broken (batch must degrade at least as hard as
//     interactive, and actually shed at the surge)
//   - batch shed rate at the calibrated surge above the pinned ceiling
//     recorded in the baseline
//   - alerting-class p99 latency beyond baseline × (1 + p99Tol) + a small
//     absolute slack (single-digit-millisecond latencies are noisy)
//   - no recovery to the full tier after the surge drains
package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/loadbench"
)

// p99SlackMS is the absolute slack added to the alerting p99 ceiling: the
// replay's latencies sit on the emulated service floor (~10ms), so a couple
// of milliseconds of scheduler noise is expected on a shared box and must not
// read as a regression.
const p99SlackMS = 5.0

var loadSuite = &suite[loadbench.Report, loadbench.Options]{
	name: "load",
	file: "BENCH_PR6.json",
	full: loadbench.Options{Steps: 16, MaxInFlight: 8, SurgeMultiple: 3},
	// Shortened curve: same shape, CI-friendly runtime.
	fresh:    loadbench.Options{Steps: 8, MaxInFlight: 8, SurgeMultiple: 3},
	attempts: 3,
	drive:    driveLoad,
	pass:     passLoad,
}

// driveLoad runs one replay.
func driveLoad(_ *fixture, opt loadbench.Options, w io.Writer) (*loadbench.Report, error) {
	rep, err := loadbench.Run(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "load: %d diurnal steps, offered in-flight %.1f..%.1f vs MaxInFlight %d (%d surge steps, service %.2fms)\n",
		rep.Steps, rep.TroughOffered, rep.PeakOffered, rep.MaxInFlight, rep.SurgeSteps, rep.CalibratedLatencyMS)
	classes := make([]string, 0, len(rep.Classes))
	for c := range rep.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		cs := rep.Classes[c]
		fmt.Fprintf(w, "load: %-11s sent=%-4d admitted=%-4d shed=%-3d (%.0f%%)  p50 %.1fms p99 %.1fms  tiers %v\n",
			c, cs.Sent, cs.Admitted, cs.Shed, 100*cs.ShedRate, cs.P50MS, cs.P99MS, cs.Tiers)
	}
	fmt.Fprintf(w, "load: surge shed %v  surge degraded %v\n",
		fmtRates(rep.SurgeShedRate), fmtRates(rep.SurgeDegradedRate))
	fmt.Fprintf(w, "load: batch surge shed rate %.2f (ceiling %.2f)  class order ok=%v  recovered=%v\n",
		rep.BatchSurgeShedRate, rep.ShedCeiling, rep.ClassOrderOK, rep.RecoveredFullTier)
	return rep, nil
}

// fmtRates renders a class→rate map in stable class order.
func fmtRates(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.2f", k, m[k]))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// passLoad enforces the ladder gates; the p99 and shed ceilings come from
// the baseline (for a record, from the run itself).
func passLoad(base, run *loadbench.Report, w io.Writer) error {
	ref := base
	if ref == nil {
		ref = run
	}
	say := func(format string, args ...any) {
		if base != nil {
			fmt.Fprintf(w, "rtsebench: "+format+"\n", args...)
		}
	}

	alerting := run.Classes["alerting"]
	if alerting.Shed != 0 {
		return fmt.Errorf("load gate: %d alerting-class requests shed — the ladder must never shed alerting", alerting.Shed)
	}
	say("load alerting shed 0/%d — ok", alerting.Sent)

	if !run.ClassOrderOK {
		return fmt.Errorf("load gate: class order violated (surge shed %v, degraded %v)",
			run.SurgeShedRate, run.SurgeDegradedRate)
	}
	say("load class order (batch ≥ interactive degraded, batch shed at surge) — ok")

	verdict := run.BatchSurgeShedRate <= ref.ShedCeiling
	say("load batch surge shed rate %.2f, ceiling %.2f — %s", run.BatchSurgeShedRate, ref.ShedCeiling, passFail(verdict))
	if !verdict {
		return fmt.Errorf("load gate: batch surge shed rate %.2f above pinned ceiling %.2f — the cheaper tiers stopped absorbing load",
			run.BatchSurgeShedRate, ref.ShedCeiling)
	}

	baseP99 := ref.Classes["alerting"].P99MS
	ceiling := baseP99*(1+p99Tol) + p99SlackMS
	verdict = alerting.P99MS <= ceiling
	say("load alerting p99 baseline %.1f ms, fresh %.1f ms, ceiling %.1f ms — %s", baseP99, alerting.P99MS, ceiling, passFail(verdict))
	if !verdict {
		return fmt.Errorf("load gate: alerting p99 %.1f ms beyond %.1f ms (baseline %.1f ms + %.0f%% + %.0f ms slack)",
			alerting.P99MS, ceiling, baseP99, 100*p99Tol, p99SlackMS)
	}

	if !run.RecoveredFullTier {
		return fmt.Errorf("load gate: post-surge request not served at the full tier — the ladder did not recover")
	}
	say("load post-surge recovery to full tier — ok")
	return nil
}
