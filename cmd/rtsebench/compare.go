package main

import "fmt"

// compareThroughput applies the regression gate for queries/s: fresh must
// stay at or above baseline*(1-tol)*calibration. tol is a fraction in [0,1);
// a tol of 0.25 tolerates a 25% loss. Improvements always pass.
//
// calibration corrects for the machine, not the code: it is the ratio of a
// reference workload's fresh throughput to its recorded baseline (see
// machineCalibration), clamped to ≤1 so a faster box never loosens the gate.
// A box running at 60% of the baseline machine's speed slows the reference
// and the gated engine alike, so the floor scales down with it — while a
// change that serializes only the gated hot path leaves the reference
// untouched and still trips the gate. Pass 1 for an uncalibrated comparison.
//
// A non-positive baseline cannot gate anything and is reported as an error so
// a corrupt baseline file fails loudly instead of waving regressions through.
func compareThroughput(baseline, fresh, tol, calibration float64) error {
	if baseline <= 0 {
		return fmt.Errorf("throughput baseline %.3f is not positive — baseline file corrupt?", baseline)
	}
	if tol < 0 || tol >= 1 {
		return fmt.Errorf("throughput tolerance %.3f outside [0,1)", tol)
	}
	if calibration <= 0 {
		return fmt.Errorf("machine calibration %.3f is not positive", calibration)
	}
	if calibration > 1 {
		calibration = 1
	}
	floor := baseline * (1 - tol) * calibration
	if fresh < floor {
		return fmt.Errorf("throughput regression: fresh %.0f q/s below floor %.0f (baseline %.0f, tol %.0f%%, machine calibration %.2f)",
			fresh, floor, baseline, tol*100, calibration)
	}
	return nil
}

// machineCalibration turns a reference-workload measurement pair into the
// calibration factor for compareThroughput. The reference should be a
// workload recorded in the same baseline file but untouched by the change
// under test (the qps suite uses the legacy-oracle engine). Returns 1 (no
// correction) when either number is missing or non-positive.
func machineCalibration(baselineRef, freshRef float64) float64 {
	if baselineRef <= 0 || freshRef <= 0 {
		return 1
	}
	return freshRef / baselineRef
}

// compareLatency applies the (loose) latency gate: fresh mean must stay
// within factor× the recorded mean. factor must be ≥ 1 — a factor below 1
// would fail runs that got faster.
func compareLatency(op string, baselineMS, freshMS, factor float64) error {
	if baselineMS <= 0 {
		return fmt.Errorf("%s: latency baseline %.3f ms is not positive — baseline file corrupt?", op, baselineMS)
	}
	if factor < 1 {
		return fmt.Errorf("%s: latency factor %.2f below 1", op, factor)
	}
	ceiling := baselineMS * factor
	if freshMS > ceiling {
		return fmt.Errorf("latency regression: %s fresh %.3f ms above ceiling %.3f (baseline %.3f, factor %.1f×)",
			op, freshMS, ceiling, baselineMS, factor)
	}
	return nil
}

// compareSweepRatio gates the fresh coalescing ratio: it must clear the
// recorded hard target and stay within a fractional tolerance of the recorded
// ratio (a tree that still coalesces but amortizes far less has regressed the
// warm-start/coalescing machinery even if it limps over the 2× bar).
func compareSweepRatio(baseline, fresh, target, tol float64) error {
	if fresh < target {
		return fmt.Errorf("sweep-ratio regression: fresh %.2f× below the hard target %.2f×", fresh, target)
	}
	if floor := baseline * (1 - tol); fresh < floor {
		return fmt.Errorf("sweep-ratio regression: fresh %.2f× below floor %.2f× (baseline %.2f×, tol %.0f%%)",
			fresh, floor, baseline, tol*100)
	}
	return nil
}

// compareEstimateDelta gates equivalence: coalesced answers must match the
// independent answers within the convergence epsilon.
func compareEstimateDelta(maxDelta, epsilon float64) error {
	if maxDelta > epsilon {
		return fmt.Errorf("coalesced estimates diverge: max delta %.3e exceeds epsilon %.0e", maxDelta, epsilon)
	}
	return nil
}
