// Package stattest provides the small statistical toolbox behind PR 9's
// calibration layer: Gaussian quantiles/CDF for credible intervals and alert
// predicates, and binomial tolerance bands for "a 90% interval covers ~90%"
// assertions that are real tests instead of eyeballed tables.
//
// Everything is dependency-free (math.Erf / math.Erfinv) and deterministic,
// so the same helpers back the server's interval math, the experiments'
// CalibrationAblation, the rtsebench calib gate and the golden tests.
package stattest

import (
	"fmt"
	"math"
)

// NormalQuantile returns the standard-normal quantile z with Φ(z) = p.
// p must lie in (0, 1).
func NormalQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// NormalCDF is Φ(z), the standard normal CDF.
func NormalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// IntervalZ returns the two-sided z multiplier of a central credible interval
// at the given level: P(|Z| ≤ z) = level. level must lie in (0, 1).
func IntervalZ(level float64) float64 {
	return math.Sqrt2 * math.Erfinv(level)
}

// Interval returns the central credible interval [lo, hi] of a Gaussian
// posterior N(mean, sd²) at the given level. A zero (or negative) sd
// degenerates to [mean, mean] — the posterior is a point mass.
func Interval(mean, sd, level float64) (lo, hi float64) {
	if sd <= 0 {
		return mean, mean
	}
	h := IntervalZ(level) * sd
	return mean - h, mean + h
}

// ExceedProb returns P(X < threshold) for X ~ N(mean, sd²) — the posterior
// probability behind "speed < 20 with ≥90% confidence" alert predicates.
// With sd ≤ 0 the posterior is a point mass: the probability is 1 when the
// mean is strictly below the threshold and 0 otherwise.
func ExceedProb(mean, sd, threshold float64) float64 {
	if sd <= 0 {
		if mean < threshold {
			return 1
		}
		return 0
	}
	return NormalCDF((threshold - mean) / sd)
}

// BinomialBand is the half-width of the sampling band of an empirical
// coverage estimate: z·√(p(1−p)/n) for n independent indicator draws at
// success probability p. With n ≤ 0 the band is degenerate (+Inf) so a gate
// over an empty sample never claims precision it doesn't have.
func BinomialBand(n int, p, z float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return z * math.Sqrt(p*(1-p)/float64(n))
}

// DefaultBandZ is the z used for the coverage gates: ±3 standard errors
// (~99.7% of honest runs pass), wide enough that a seeded deterministic
// experiment never flakes, tight enough that a mis-calibrated tier fails.
const DefaultBandZ = 3.0

// Coverage counts the fraction of (truth, lo, hi) triples with
// lo ≤ truth ≤ hi. The three slices must have equal length.
func Coverage(truth, lo, hi []float64) (float64, error) {
	if len(truth) != len(lo) || len(truth) != len(hi) {
		return 0, fmt.Errorf("stattest: coverage over mismatched slices (%d truth, %d lo, %d hi)",
			len(truth), len(lo), len(hi))
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("stattest: coverage over empty sample")
	}
	hit := 0
	for i, t := range truth {
		if lo[i] <= t && t <= hi[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth)), nil
}

// CheckCoverage asserts an empirical coverage against its nominal level with
// a binomial tolerance band of DefaultBandZ standard errors over n samples.
// conservativeOK relaxes the upper side: over-coverage passes (the check for
// degraded tiers, whose inflated intervals are allowed — expected — to be
// wider than necessary). The returned error describes the violation.
func CheckCoverage(coverage, nominal float64, n int, conservativeOK bool) error {
	band := BinomialBand(n, nominal, DefaultBandZ)
	if coverage < nominal-band {
		return fmt.Errorf("stattest: coverage %.4f under-covers nominal %.2f by more than the band ±%.4f (n=%d)",
			coverage, nominal, band, n)
	}
	if !conservativeOK && coverage > nominal+band {
		return fmt.Errorf("stattest: coverage %.4f over-covers nominal %.2f by more than the band ±%.4f (n=%d)",
			coverage, nominal, band, n)
	}
	return nil
}
