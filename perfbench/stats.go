package main

import (
	"math"
	"sort"
)

// tailGrid is the set of percentiles a tail may be reported at, highest
// first. The tail of a sample is the highest of them with at least
// minBeyond samples above it.
var tailGrid = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

const minBeyond = 10

// tailLevel returns the percentile a sample of n values reports its tail
// at. It depends on n alone, and the open loop sends a fixed number of each
// request kind, so one workload always reports the same percentile.
func tailLevel(n int) float64 {
	for _, q := range tailGrid {
		if float64(n)*(1-q) >= minBeyond {
			return q
		}
	}
	return tailGrid[len(tailGrid)-1]
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summary is a latency sample's median and tail.
type summary struct {
	n      int
	p50    float64
	tail   float64
	tailAt float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailLevel(len(s))
	return summary{n: len(s), p50: quantile(s, 0.5), tail: quantile(s, q), tailAt: q}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
