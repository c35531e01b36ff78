package corr

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/rtf"
)

// MutexOracle is the pre-PR-2 correlation oracle: one global mutex over a
// map[int][]float64 row cache. It is retained deliberately as the baseline
// of the perf trajectory — BenchmarkConcurrentQueries and `rtsebench -record qps`
// run it head-to-head against the sharded Oracle so every future PR can
// quantify its concurrency gains against the same reference point.
//
// Known (preserved) weaknesses, the motivation for the sharded rewrite:
//
//   - every lookup, hit or miss, serializes on the global mutex;
//   - the check-compute-store miss path races benignly: two goroutines
//     missing the same row both run the Dijkstra and the second store wins
//     (the rows are identical, so only work is wasted, never correctness).
//
// Do not use it in production paths.
type MutexOracle struct {
	g    *graph.Graph
	view rtf.View
	tf   Transform

	mu     sync.Mutex
	rows   map[int][]float64
	hits   uint64
	misses uint64
}

// NewMutexOracle builds the legacy global-mutex oracle over the topology g
// and slot parameters view.
func NewMutexOracle(g *graph.Graph, view rtf.View, tf Transform) *MutexOracle {
	return &MutexOracle{g: g, view: view, tf: tf, rows: make(map[int][]float64)}
}

// CorrRow returns corr^t(src, j) for every road j, mirroring the pre-PR-2
// check-compute-store sequence (including its duplicated work under
// concurrent misses).
func (o *MutexOracle) CorrRow(src int) []float64 {
	if src < 0 || src >= o.g.N() {
		panic(fmt.Sprintf("corr: source road %d out of range [0,%d)", src, o.g.N()))
	}
	o.mu.Lock()
	if row, ok := o.rows[src]; ok {
		o.hits++
		o.mu.Unlock()
		return row
	}
	o.mu.Unlock()

	row := computeRow(o.g, o.view, o.tf, src)

	o.mu.Lock()
	o.misses++
	o.rows[src] = row
	o.mu.Unlock()
	return row
}

// Corr returns corr^t(i, j).
func (o *MutexOracle) Corr(i, j int) float64 {
	if i == j {
		return 1
	}
	return o.CorrRow(i)[j]
}

// RoadSetCorr is Eq. (11).
func (o *MutexOracle) RoadSetCorr(i int, set []int) float64 { return roadSetCorr(o, i, set) }

// SetSetCorr is Eq. (12).
func (o *MutexOracle) SetSetCorr(query, set []int) float64 { return setSetCorr(o, query, set) }

// WeightedCorr is Eq. (13).
func (o *MutexOracle) WeightedCorr(query []int, sigma []float64, set []int) float64 {
	return weightedCorr(o, query, sigma, set)
}

// BuildTable precomputes the correlation rows for every query road.
func (o *MutexOracle) BuildTable(query []int) *Table { return buildTable(o, query) }

// Warm is a no-op: the pre-PR-2 oracle had no precompute path, and the
// baseline must keep its original behavior to stay comparable.
func (o *MutexOracle) Warm(roads []int) {}

// Stats reports the legacy cache counters. Misses counts row stores, so
// duplicated concurrent computations are visible as Misses exceeding
// ResidentRows.
func (o *MutexOracle) Stats() CacheStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	var bytes int64
	for _, row := range o.rows {
		bytes += int64(len(row))*8 + rowOverheadBytes
	}
	return CacheStats{
		Hits:          o.hits,
		Misses:        o.misses,
		ResidentRows:  len(o.rows),
		ResidentBytes: bytes,
	}
}

// Compile-time interface checks: both engines serve the same Source.
var (
	_ Source = (*Oracle)(nil)
	_ Source = (*MutexOracle)(nil)
)
