package main

import (
	"encoding/json"
	"runtime"
	"strconv"
	"time"
)

// The host's speed is not the program's. On a shared VM, the same
// sequential estimate takes 0.10 ms for a few seconds and 0.17 ms for the
// next few, and the slow and fast stretches last from seconds to minutes,
// so two runs of the same code a few minutes apart differ by a third. A run
// therefore times a fixed reference workload, owned by the benchmark and
// untouched by any change to the program, between its measured stretches,
// and reports every timing at a reference speed: the time as measured,
// scaled by refNominal over the reference's time around it. A swing of the
// host moves the reference and the program alike and cancels; a change to
// the program moves only the program and shows in full.

// refNominal is the reference speed: the reference workload's time, in ms,
// that every timing is scaled to. It sets the units only.
const refNominal = 4.0

// The reference workload resembles what serving does: JSON round trips of
// an estimate-sized answer, and a sparse gather over a few megabytes, like a
// propagation sweep. One pass takes about a millisecond; a reading is the
// median of refPasses passes, taken after a collection so that no
// concurrent marking of the program's heap runs during it.
const (
	refRows   = 1 << 17
	refDegree = 3
	refDocs   = 64
	refPasses = 5
)

type reference struct {
	idx  []int32
	x, y []float64
	doc  map[string]float64
	sink float64
	// readings keeps every reading, for the traced run's host.ref_ms.
	readings []float64
	last     float64
	spent    time.Duration // in reads, which no phase counts as serving
}

func newReference() *reference {
	r := newPRNG(0x5eed)
	ref := &reference{
		idx: make([]int32, refDegree*refRows),
		x:   make([]float64, refRows),
		y:   make([]float64, refRows),
		doc: make(map[string]float64, querySize),
	}
	for i := range ref.idx {
		ref.idx[i] = int32(r.intn(refRows))
	}
	for i := range ref.x {
		ref.x[i] = 1 + r.float64()
	}
	for len(ref.doc) < querySize {
		ref.doc[strconv.Itoa(r.intn(100_000))] = 20 + 60*r.float64()
	}
	ref.last = ref.read()
	return ref
}

// pass runs the reference workload once and returns its time in ms.
func (ref *reference) pass() float64 {
	t0 := time.Now()
	for i := range ref.y {
		j := refDegree * i
		ref.y[i] = 0.5*ref.y[i] + (ref.x[ref.idx[j]]+ref.x[ref.idx[j+1]]+ref.x[ref.idx[j+2]])/6
	}
	ref.x, ref.y = ref.y, ref.x
	for k := 0; k < refDocs; k++ {
		data, _ := json.Marshal(ref.doc)
		var back map[string]float64
		_ = json.Unmarshal(data, &back)
		ref.sink += float64(len(back))
	}
	ref.sink += ref.x[0]
	return float64(time.Since(t0)) / 1e6
}

// read takes one reading of the reference's time, in ms.
func (ref *reference) read() float64 {
	t0 := time.Now()
	defer func() { ref.spent += time.Since(t0) }()
	runtime.GC()
	xs := make([]float64, refPasses)
	for i := range xs {
		xs[i] = ref.pass()
	}
	v := median(xs)
	ref.readings = append(ref.readings, v)
	return v
}

// lap closes a measured stretch: it reads the reference and returns the
// factor that scales the stretch's times to the reference speed, from the
// readings on either side of it. Callers lap only while no request is in
// flight.
func (ref *reference) lap() float64 {
	now := ref.read()
	f := refNominal / ((ref.last + now) / 2)
	ref.last = now
	return f
}

// scale multiplies every value in xs by f.
func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}
