package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// op is one step of a workload's traffic. A step is what the open loop
// schedules: usually one request, for opCrowd the paper's whole loop.
type op uint8

const (
	opEstimate  op = iota // POST /v1/estimate for a query set
	opDashboard           // POST /v1/estimate for every road
	opReport              // POST /v1/report from the truth plus noise
	opSelect              // POST /v1/select
	opRoute               // POST /v1/route for an OD pair that fits the horizon
	opCrowd               // select, one report per selected road, estimate
)

// kind is a request kind; each has its own latency metrics.
type kind int

const (
	kEstimate kind = iota
	kSelect
	kRoute
	kReport
	numKinds
)

var kindNames = [numKinds]string{"estimate", "select", "route", "report"}

// workload is one traffic mix against one network. The world (network,
// history, truth) is fixed per workload; the seed draws the request stream.
type workload struct {
	name string
	rate float64 // the traced run's open-loop steps per second
	// mix is one slot's steps; each slot sends them in a seeded order, so
	// every run of a given length sends the same number of each kind.
	mix []op
	// burstSlots is how many slots of steps make one open-loop burst, a
	// second or two of the schedule; the reference is read between bursts.
	burstSlots int
	// chunkSlots is how many slots of steps make one window of the serial
	// or closed loop, about a second of work; it divides a day. The capacity
	// metrics are medians over the windows, so a stretch of a slow host that
	// covers a minority of them does not move them.
	chunkSlots int
	// verifySlots is how many slots the verification pass scores.
	verifySlots int
	// selectProbe, when positive, takes the select metrics from this many
	// sequential selects, each on a cold slot of an idle instance, instead
	// of from the open loop. At metro scale a select costs more than a
	// hundred propagations' worth of queueing for the traffic behind it.
	selectProbe int
	build       func(sz size) (*world, error)
}

// size scales the worlds; the self-test runs reduced ones.
type size struct {
	cityRoads, cityDays, metroRoads int
}

var fullSize = size{cityRoads: 607, cityDays: 14, metroRoads: 100_000}

// Every workload queries sets of the paper's |R^q| = 33 roads, and selects
// with Hybrid-Greedy over small queries: a full 33-road, budget-30 select
// holds both cores for 7–10 ms at city scale and 0.7–1 s at metro scale,
// and everything behind it waits.
const (
	querySize    = 33
	selectSize   = 3
	selectBudget = 5
	selectTheta  = 0.92
)

func repeat(o op, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = o
	}
	return out
}

func concat(parts ...[]op) []op {
	var out []op
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var workloads = []*workload{
	{
		name: "city-live",
		rate: 400,
		mix: concat(repeat(opEstimate, 26), repeat(opDashboard, 1), repeat(opReport, 10),
			repeat(opRoute, 2), repeat(opCrowd, 1)),
		burstSlots:  10,
		chunkSlots:  48,
		verifySlots: 36,
		build:       buildCity,
	},
	{
		name:        "metro-route",
		rate:        10,
		mix:         concat(repeat(opRoute, 6), repeat(opEstimate, 3), repeat(opReport, 8)),
		selectProbe: 12,
		burstSlots:  1,
		chunkSlots:  4,
		verifySlots: 6,
		build:       buildMetro,
	},
}

func lookup(name string) (*workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// world is a workload's fixed environment: network, serving model, the
// generator's truth and the crowd.
type world struct {
	net   *network.Network
	model *rtf.Model
	truth func(t tslot.Slot, road int) float64
	// slowest is each road's lowest speed of the day, prior or truth: the
	// pessimistic field OD pairs are planned over.
	slowest []float64
	// workers are the roads with a registered worker.
	workers []int
	// districts partitions the road ids into contiguous blocks; a city
	// network is one district.
	districts [][2]int
}

const (
	cityNetSeed  = 1
	cityHistSeed = 2
	metroNetSeed = 7
	metroModSeed = 8
	metroWorkers = 2000
	metroCrowd   = 9
)

// buildCity trains the paper's network on all history days but the last,
// whose speeds are the truth the crowd reports and estimates are scored on.
func buildCity(sz size) (*world, error) {
	opt := network.DefaultHK(cityNetSeed)
	opt.Roads = sz.cityRoads
	net := network.Synthetic(opt)
	hist, err := speedgen.Generate(net, speedgen.Default(sz.cityDays, cityHistSeed))
	if err != nil {
		return nil, err
	}
	model := rtf.New(net)
	if err := rtf.FitMoments(model, hist.DayRange(0, sz.cityDays-1), 1); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	day := sz.cityDays - 1
	truth := func(t tslot.Slot, r int) float64 { return hist.At(day, t, r) }
	return &world{
		net:   net,
		model: model,
		truth: truth,
		// Every slot: the truth day's incidents last a few slots and drop
		// speeds to a few km/h.
		slowest:   slowestSpeeds(model, truth, net.N(), 1),
		workers:   crowd.PlaceEverywhere(net).Roads(),
		districts: [][2]int{{0, net.N()}},
	}, nil
}

// buildMetro synthesizes the metro and its model (no training). The truth
// is each road's profile speed scaled by a fixed per-road factor in
// [0.85, 1], so reports disagree with the prior.
func buildMetro(sz size) (*world, error) {
	net := network.Metro(network.MetroOptions{Roads: sz.metroRoads, Seed: metroNetSeed})
	model, profiles, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: metroModSeed})
	if err != nil {
		return nil, err
	}
	r := newPRNG(metroModSeed)
	factor := make([]float64, net.N())
	for i := range factor {
		factor[i] = 0.85 + 0.15*r.float64()
	}
	pool := crowd.PlaceUniform(net, metroWorkers, newStdRand(metroCrowd))
	truth := func(t tslot.Slot, road int) float64 { return profiles[road].Speed(t) * factor[road] }
	return &world{
		net:   net,
		model: model,
		truth: truth,
		// Every 6th slot: profiles are smooth and the truth has no incidents.
		slowest:   slowestSpeeds(model, truth, net.N(), 6),
		workers:   pool.Roads(),
		districts: metroDistricts(net),
	}, nil
}

// metroDistricts recovers the generator's district blocks from the road
// names ("D012-...") — each district's roads are contiguous ids.
func metroDistricts(net *network.Network) [][2]int {
	var out [][2]int
	prev := ""
	for i := 0; i < net.N(); i++ {
		d, _, _ := strings.Cut(net.Road(i).Name, "-")
		if d != prev {
			out = append(out, [2]int{i, i})
			prev = d
		}
		out[len(out)-1][1] = i + 1
	}
	return out
}

// traffic is a workload's seeded request stream over one world.
type traffic struct {
	w    *workload
	wd   *world
	seed int64
	// ods are OD pairs drawn at set-up whose trip fits the served
	// forecast horizon.
	ods [][2]int
}

// step is one scheduled unit of traffic, fully determined by (seed, index).
type step struct {
	slot  tslot.Slot
	op    op
	roads []int // estimate, select and crowd query set; nil: all roads
	road  int   // report
	speed float64
	src   int // route
	dst   int
	rng   prng // draws the crowd's report noise
}

// streamID separates the seeded draws of the phases that replay a stream.
type streamID int64

const (
	streamOpen streamID = iota + 1
	streamClosed
	streamVerify
)

// stepsPerDay is how many steps walk "now" through one day.
func (s *traffic) stepsPerDay() int { return len(s.w.mix) * tslot.PerDay }

// step returns step i of stream id: slot i/len(mix) of the walk from slot 0,
// with that slot's mix in a seeded order.
func (s *traffic) step(id streamID, i int) step {
	per := len(s.w.mix)
	slotIdx := i / per
	order := newPRNG(s.seed, int64(id), int64(slotIdx), 1)
	perm := order.perm(per)
	r := newPRNG(s.seed, int64(id), int64(i), 2)
	st := step{slot: tslot.Slot(slotIdx % tslot.PerDay), op: s.w.mix[perm[i%per]]}
	switch st.op {
	case opEstimate:
		st.roads = s.querySet(&r, querySize)
	case opSelect, opCrowd:
		st.roads = s.querySet(&r, selectSize)
	case opReport:
		lo, hi := s.district(&r)
		st.road = lo + r.intn(hi-lo)
		st.speed = s.report(&r, st.slot, st.road)
	case opRoute:
		od := s.ods[r.intn(len(s.ods))]
		st.src, st.dst = od[0], od[1]
	}
	st.rng = r
	return st
}

// probeSlot is the first slot of the select probe, past any slot the
// phases walk.
const probeSlot = 144

// probeStep is select i of the select probe, on a slot no request has
// touched.
func (s *traffic) probeStep(i int) step {
	r := newPRNG(s.seed, int64(i), 4)
	return step{slot: tslot.Slot(probeSlot + i), op: opSelect, roads: s.querySet(&r, selectSize)}
}

// district picks the block a step's roads come from.
func (s *traffic) district(r *prng) (lo, hi int) {
	d := s.wd.districts[r.intn(len(s.wd.districts))]
	return d[0], d[1]
}

func (s *traffic) querySet(r *prng, k int) []int {
	lo, hi := s.district(r)
	if k > hi-lo {
		k = hi - lo
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		road := lo + r.intn(hi-lo)
		if !seen[road] {
			seen[road] = true
			out = append(out, road)
		}
	}
	return out
}

// reportNoise is the relative SD of a crowd report around the truth.
// Reports stay below maxReportSpeed: the collector rejects anything above
// 160 km/h as implausible, and a workload must not fail by construction.
const (
	reportNoise    = 0.05
	maxReportSpeed = 155
)

func (s *traffic) report(r *prng, t tslot.Slot, road int) float64 {
	v := s.wd.truth(t, road) * (1 + reportNoise*r.norm())
	return math.Min(maxReportSpeed, math.Max(1, v))
}

// OD pairs: a trip must end before the default forecast horizon (3 slots
// past the departure slot, 20 minutes from its start) runs out, or the
// server answers 400. Each pair joins a road to one a short random walk
// away in its district, and is kept only if its trip over a pessimistic
// field — every road at maxTripSlowdown of its slowest speed of the day,
// prior or truth — takes at most maxTripMinutes and crosses at least
// minTripRoads roads. Served speeds would have to fall below a fifth of
// that slowest speed for such a trip to outrun the horizon.
const (
	numODs          = 64
	maxTripMinutes  = 10.0
	maxTripSlowdown = 0.4
	minTripRoads    = 3
	maxWalk         = 12
)

func (s *traffic) drawODs() error {
	net := s.wd.net
	field := func(_ tslot.Slot, road int) (router.SpeedDist, bool) {
		return router.SpeedDist{Mean: maxTripSlowdown * s.wd.slowest[road]}, true
	}
	r := newPRNG(s.seed, 0, 0, 3)
	for tries := 0; len(s.ods) < numODs; tries++ {
		if tries > 100*numODs {
			return fmt.Errorf("only %d of %d OD pairs fit the forecast horizon", len(s.ods), numODs)
		}
		lo, hi := s.district(&r)
		src := lo + r.intn(hi-lo)
		dst := src
		for k := minTripRoads + r.intn(maxWalk-minTripRoads); k > 0; k-- {
			nb := net.Neighbors(dst)
			dst = int(nb[r.intn(len(nb))])
		}
		if dst < lo || dst >= hi {
			continue
		}
		eta, err := router.PlanETA(net, field, 0, src, dst)
		if err != nil || eta.Minutes > maxTripMinutes || len(eta.Route.Roads) < minTripRoads {
			continue
		}
		s.ods = append(s.ods, [2]int{src, dst})
	}
	return nil
}

// slowestSpeeds returns each road's lowest prior mean or truth over every
// stride-th slot of the day.
func slowestSpeeds(m *rtf.Model, truth func(tslot.Slot, int) float64, n, stride int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	for t := tslot.Slot(0); t < tslot.PerDay; t += tslot.Slot(stride) {
		mu := m.At(t).Mu
		for i := range out {
			out[i] = math.Min(out[i], math.Min(mu[i], truth(t, i)))
		}
	}
	return out
}
