package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/tslot"
)

// target is the program under test: the real server.New(sys).Handler()
// behind a loopback listener in this process. Each day of a phase serves
// from a fresh instance (reset), so every slot's oracle starts cold and the
// temporal filter starts at slot 0, as the walk of "now" assumes.
type target struct {
	s       *traffic
	ref     *reference
	wrap    func(http.Handler) http.Handler // test hook; nil in runs
	srv     *server.Server
	handler atomic.Value // http.Handler
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// maxConns is the connection cap: nproc of the 2-core runner.
const maxConns = 2

func startTarget(s *traffic, ref *reference, wrap func(http.Handler) http.Handler) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{s: s, ref: ref, wrap: wrap, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	t.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	t.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	t.handler.Store(http.NotFoundHandler())
	go func() { t.served <- t.hs.Serve(ln) }()
	if err := t.reset(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// newServer builds a serving instance the way `crowdrtse serve` does with
// its defaults: core.DefaultConfig, no QoS admission, a 72-slot report
// horizon.
func newServer(wd *world) (*server.Server, error) {
	sys, err := core.NewFromModel(wd.net, wd.model, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	srv := server.New(sys)
	srv.Collector().SetHorizon(72)
	return srv, nil
}

// reset swaps in a fresh serving instance and registers the worker pool.
// Callers reset only while no request is in flight.
func (t *target) reset() error {
	srv, err := newServer(t.s.wd)
	if err != nil {
		return err
	}
	h := srv.Handler()
	if t.wrap != nil {
		h = t.wrap(h)
	}
	t.srv = srv
	t.handler.Store(h)
	return registerWorkers(t, t.s.wd.workers)
}

// poster sends one POST and returns the body of a 200 answer; the loopback
// target and the in-process replay both implement it.
type poster interface {
	post(path string, body []byte, buf *bytes.Buffer) error
}

func registerWorkers(p poster, roads []int) error {
	type w struct {
		Road int `json:"road"`
	}
	body := struct {
		Workers []w `json:"workers"`
	}{Workers: make([]w, len(roads))}
	for i, r := range roads {
		body.Workers[i] = w{Road: r}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	return p.post("/v1/workers", data, &buf)
}

func (t *target) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.hs.Shutdown(ctx)
	if serveErr := <-t.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	t.client.CloseIdleConnections()
	return err
}

// post sends one POST and leaves a 200 answer's body in buf.
func (t *target) post(path string, body []byte, buf *bytes.Buffer) error {
	return t.do(http.MethodPost, path, body, buf)
}

func (t *target) get(path string, buf *bytes.Buffer) error {
	return t.do(http.MethodGet, path, nil, buf)
}

func (t *target) do(method, path string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s: read: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, buf.Bytes())
	}
	return nil
}

// recorder collects one client goroutine's outcomes.
type recorder struct {
	lat       [numKinds][]float64 // ms, successful requests only
	fromDue   []float64           // ms, the latencies timed from a due time
	attempted int
	failed    int
	errs      []string // the first few failures, for the log
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.fromDue = append(r.fromDue, o.fromDue...)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// client is one connection's driver.
type client struct {
	p   poster
	s   *traffic
	rec *recorder
	buf bytes.Buffer
}

// call sends one request of kind k and checks its answer. Its latency runs
// from start — a step's due time for the first request of an open-loop
// step — to the end of the response. A non-200 answer or a failed check
// counts the request as failed.
func (c *client) call(k kind, path string, req any, out any, start time.Time, check func() error) bool {
	c.rec.attempted++
	body, err := json.Marshal(req)
	if err != nil {
		c.rec.fail(err)
		return false
	}
	due := !start.IsZero()
	if !due {
		start = time.Now()
	}
	err = c.p.post(path, body, &c.buf)
	end := time.Now()
	if err == nil {
		if err = json.Unmarshal(c.buf.Bytes(), out); err != nil {
			err = fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	if err == nil {
		err = check()
	}
	if err != nil {
		c.rec.fail(err)
		return false
	}
	ms := float64(end.Sub(start)) / 1e6
	c.rec.lat[k] = append(c.rec.lat[k], ms)
	if due {
		c.rec.fromDue = append(c.rec.fromDue, ms)
	}
	return true
}

type estimateReq struct {
	Slot  int   `json:"slot"`
	Roads []int `json:"roads,omitempty"`
}

type reportReq struct {
	Road  int     `json:"road"`
	Slot  int     `json:"slot"`
	Speed float64 `json:"speed"`
}

type selectReq struct {
	Slot     int     `json:"slot"`
	Roads    []int   `json:"roads"`
	Budget   int     `json:"budget"`
	Theta    float64 `json:"theta"`
	Selector string  `json:"selector"`
}

type routeReq struct {
	Slot int `json:"slot"`
	Src  int `json:"src"`
	Dst  int `json:"dst"`
}

func (c *client) estimate(slot tslot.Slot, roads []int, start time.Time) (*estimateResp, bool) {
	var res estimateResp
	ok := c.call(kEstimate, "/v1/estimate", estimateReq{Slot: int(slot), Roads: roads}, &res, start,
		func() error { return checkEstimate(&res, roads, c.s.wd.net.N()) })
	return &res, ok
}

func (c *client) report(slot tslot.Slot, road int, speed float64, start time.Time) bool {
	var res reportResp
	return c.call(kReport, "/v1/report", reportReq{Road: road, Slot: int(slot), Speed: speed}, &res, start,
		func() error { return checkReport(&res) })
}

func (c *client) selectRoads(slot tslot.Slot, roads []int, start time.Time) (*selectResp, bool) {
	var res selectResp
	ok := c.call(kSelect, "/v1/select", selectReq{Slot: int(slot), Roads: roads, Budget: selectBudget,
		Theta: selectTheta, Selector: "Hybrid"}, &res, start,
		func() error { return checkSelect(&res, selectBudget, c.s.wd.net) })
	return &res, ok
}

func (c *client) route(slot tslot.Slot, src, dst int, start time.Time) bool {
	var res routeResp
	return c.call(kRoute, "/v1/route", routeReq{Slot: int(slot), Src: src, Dst: dst}, &res, start,
		func() error { return checkRoute(&res, src, dst, c.s.wd.net) })
}

// crowd runs the paper's loop for one query set: select the probe roads,
// report each one's speed (truth plus noise), estimate the query. It
// returns the estimate, or nil when a request failed.
func (c *client) crowd(st *step, start time.Time) *estimateResp {
	sel, ok := c.selectRoads(st.slot, st.roads, start)
	if !ok {
		return nil
	}
	for _, road := range sel.Roads {
		if !c.report(st.slot, road, c.s.report(&st.rng, st.slot, road), time.Time{}) {
			return nil
		}
	}
	res, ok := c.estimate(st.slot, st.roads, time.Time{})
	if !ok {
		return nil
	}
	return res
}

// run sends one step; due is its scheduled time (zero in a closed loop).
func (c *client) run(st *step, due time.Time) {
	switch st.op {
	case opEstimate, opDashboard:
		c.estimate(st.slot, st.roads, due)
	case opReport:
		c.report(st.slot, st.road, st.speed, due)
	case opSelect:
		c.selectRoads(st.slot, st.roads, due)
	case opRoute:
		c.route(st.slot, st.src, st.dst, due)
	case opCrowd:
		c.crowd(st, due)
	}
}

// phase is what one load phase measured.
type phase struct {
	rec     recorder
	busy    time.Duration // wall time serving steps, resets excluded
	windows []window      // closed loop: each whole chunk of steps
	late    []float64     // open loop: generator lateness per step, ms
	backlog int           // open loop: most steps due but not started
	walked  int           // slots "now" walked past slot 0, over all days
	scrapes []scrape      // traced phases: counters at each day's end
}

// window is what one closed-loop chunk cost the process.
type window struct {
	requests int
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	speed    float64 // the reference factor of the window's stretch
}

// segment measures one day of a phase: fresh instance, then fn.
func (t *target) segment(p *phase, traced bool, fn func()) error {
	if err := t.reset(); err != nil {
		return err
	}
	t0, ref0 := time.Now(), t.ref.spent
	fn()
	p.busy += time.Since(t0) - (t.ref.spent - ref0)
	if traced {
		sc, err := t.scrape()
		if err != nil {
			return err
		}
		p.scrapes = append(p.scrapes, sc)
	}
	return nil
}

// openLoop sends rate steps per second for dur, each on its own schedule
// whatever the server's state, with at most maxConns in flight; a step
// waits in the queue when both connections are busy, and its latency counts
// that wait because it runs from the step's due time. The steps go out in
// bursts of the workload's burstSlots slots, with a reference reading after
// each that scales the burst's latencies.
func (t *target) openLoop(id streamID, rate float64, dur time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	per := len(t.s.w.mix)
	n := int(rate*dur.Seconds()) / per * per // whole slots: fixed counts per kind
	perDay := t.s.stepsPerDay()
	burst := t.s.w.burstSlots * per
	for first := 0; first < n; first += perDay {
		last := min(n, first+perDay)
		err := t.segment(p, traced, func() {
			for b := first; b < last; b += burst {
				rec := p.burst(t, id, rate, b, min(last, b+burst))
				f := t.ref.lap()
				for k := range rec.lat {
					scale(rec.lat[k], f)
				}
				p.rec.merge(rec)
			}
			p.walked += (last - 1 - first) / per
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// burst sends steps first to last-1 on schedule and waits for every answer.
func (p *phase) burst(t *target, id streamID, rate float64, first, last int) *recorder {
	queue := make(chan int, last-first) // sized to the number of sends
	dues := make([]time.Time, last-first)
	recs := make([]*recorder, maxConns)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = &recorder{}
		c := &client{p: t, s: t.s, rec: recs[w]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				st := t.s.step(id, i)
				c.run(&st, dues[i-first])
			}
		}()
	}
	// The generator keeps one thread with the kernel's finest timer
	// slack (the default lets a sleep end 50µs late).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	t0 := time.Now()
	for i := first; i < last; i++ {
		due := t0.Add(time.Duration(float64(i-first) / rate * float64(time.Second)))
		sleepUntil(due)
		p.late = append(p.late, float64(time.Since(due))/1e6)
		p.backlog = max(p.backlog, len(queue))
		dues[i-first] = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	out := &recorder{}
	for _, r := range recs {
		out.merge(r)
	}
	return out
}

// closedLoop runs clients (at most maxConns), each sending its next step
// when the previous one is answered, until dur of serving time has passed.
// The clients work through each day in chunks of the workload's chunkSlots
// slots and meet at the end of each, where the reference is read and
// scales the chunk's latencies; every whole chunk is a window, so the same
// mix of steps is measured in each.
func (t *target) closedLoop(id streamID, clients int, dur time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	perDay := t.s.stepsPerDay()
	chunk := t.s.w.chunkSlots * len(t.s.w.mix)
	for first := 0; p.busy < dur; first += perDay {
		err := t.segment(p, traced, func() {
			// Timed from after the reset: busy counts only serving time.
			deadline := time.Now().Add(dur - p.busy)
			reached := first
			for c := first; c < first+perDay && time.Now().Before(deadline); c += chunk {
				end := min(c+chunk, first+perDay)
				var next atomic.Int64
				next.Store(int64(c))
				recs := make([]*recorder, clients)
				var wg sync.WaitGroup
				var s0, s1 runtimeStats
				s0.read()
				for w := range recs {
					recs[w] = &recorder{}
					cl := &client{p: t, s: t.s, rec: recs[w]}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for time.Now().Before(deadline) {
							i := int(next.Add(1) - 1)
							if i >= end {
								return
							}
							st := t.s.step(id, i)
							cl.run(&st, time.Time{})
						}
					}()
				}
				wg.Wait()
				s1.read()
				r0 := t.ref.spent
				speed := t.ref.lap()
				deadline = deadline.Add(t.ref.spent - r0)
				before := p.rec.attempted
				for _, r := range recs {
					for k := range r.lat {
						scale(r.lat[k], speed)
					}
					p.rec.merge(r)
				}
				reached = max(reached, min(int(next.Load()), end)-1)
				if int(next.Load()) >= end { // every step of the chunk was sent
					p.windows = append(p.windows, window{
						requests: p.rec.attempted - before,
						wall:     s1.wall.Sub(s0.wall),
						cpu:      s1.cpu - s0.cpu,
						mallocs:  s1.mallocs - s0.mallocs,
						speed:    speed,
					})
				}
			}
			p.walked += (reached - first) / len(t.s.w.mix)
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runtimeStats is a snapshot of the process's wall clock, CPU time and
// allocation count.
type runtimeStats struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func (s *runtimeStats) read() {
	s.mallocs = readMallocs()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.wall = time.Now()
}

// sleepUntil blocks the calling thread in the kernel until spinWindow
// before t and spins out the rest. The runtime's own timers wake up to a
// millisecond late on Linux (the netpoller waits in whole milliseconds),
// and a virtual CPU woken from idle takes a further 0.1–0.2 ms on a shared
// host; either would put the generator, not the server, in charge of
// sub-millisecond latencies. The spin costs 6% of a core at 400 steps/s.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - spinWindow
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
	for time.Now().Before(t) {
	}
}

const (
	spinWindow      = 150 * time.Microsecond
	prSetTimerSlack = 29 // prctl(2) PR_SET_TIMERSLACK
)
