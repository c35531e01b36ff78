package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/router"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/tslot"
)

// The traced run's per-layer numbers come from two sources, neither of
// which puts tracing inside the program:
//   - scrapes of the serving instance's own /v1/metrics and /v1/healthz at
//     the end of every traced day, summed over the day's fresh instances;
//   - replays of the open loop's first steps, sequentially, through each
//     layer's public functions on instances the benchmark owns.

// scrape is one reading of a serving instance's counters.
type scrape struct {
	m      map[string]float64 // /v1/metrics samples, labels in the name
	oracle core.CacheReport
}

func (t *target) scrape() (scrape, error) {
	var buf bytes.Buffer
	if err := t.get("/v1/metrics", &buf); err != nil {
		return scrape{}, err
	}
	sc := scrape{m: parseProm(buf.Bytes())}
	if err := t.get("/v1/healthz", &buf); err != nil {
		return scrape{}, err
	}
	var hz struct {
		Oracle core.CacheReport `json:"oracle_cache"`
	}
	if err := json.Unmarshal(buf.Bytes(), &hz); err != nil {
		return scrape{}, fmt.Errorf("healthz: %w", err)
	}
	sc.oracle = hz.Oracle
	return sc, nil
}

// parseProm reads the Prometheus text exposition into name → value.
func parseProm(data []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// div is a/b, or 0 when b is 0 (the layer did no work).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrapeMetrics folds the traced phases' scrapes into per-layer metrics.
func scrapeMetrics(out *metrics, phases ...*phase) {
	sum := map[string]float64{}
	var hits, misses, evictions float64
	var resident int64
	var busy time.Duration
	walked := 0
	for _, p := range phases {
		busy += p.busy
		walked += p.walked
		for _, sc := range p.scrapes {
			for k, v := range sc.m {
				sum[k] += v
			}
			hits += float64(sc.oracle.Hits)
			misses += float64(sc.oracle.Misses)
			evictions += float64(sc.oracle.Evictions)
			resident = max(resident, sc.oracle.ResidentBytes)
		}
	}
	runs := sum["crowdrtse_gsp_runs_total"]
	out.set("gsp.run_us", 1e6*div(sum["crowdrtse_gsp_seconds_sum"], sum["crowdrtse_gsp_seconds_count"]), "us")
	out.set("gsp.busy_ms_per_s", 1e3*div(sum["crowdrtse_gsp_seconds_sum"], busy.Seconds()), "ms/s")
	out.set("gsp.iterations_per_run", div(sum["crowdrtse_gsp_iterations_total"], runs), "count")
	out.set("core.warm_start_share", div(sum["crowdrtse_gsp_warm_starts_total"], runs), "ratio")
	out.set("core.sweeps_saved_per_run", div(sum["crowdrtse_warmstart_sweeps_saved_total"], runs), "count")
	batched := 0.0
	for _, route := range []string{"estimate", "select", "route"} {
		batched += sum[`crowdrtse_http_requests_total{route="`+route+`"}`]
	}
	out.set("core.coalesced_share", div(sum["crowdrtse_coalesced_queries_total"], batched), "ratio")
	out.set("core.oracle_hit_rate", div(hits, hits+misses), "ratio")
	out.set("core.oracle_resident_mb", float64(resident)/1e6, "MB")
	out.set("core.oracle_evictions", evictions, "count")
	solves := sum["crowdrtse_ocs_select_total"]
	out.set("corr.row_us", 1e6*div(sum["crowdrtse_corr_row_compute_seconds_sum"], sum["crowdrtse_corr_row_compute_seconds_count"]), "us")
	out.set("corr.rows_per_select", div(sum["crowdrtse_corr_row_compute_seconds_count"], solves), "count")
	out.set("ocs.solve_us", 1e6*div(sum["crowdrtse_ocs_select_seconds_sum"], sum["crowdrtse_ocs_select_seconds_count"]), "us")
	out.set("ocs.selected_per_solve", div(sum["crowdrtse_ocs_selected_roads_total"], solves), "count")
	accepted, rejected := sum["crowdrtse_stream_reports_total"], sum["crowdrtse_stream_reports_rejected_total"]
	out.set("stream.rejected_share", div(rejected, accepted+rejected), "ratio")
	// The filter follows the walk when it predicts once per slot walked.
	out.set("temporal.fed_share", div(sum["crowdrtse_temporal_predicts_total"], float64(walked)), "ratio")
}

// inproc serves requests by calling the handler directly, with no socket,
// and counts what each estimate costs the handler.
type inproc struct {
	h         http.Handler
	estAllocs []float64
	estBytes  []float64
}

func (p *inproc) post(path string, body []byte, buf *bytes.Buffer) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	estimate := path == "/v1/estimate"
	var m0 uint64
	if estimate {
		m0 = readMallocs()
	}
	p.h.ServeHTTP(rr, req)
	if estimate {
		p.estAllocs = append(p.estAllocs, float64(readMallocs()-m0))
		p.estBytes = append(p.estBytes, float64(rr.Body.Len()))
	}
	buf.Reset()
	buf.Write(rr.Body.Bytes())
	if rr.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, rr.Code, buf.Bytes())
	}
	return nil
}

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Replay bounds: the replays run the open loop's steps from step 0, at
// least one slot's mix and at most replaySteps, until replayBudget has
// passed.
const (
	replaySteps  = 400
	replayBudget = 4 * time.Second
	gspReplays   = 12
	gspBudget    = 2 * time.Second
	// probeReplays bounds the select probe's replay; at metro scale a
	// select takes 150 ms.
	probeReplays = 3
)

// replay runs the per-layer replays and records their metrics. Three
// instances take every step in turn, so the three see the same states and
// the same machine: the handler called in-process, the handler over the
// loopback socket, and the layers' public functions. It returns the
// requests it sent and the failures among them.
func (t *target) replay(out *metrics) (*recorder, error) {
	s := t.s
	srv, err := newServer(s.wd)
	if err != nil {
		return nil, err
	}
	ip := &inproc{h: srv.Handler()}
	if err := registerWorkers(ip, s.wd.workers); err != nil {
		return nil, err
	}
	direct := &client{p: ip, s: s, rec: &recorder{}}
	if err := t.reset(); err != nil {
		return nil, err
	}
	wire := &client{p: t, s: s, rec: &recorder{}}
	lr, err := newLayerReplay(s)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < replaySteps && (i < len(s.w.mix) || time.Since(t0) < replayBudget); i++ {
		st := s.step(streamOpen, i)
		direct.run(&st, time.Time{})
		st = s.step(streamOpen, i)
		wire.run(&st, time.Time{})
		st = s.step(streamOpen, i)
		if err := lr.run(&st); err != nil {
			return nil, err
		}
	}
	for i := 0; i < min(s.w.selectProbe, probeReplays); i++ {
		st := s.probeStep(i)
		if err := lr.run(&st); err != nil {
			return nil, err
		}
	}
	if err := lr.gspReplay(); err != nil {
		return nil, err
	}
	total := &recorder{}
	total.merge(direct.rec)
	total.merge(wire.rec)

	estUs := 1e3 * median(direct.rec.lat[kEstimate])
	out.set("server.estimate_us", estUs, "us")
	out.set("server.estimate_self_us", estUs-median(lr.observations)-median(lr.estimateTier), "us")
	out.set("server.estimate_allocs", median(ip.estAllocs), "count")
	out.set("server.resp_bytes", mean(ip.estBytes), "B")
	out.set("server.loopback_us", 1e3*median(wire.rec.lat[kEstimate])-estUs, "us")
	out.set("stream.add_us", median(lr.add), "us")
	out.set("stream.observations_us", median(lr.observations), "us")
	out.set("core.estimate_tier_us", median(lr.estimateTier), "us")
	out.set("core.select_us", median(lr.selects), "us")
	out.set("core.route_eta_us", median(lr.routes), "us")
	out.set("gsp.cold_us", median(lr.gspCold), "us")
	out.set("gsp.warm_us", median(lr.gspWarm), "us")
	out.set("temporal.update_us", median(lr.update), "us")
	out.set("temporal.pseudo_us", median(lr.pseudo), "us")
	out.set("temporal.forecast_us", median(lr.forecast), "us")
	out.set("router.plan_us", median(lr.plan), "us")
	out.set("router.segments_per_route", mean(lr.segments), "count")
	return total, nil
}

// layerReplay drives the serving layers the way the handlers do, timing
// each call. Times are µs.
type layerReplay struct {
	s         *traffic
	sys       *core.System
	b         *core.Batcher
	col       *stream.Collector
	updates   *temporal.Filter // fed the probes of each estimate
	pseudos   *temporal.Filter // fed each estimate's field instead
	estimates []estimateCall   // for the GSP replay

	add, observations, estimateTier, selects, routes []float64
	update, pseudo, forecast, plan, segments         []float64
	gspCold, gspWarm                                 []float64
}

type estimateCall struct {
	slot     tslot.Slot
	observed map[int]float64
}

func roadClasses(net *network.Network) []network.Class {
	out := make([]network.Class, net.N())
	for i := range out {
		out[i] = net.Road(i).Class
	}
	return out
}

func newLayerReplay(s *traffic) (*layerReplay, error) {
	sys, err := core.NewFromModel(s.wd.net, s.wd.model, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	b, err := core.NewBatcher(sys, core.BatcherOptions{})
	if err != nil {
		return nil, err
	}
	classes := roadClasses(s.wd.net)
	filters := make([]*temporal.Filter, 3)
	for i := range filters {
		if filters[i], err = temporal.New(sys.Model(), 0, temporal.DefaultParams(), classes, temporal.Options{}); err != nil {
			return nil, err
		}
	}
	b.AttachTemporal(filters[0])
	col := stream.NewCollector(s.wd.net.N())
	col.SetHorizon(72)
	return &layerReplay{s: s, sys: sys, b: b, col: col, updates: filters[1], pseudos: filters[2]}, nil
}

func since(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }

func (lr *layerReplay) run(st *step) error {
	switch st.op {
	case opEstimate, opDashboard:
		return lr.estimate(st.slot)
	case opReport:
		return lr.report(st.slot, st.road, st.speed)
	case opSelect:
		_, err := lr.selectRoads(st)
		return err
	case opRoute:
		return lr.route(st)
	case opCrowd:
		sel, err := lr.selectRoads(st)
		if err != nil {
			return err
		}
		for _, road := range sel {
			if err := lr.report(st.slot, road, lr.s.report(&st.rng, st.slot, road)); err != nil {
				return err
			}
		}
		return lr.estimate(st.slot)
	}
	return nil
}

func (lr *layerReplay) report(slot tslot.Slot, road int, speed float64) error {
	t0 := time.Now()
	err := lr.col.Add(stream.Report{Road: road, Slot: slot, Speed: speed})
	lr.add = append(lr.add, since(t0))
	return err
}

func (lr *layerReplay) estimate(slot tslot.Slot) error {
	t0 := time.Now()
	observed := lr.col.Observations(slot)
	lr.observations = append(lr.observations, since(t0))
	t0 = time.Now()
	res, err := lr.b.EstimateTier(context.Background(), qos.TierFull, slot, observed)
	lr.estimateTier = append(lr.estimateTier, since(t0))
	if err != nil {
		return err
	}
	lr.estimates = append(lr.estimates, estimateCall{slot: slot, observed: observed})

	// The filter's two ways in: probe updates, or the field as a
	// pseudo-observation on a probe-less slot. Each is timed on its own
	// filter, walked to the slot like the server's.
	noise := lr.sys.ObsNoiseFunc()
	if _, err := lr.updates.Advance(slot); err != nil {
		return err
	}
	if len(observed) > 0 {
		t0 = time.Now()
		err = lr.updates.Update(observed, noise)
		lr.update = append(lr.update, since(t0))
		if err != nil {
			return err
		}
	}
	if _, err := lr.pseudos.Advance(slot); err != nil {
		return err
	}
	t0 = time.Now()
	err = lr.pseudos.PseudoObserve(res.Speeds, res.SD)
	lr.pseudo = append(lr.pseudo, since(t0))
	return err
}

func (lr *layerReplay) selectRoads(st *step) ([]int, error) {
	t0 := time.Now()
	sol, err := lr.b.Select(context.Background(), core.SelectRequest{
		Slot: st.slot, Roads: st.roads, WorkerRoads: lr.s.wd.workers,
		Budget: selectBudget, Theta: selectTheta, Selector: core.Hybrid,
	})
	lr.selects = append(lr.selects, since(t0))
	return sol.Roads, err
}

// routeHorizon is the server's default forecast horizon, in slots.
const routeHorizon = 3

func (lr *layerReplay) route(st *step) error {
	observed := lr.col.Observations(st.slot)
	depart := float64(st.slot.StartMinute())
	t0 := time.Now()
	_, err := lr.b.RouteETA(context.Background(), core.RouteETARequest{
		Slot: st.slot, Src: st.src, Dst: st.dst, DepartMinute: depart,
		Horizon: routeHorizon, Observed: observed, Tier: qos.TierFull,
	})
	lr.routes = append(lr.routes, since(t0))
	if err != nil {
		return err
	}

	t0 = time.Now()
	if _, err := lr.updates.ForecastFrom(st.slot, routeHorizon, observed, lr.sys.ObsNoiseFunc()); err != nil {
		return err
	}
	lr.forecast = append(lr.forecast, since(t0))

	// The planner alone, over the field RouteETA just served: the slot's
	// cached estimate, then the prior for the slots the trip crosses.
	base, ok := lr.b.CachedResult(st.slot)
	if !ok {
		return fmt.Errorf("route replay: slot %d has no cached field", st.slot)
	}
	priors := make([][2][]float64, routeHorizon)
	for k := range priors {
		priors[k][0], priors[k][1] = lr.sys.PriorField(st.slot.Add(k + 1))
	}
	field := func(t tslot.Slot, road int) (router.SpeedDist, bool) {
		k := (int(t) - int(st.slot) + tslot.PerDay) % tslot.PerDay
		switch {
		case k == 0:
			return router.SpeedDist{Mean: base.Speeds[road], SD: base.SD[road]}, true
		case k <= routeHorizon:
			return router.SpeedDist{Mean: priors[k-1][0][road], SD: priors[k-1][1][road]}, true
		}
		return router.SpeedDist{}, false
	}
	t0 = time.Now()
	eta, err := router.PlanETA(lr.s.wd.net, field, depart, st.src, st.dst)
	lr.plan = append(lr.plan, since(t0))
	lr.segments = append(lr.segments, float64(len(eta.Segments)))
	return err
}

// gspReplay propagates the replayed estimates' observations cold, then
// warm from the previous propagation of the same slot, with the options
// the system threads into every run.
func (lr *layerReplay) gspReplay() error {
	opt := core.DefaultConfig().GSP
	opt.ObsNoise = lr.sys.ObsNoise()
	opt.SDScale = lr.sys.SDScale()
	prev := map[tslot.Slot]gsp.Result{}
	ctx := context.Background()
	t0 := time.Now()
	for i, e := range lr.estimates {
		if i >= gspReplays || time.Since(t0) > gspBudget {
			break
		}
		view := lr.sys.Model().At(e.slot)
		if p, ok := prev[e.slot]; ok {
			t1 := time.Now()
			if _, err := gsp.PropagateCtx(ctx, lr.s.wd.net, view, e.observed, opt.WithInitial(p)); err != nil {
				return err
			}
			lr.gspWarm = append(lr.gspWarm, since(t1))
		}
		t1 := time.Now()
		res, err := gsp.PropagateCtx(ctx, lr.s.wd.net, view, e.observed, opt)
		if err != nil {
			return err
		}
		lr.gspCold = append(lr.gspCold, since(t1))
		prev[e.slot] = res
	}
	return nil
}
