package repro

// End-to-end integration tests across the whole stack, at reduced scale:
// generate a world, train offline, run the online pipeline through every
// front door (library, adaptive, campaign, HTTP), and check the paper's
// core invariants hold.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/rtf"
	"repro/internal/server"
	"repro/internal/speedgen"
	"repro/internal/stream"
	"repro/internal/tslot"
)

type world struct {
	net  *network.Network
	hist *speedgen.History
	sys  *core.System
	day  int
}

func buildWorld(tb testing.TB, roads, days int, seed int64) *world {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: roads, Seed: seed})
	hist, err := speedgen.Generate(net, speedgen.Default(days, seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Train(net, hist.DayRange(0, days-1), core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return &world{net: net, hist: hist, sys: sys, day: days - 1}
}

func (w *world) truth(slot tslot.Slot) crowd.TruthFunc {
	return func(r int) float64 { return w.hist.At(w.day, slot, r) }
}

// The full offline→online pipeline beats the periodic baseline and respects
// every budget and constraint on the way.
func TestEndToEndPipeline(t *testing.T) {
	w := buildWorld(t, 120, 10, 100)
	slot := tslot.OfMinute(8*60 + 30)
	query := []int{3, 17, 29, 41, 57, 66, 81, 99, 104, 118}
	res, err := w.sys.Query(context.Background(), core.QueryRequest{
		Slot: slot, Roads: query, Budget: 30, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(w.net),
		Probe:   crowd.ProbeConfig{NoiseSD: 0.02, Seed: 101},
		Truth:   w.truth(slot),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Spent > 30 {
		t.Errorf("budget exceeded: %d", res.Ledger.Spent)
	}
	view := w.sys.Model().At(slot)
	est := make([]float64, len(query))
	per := make([]float64, len(query))
	tv := make([]float64, len(query))
	for i, r := range query {
		est[i] = res.QuerySpeeds[r]
		per[i] = view.Mu[r]
		tv[i] = w.hist.At(w.day, slot, r)
	}
	if metrics.MAPE(est, tv) >= metrics.MAPE(per, tv) {
		t.Errorf("pipeline (%.4f) did not beat periodic baseline (%.4f)",
			metrics.MAPE(est, tv), metrics.MAPE(per, tv))
	}
	// Redundancy constraint honored.
	oracle := w.sys.Oracle(slot)
	for i := 0; i < len(res.Selected.Roads); i++ {
		for j := i + 1; j < len(res.Selected.Roads); j++ {
			if c := oracle.Corr(res.Selected.Roads[i], res.Selected.Roads[j]); c > 0.92+1e-9 {
				t.Errorf("selected pair violates theta: corr=%v", c)
			}
		}
	}
}

// Model persistence: a saved and reloaded model answers identically.
func TestEndToEndModelRoundTrip(t *testing.T) {
	w := buildWorld(t, 60, 6, 110)
	var buf bytes.Buffer
	if err := w.sys.Model().Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rtf.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := core.NewFromModel(w.net, loaded, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slot := tslot.Slot(140)
	obs := map[int]float64{2: 33.0, 17: 51.5}
	a, err := w.sys.Estimate(context.Background(), slot, obs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys2.Estimate(context.Background(), slot, obs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Speeds {
		if a.Speeds[i] != b.Speeds[i] {
			t.Fatalf("reloaded model diverges at road %d", i)
		}
	}
}

// The HTTP surface wired to the streaming collector reproduces the library
// path: reports → estimate → alerts.
func TestEndToEndHTTP(t *testing.T) {
	w := buildWorld(t, 60, 6, 120)
	ts := httptest.NewServer(server.New(w.sys).Handler())
	defer ts.Close()
	slot := 102
	jam := -1
	view := w.sys.Model().At(tslot.Slot(slot))
	for r := 0; r < w.net.N(); r++ {
		if view.Sigma[r] < 0.12*view.Mu[r] {
			jam = r
			break
		}
	}
	if jam < 0 {
		t.Skip("no strong-periodicity road")
	}
	body, _ := json.Marshal(map[string]interface{}{"road": jam, "slot": slot, "speed": view.Mu[jam] * 0.2})
	resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/alerts?slot=102")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Alerts []struct {
			Road int `json:"road"`
		} `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, a := range out.Alerts {
		if a.Road == jam {
			found = true
		}
	}
	if !found {
		t.Errorf("HTTP alert for jammed road %d missing: %+v", jam, out)
	}
}

// Online maintenance: folding a drifted day shifts the model the direction
// of the drift, and the stream collector's aggregates drive GSP.
func TestEndToEndOnlineMaintenance(t *testing.T) {
	w := buildWorld(t, 50, 6, 130)
	slot := tslot.Slot(200)
	road := 7
	before := w.sys.Model().Mu(slot, road)

	col := stream.NewCollector(w.net.N())
	for i := 0; i < 5; i++ {
		if err := col.Add(stream.Report{Road: road, Slot: slot, Speed: before - 10}); err != nil {
			t.Fatal(err)
		}
	}
	obs := col.Observations(slot)
	onl, err := stream.NewOnlineRTF(w.sys.Model(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := onl.Fold(slot, obs); err != nil {
			t.Fatal(err)
		}
	}
	after := w.sys.Model().Mu(slot, road)
	if !(after < before && math.Abs(after-(before-10)) < 2) {
		t.Errorf("online fold: μ %v → %v, want ≈ %v", before, after, before-10)
	}
}

// Routing on pipeline estimates never does worse (under ground truth) than
// routing on periodic means by more than noise, and detect stays quiet on
// estimates that equal the means.
func TestEndToEndRoutingAndDetection(t *testing.T) {
	w := buildWorld(t, 100, 8, 140)
	slot := tslot.OfMinute(18 * 60)
	all := make([]int, w.net.N())
	for i := range all {
		all[i] = i
	}
	res, err := w.sys.Query(context.Background(), core.QueryRequest{
		Slot: slot, Roads: all, Budget: 40, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(w.net),
		Probe:   crowd.ProbeConfig{NoiseSD: 0.02, Seed: 141},
		Truth:   w.truth(slot),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := 0
	order := w.net.Graph().BFSOrder(src)
	dst := order[len(order)-1]
	truthField := func(_ tslot.Slot, r int) float64 { return w.hist.At(w.day, slot, r) }

	crowdRoute, err := router.Static(w.net, res.Speeds, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	view := w.sys.Model().At(slot)
	perRoute, err := router.Static(w.net, view.Mu, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	crowdActual, err := router.Evaluate(w.net, truthField, 18*60, crowdRoute)
	if err != nil {
		t.Fatal(err)
	}
	perActual, err := router.Evaluate(w.net, truthField, 18*60, perRoute)
	if err != nil {
		t.Fatal(err)
	}
	if crowdActual > perActual*1.3 {
		t.Errorf("crowd-informed route (%.1f min) much worse than periodic (%.1f min)",
			crowdActual, perActual)
	}
	// Detection on the same result is bounded (no alert storm on a normal day).
	alerts, err := detect.Scan(view, res.Propagation, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) > w.net.N()/10 {
		t.Errorf("alert storm on a normal day: %d alerts", len(alerts))
	}
}
