package detect

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gsp"
	"repro/internal/network"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

func fixture(tb testing.TB) (*network.Network, *speedgen.History, *core.System) {
	tb.Helper()
	net := network.Synthetic(network.SyntheticOptions{Roads: 80, Seed: 70})
	hist, err := speedgen.Generate(net, speedgen.Default(8, 71))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Train(net, hist.DayRange(0, hist.Days-1), core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return net, hist, sys
}

func TestScanValidation(t *testing.T) {
	_, _, sys := fixture(t)
	view := sys.Model().At(0)
	res := gsp.Result{Speeds: make([]float64, 80)}
	bad := []Config{
		{MinDrop: 0, MinZ: 2, MaxSDFrac: 0.8},
		{MinDrop: 1, MinZ: 2, MaxSDFrac: 0.8},
		{MinDrop: 0.3, MinZ: 0, MaxSDFrac: 0.8},
		{MinDrop: 0.3, MinZ: 2, MaxSDFrac: 0},
		{MinDrop: 0.3, MinZ: 2, MaxSDFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Scan(view, res, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	short := gsp.Result{Speeds: make([]float64, 3)}
	if _, err := Scan(view, short, DefaultConfig()); err == nil {
		t.Error("length mismatch accepted")
	}
	mismatch := gsp.Result{Speeds: make([]float64, 80), SD: make([]float64, 2)}
	if _, err := Scan(view, mismatch, DefaultConfig()); err == nil {
		t.Error("SD length mismatch accepted")
	}
}

func TestNoAlertsOnNormalDay(t *testing.T) {
	net, hist, sys := fixture(t)
	slot := tslot.Slot(100)
	day := hist.Days - 1
	pool := crowd.PlaceEverywhere(net)
	res, err := sys.Query(context.Background(), core.QueryRequest{
		Slot: slot, Roads: []int{1, 5, 9}, Budget: 20, Theta: 0.92,
		Workers: pool, Truth: func(r int) float64 { return hist.At(day, slot, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := Scan(sys.Model().At(slot), res.Propagation, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A normal day may contain the generator's random incidents; demand at
	// most a couple of alerts, none with absurd z.
	if len(alerts) > 4 {
		t.Errorf("normal day produced %d alerts", len(alerts))
	}
}

func TestDetectsInjectedIncident(t *testing.T) {
	net, hist, sys := fixture(t)
	slot := tslot.Slot(100)
	day := hist.Days - 1
	// Jam a strong-periodicity road: a large drop there is genuinely
	// anomalous. (On a weak road — σ comparable to μ — a one-day drop is
	// within normal variation and the detector rightly stays quiet.)
	view0 := sys.Model().At(slot)
	jam := -1
	for r := 0; r < net.N(); r++ {
		if view0.Sigma[r] < 0.12*view0.Mu[r] {
			jam = r
			break
		}
	}
	if jam < 0 {
		t.Fatal("no strong-periodicity road in fixture")
	}
	truth := func(r int) float64 {
		v := hist.At(day, slot, r)
		if r == jam {
			return v * 0.2
		}
		return v
	}
	// Probe the jammed road directly (the crowd is there).
	pool := crowd.PlaceEverywhere(net)
	ledger := crowd.Ledger{Budget: 100}
	probed, _, err := pool.Probe([]int{jam}, net.Costs(), truth, crowd.ProbeConfig{NoiseSD: 0.01, Seed: 3}, &ledger)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Estimate(context.Background(), slot, probed)
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := Scan(sys.Model().At(slot), res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alerts {
		if a.Road == jam {
			found = true
			if a.Drop < 0.3 || a.Z < 2 {
				t.Errorf("weak alert for the jam: %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("injected incident not detected; alerts: %+v", alerts)
	}
	// Alerts are sorted by descending z.
	for i := 1; i < len(alerts); i++ {
		if alerts[i].Z > alerts[i-1].Z {
			t.Errorf("alerts not sorted by z at %d", i)
		}
	}
}

func TestConfidenceGateSuppressesUnprobedDrops(t *testing.T) {
	// Hand-build a result where a road's estimate is low but its SD equals
	// the prior (no probe support): the gate must suppress it.
	net := network.Synthetic(network.SyntheticOptions{Roads: 10, Seed: 72})
	m := rtf.New(net)
	for r := 0; r < 10; r++ {
		m.SetMu(0, r, 50)
		m.SetSigma(0, r, 5)
	}
	view := m.At(0)
	speeds := make([]float64, 10)
	sd := make([]float64, 10)
	for r := range speeds {
		speeds[r] = 50
		sd[r] = 5
	}
	speeds[4] = 20 // big drop, but SD == prior → unsupported
	res := gsp.Result{Speeds: speeds, SD: sd}
	alerts, err := Scan(view, res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Errorf("unsupported drop raised alerts: %+v", alerts)
	}
	// With probe support (small SD) it fires.
	sd[4] = 0.5
	alerts, err = Scan(view, gsp.Result{Speeds: speeds, SD: sd}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Road != 4 {
		t.Errorf("supported drop not detected: %+v", alerts)
	}
}
