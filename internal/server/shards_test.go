package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/shard"
	"repro/internal/speedgen"
)

// TestAttachShardsSurfaces wires a 2-shard engine into the server and checks
// both observability surfaces: /v1/healthz gains the per-shard block and
// /v1/metrics the shard-labeled oracle-cache series, with counters that move
// when the engine does work.
func TestAttachShardsSurfaces(t *testing.T) {
	net := network.Synthetic(network.SyntheticOptions{Roads: 60, Seed: 9})
	h, err := speedgen.Generate(net, speedgen.Default(6, 10))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Train(net, h, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys)
	eng, err := shard.New(net, sys.Model(), shard.Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachShards(eng)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Drive one cross-shard selection so the per-shard Γ caches miss at least
	// once (estimation alone never touches the correlation oracle).
	workers := make([]int, net.N())
	for i := range workers {
		workers[i] = i
	}
	if _, err := eng.Select(context.Background(), core.SelectRequest{
		Slot: 30, Roads: []int{2, net.N() - 1}, WorkerRoads: workers,
		Budget: 6, Theta: 0.92, Selector: core.Hybrid, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Shards []shard.ShardReport `json:"shards"`
	}
	decode(t, resp, &health)
	if len(health.Shards) != 2 {
		t.Fatalf("healthz shards = %d, want 2", len(health.Shards))
	}
	totalOwned := 0
	misses := uint64(0)
	for _, rep := range health.Shards {
		totalOwned += rep.Roads
		misses += rep.OracleCache.Misses
	}
	if totalOwned != net.N() {
		t.Errorf("owned roads sum to %d, want %d", totalOwned, net.N())
	}
	if misses == 0 {
		t.Error("per-shard oracle caches report zero misses after an estimate")
	}

	series := scrapeMetrics(t, ts.URL)
	if got := series["crowdrtse_shards"]; got != 2 {
		t.Errorf("crowdrtse_shards = %v, want 2", got)
	}
	var exported float64
	for p := 0; p < 2; p++ {
		exported += series[metricName("crowdrtse_shard", p, "_oracle_cache_misses_total")]
	}
	if exported != float64(misses) {
		t.Errorf("metrics misses = %v, healthz misses = %d — surfaces disagree", exported, misses)
	}
}

func metricName(prefix string, p int, suffix string) string {
	return prefix + string(rune('0'+p)) + suffix
}
