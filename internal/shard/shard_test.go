package shard

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/rtf"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// metroFixture builds a small metro network with a synthesized fitted model.
func metroFixture(tb testing.TB, roads, districts int) (*network.Network, *rtf.Model, []speedgen.Profile) {
	tb.Helper()
	net := network.Metro(network.MetroOptions{Roads: roads, Districts: districts, Seed: 1})
	model, profiles, err := speedgen.MetroModel(net, speedgen.MetroConfig{Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return net, model, profiles
}

func TestShardLayoutDeterminism(t *testing.T) {
	net, model, _ := metroFixture(t, 400, 4)
	cfg := Config{Shards: 3, Seed: 9, Core: core.DefaultConfig()}
	a, err := New(net, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(net, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < a.Shards(); p++ {
		if !reflect.DeepEqual(a.Shard(p).Owned(), b.Shard(p).Owned()) {
			t.Fatalf("shard %d owned set differs between identically-seeded engines", p)
		}
		if !reflect.DeepEqual(a.Shard(p).Halo(), b.Shard(p).Halo()) {
			t.Fatalf("shard %d halo differs between identically-seeded engines", p)
		}
	}
	for r := 0; r < net.N(); r++ {
		if a.Owner(r) != b.Owner(r) {
			t.Fatalf("road %d owner differs", r)
		}
	}
}

// TestFullHaloExactEquivalence: with the halo covering the entire network,
// every shard computes over the complete graph under identity numbering, so
// the sharded field and the sharded correlations must equal the unsharded
// engine's exactly — this pins the routing/merge machinery itself.
func TestFullHaloExactEquivalence(t *testing.T) {
	net, model, profiles := metroFixture(t, 200, 4)
	slot := tslot.Slot(100)
	eng, err := New(net, model, Config{Shards: 2, Seed: 3, HaloHops: net.N(), Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	observed := map[int]float64{}
	for r := 0; r < net.N(); r += 9 {
		observed[r] = profiles[r].Speed(slot) * 0.9
	}
	want, err := flat.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Speeds) != len(want.Speeds) {
		t.Fatalf("field length %d, want %d", len(got.Speeds), len(want.Speeds))
	}
	for r := range want.Speeds {
		if math.Abs(got.Speeds[r]-want.Speeds[r]) > 1e-9 {
			t.Fatalf("road %d: sharded %v vs flat %v", r, got.Speeds[r], want.Speeds[r])
		}
	}

	// Γ equivalence: with the full halo the shard's local numbering is the
	// identity, so whole correlation rows must match bit-for-bit.
	gOracle := flat.Oracle(slot)
	for p := 0; p < eng.Shards(); p++ {
		sOracle := eng.Shard(p).System().Oracle(slot)
		for _, src := range []int{0, 7, net.N() / 2} {
			sr, gr := sOracle.CorrRow(src), gOracle.CorrRow(src)
			for j := range gr {
				if sr[j] != gr[j] {
					t.Fatalf("shard %d Γ(%d,%d) = %v, flat %v", p, src, j, sr[j], gr[j])
				}
			}
		}
	}
}

// TestHaloStitchedEquivalence: with the default finite halo the sharded field
// is an ε-approximation — boundary correlations are stitched by duplicating
// observations into the halo, so cut-adjacent correlations stay exact and
// the field deviates only where propagation chains longer than the halo
// cross the cut.
func TestHaloStitchedEquivalence(t *testing.T) {
	net, model, profiles := metroFixture(t, 400, 4)
	slot := tslot.Slot(96)
	eng, err := New(net, model, Config{Shards: 2, Seed: 3, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Γ across the cut: for adjacent roads on opposite sides, Eq. (7) pins
	// corr to the edge ρ in both engines — the halo must preserve it.
	gOracle := flat.Oracle(slot)
	cut := 0
	net.Graph().Edges(func(u, v int) bool {
		pu, pv := eng.Owner(u), eng.Owner(v)
		if pu == pv {
			return true
		}
		cut++
		sh := eng.Shard(pu)
		lu, lv := localID(t, sh, u), localID(t, sh, v)
		want := gOracle.Corr(u, v)
		got := sh.System().Oracle(slot).Corr(lu, lv)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("cut edge (%d,%d): shard Γ %v, flat Γ %v", u, v, got, want)
		}
		return cut < 50 // checking a sample of the cut is plenty
	})
	if cut == 0 {
		t.Fatal("partition produced no cut edges — test is vacuous")
	}

	observed := map[int]float64{}
	for r := 0; r < net.N(); r += 7 {
		observed[r] = profiles[r].Speed(slot) * 0.88
	}
	want, err := flat.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	var sumRel, maxRel float64
	for r := range want.Speeds {
		rel := math.Abs(got.Speeds[r]-want.Speeds[r]) / want.Speeds[r]
		sumRel += rel
		if rel > maxRel {
			maxRel = rel
		}
	}
	meanRel := sumRel / float64(len(want.Speeds))
	t.Logf("halo-stitched deviation: mean %.5f, max %.5f", meanRel, maxRel)
	if meanRel > 0.01 {
		t.Errorf("mean relative deviation %v exceeds 1%%", meanRel)
	}
	if maxRel > 0.10 {
		t.Errorf("max relative deviation %v exceeds 10%%", maxRel)
	}
	for r, v := range observed {
		if got.Speeds[r] != want.Speeds[r] {
			t.Fatalf("observed road %d deviates: %v vs %v", r, got.Speeds[r], v)
		}
	}
}

func localID(tb testing.TB, sh *Shard, global int) int {
	tb.Helper()
	for li, gid := range sh.orig {
		if gid == global {
			return li
		}
	}
	tb.Fatalf("road %d not in shard %d", global, sh.index)
	return -1
}

func TestShardedSelect(t *testing.T) {
	net, model, _ := metroFixture(t, 400, 4)
	eng, err := New(net, model, Config{Shards: 4, Seed: 5, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	query := make([]int, 0, 40)
	for r := 0; r < net.N(); r += 10 {
		query = append(query, r)
	}
	workers := make([]int, net.N())
	for r := range workers {
		workers[r] = r
	}
	sol, err := eng.Select(context.Background(), core.SelectRequest{
		Slot: 10, Roads: query, WorkerRoads: workers, Budget: 48, Theta: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost > 48 {
		t.Errorf("merged cost %d exceeds budget", sol.Cost)
	}
	if len(sol.Roads) == 0 || sol.Value <= 0 {
		t.Errorf("empty selection: %+v", sol)
	}
	seen := map[int]bool{}
	for _, r := range sol.Roads {
		if seen[r] {
			t.Errorf("road %d selected twice", r)
		}
		seen[r] = true
		if r < 0 || r >= net.N() {
			t.Errorf("road %d out of range", r)
		}
	}
}

func TestSplitBudget(t *testing.T) {
	q := [][]int{make([]int, 3), make([]int, 1), nil}
	got := splitBudget(8, q)
	if got[0]+got[1]+got[2] != 8 {
		t.Fatalf("split %v does not sum to 8", got)
	}
	if got[2] != 0 {
		t.Errorf("empty shard got budget %d", got[2])
	}
	if got[0] <= got[1] {
		t.Errorf("larger shard got %d ≤ smaller's %d", got[0], got[1])
	}
	if s := splitBudget(0, q); s[0]+s[1]+s[2] != 0 {
		t.Errorf("zero budget split %v", s)
	}
}

// TestConcurrentCrossShardQueries is the -race workout: queries whose road
// sets straddle every shard, fired concurrently across slots, must neither
// race nor deadlock in the per-shard Batchers.
func TestConcurrentCrossShardQueries(t *testing.T) {
	net, model, profiles := metroFixture(t, 400, 4)
	eng, err := New(net, model, Config{Shards: 4, Seed: 7, Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	pool := crowd.PlaceEverywhere(net)
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			slot := tslot.Slot(90 + gi%3)
			truth := func(r int) float64 { return profiles[r].Speed(slot) * 0.93 }
			query := make([]int, 0, 20)
			for r := gi; r < net.N(); r += 20 {
				query = append(query, r)
			}
			res, err := eng.Query(context.Background(), core.QueryRequest{
				Slot: slot, Roads: query, Budget: 40, Theta: 0.95,
				Workers: pool, Truth: truth, Seed: int64(gi + 1),
				Probe: crowd.ProbeConfig{NoiseSD: 0.02},
			})
			if err != nil {
				errCh <- err
				return
			}
			if len(res.Speeds) != net.N() {
				errCh <- err
			}
		}(gi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	reps := eng.Reports()
	if len(reps) != 4 {
		t.Fatalf("got %d shard reports", len(reps))
	}
	totalOwned := 0
	for _, r := range reps {
		totalOwned += r.Roads
		if r.OracleCache.Misses == 0 {
			t.Errorf("shard %d never computed a correlation row", r.Shard)
		}
	}
	if totalOwned != net.N() {
		t.Errorf("shards own %d of %d roads", totalOwned, net.N())
	}
}

// TestQueryValidationParity sends the same bad requests to every query entry
// point — System.Query, QueryAdaptive, QueryResilient, Batcher.Query and the
// sharded Engine.Query. Each must refuse every request up front: no
// correlation row computed, no OCS solve, no GSP run. Every case runs on
// fresh engines, so a row cached by an earlier case cannot hide a miss.
func TestQueryValidationParity(t *testing.T) {
	net, model, profiles := metroFixture(t, 200, 4)
	n := net.N()
	slot := tslot.Slot(100)
	good := core.QueryRequest{
		Slot: slot, Roads: []int{1, 2}, Budget: 20, Theta: 0.9,
		Workers: crowd.PlaceEverywhere(net),
		Truth:   func(r int) float64 { return profiles[r].Speed(slot) },
	}
	bad := []struct {
		name   string
		mutate func(r *core.QueryRequest)
	}{
		{"nil workers", func(r *core.QueryRequest) { r.Workers = nil }},
		{"nil truth", func(r *core.QueryRequest) { r.Truth = nil }},
		{"slot -1", func(r *core.QueryRequest) { r.Slot = -1 }},
		{"road N", func(r *core.QueryRequest) { r.Roads = []int{1, n} }},
	}
	type engines struct {
		sys   *core.System
		batch *core.Batcher
		eng   *Engine
	}
	ctx := context.Background()
	entries := []struct {
		name string
		run  func(e engines, r core.QueryRequest) error
	}{
		{"System.Query", func(e engines, r core.QueryRequest) error {
			_, err := e.sys.Query(ctx, r)
			return err
		}},
		{"System.QueryAdaptive", func(e engines, r core.QueryRequest) error {
			_, err := e.sys.QueryAdaptive(ctx, r, 0, 2)
			return err
		}},
		{"System.QueryResilient", func(e engines, r core.QueryRequest) error {
			_, err := e.sys.QueryResilient(ctx, r, core.ResilientOptions{})
			return err
		}},
		{"Batcher.Query", func(e engines, r core.QueryRequest) error {
			_, err := e.batch.Query(ctx, r)
			return err
		}},
		{"Engine.Query", func(e engines, r core.QueryRequest) error {
			_, err := e.eng.Query(ctx, r)
			return err
		}},
	}
	for _, entry := range entries {
		for _, c := range bad {
			pipe := obs.NewPipeline(obs.NewRegistry(), nil)
			sys, err := core.NewFromModel(net, model, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sys.Instrument(pipe)
			batch, err := core.NewBatcher(sys, core.BatcherOptions{})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(net, model, Config{Shards: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			eng.Instrument(pipe)

			req := good
			c.mutate(&req)
			if err := entry.run(engines{sys, batch, eng}, req); err == nil {
				t.Errorf("%s accepted a request with %s", entry.name, c.name)
			}
			misses := sys.OracleCacheReport().Misses
			for _, rep := range eng.Reports() {
				misses += rep.OracleCache.Misses
			}
			if misses != 0 {
				t.Errorf("%s with %s computed %d correlation rows", entry.name, c.name, misses)
			}
			if pipe.OCS.Solves.Value() != 0 || pipe.GSP.Runs.Value() != 0 {
				t.Errorf("%s with %s ran OCS or GSP", entry.name, c.name)
			}
		}
	}
}

// TestEngineRejectsOutOfRangeRoads: the sharded engine answers an
// out-of-range road id with an error, as the unsharded engine does, instead
// of dropping it; and it refuses RouteVar weights, which it does not shard.
func TestEngineRejectsOutOfRangeRoads(t *testing.T) {
	net, model, _ := metroFixture(t, 200, 4)
	n := net.N()
	eng, err := New(net, model, Config{Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewFromModel(net, model, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, road := range []int{-1, n} {
		observed := map[int]float64{0: 40, road: 40}
		if _, err := flat.Estimate(ctx, 100, observed); err == nil {
			t.Fatalf("unsharded estimate accepted observed road %d", road)
		}
		if _, err := eng.Estimate(ctx, 100, observed); err == nil {
			t.Errorf("sharded estimate accepted observed road %d", road)
		}
		if _, err := eng.Select(ctx, core.SelectRequest{
			Slot: 100, Roads: []int{1}, WorkerRoads: []int{0, road}, Budget: 5, Theta: 0.9,
		}); err == nil {
			t.Errorf("sharded select accepted worker road %d", road)
		}
	}
	weights := make([]float64, n)
	if _, err := eng.Select(ctx, core.SelectRequest{
		Slot: 100, Roads: []int{1}, WorkerRoads: []int{0, 2}, Budget: 5, Theta: 0.9,
		Selector: core.RouteVar, Weights: weights,
	}); err == nil {
		t.Error("sharded select accepted RouteVar weights")
	}
}
