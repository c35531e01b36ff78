package core

import (
	"context"
	"testing"

	"repro/internal/crowd"
	"repro/internal/tslot"
)

func TestQueryAdaptiveValidation(t *testing.T) {
	f := newFixture(t, 30, 5, 40)
	pool := crowd.PlaceEverywhere(f.net)
	req := QueryRequest{
		Slot: 100, Roads: []int{1, 2}, Budget: 10, Theta: 0.92,
		Workers: pool, Truth: f.truth(f.hist.Days-1, 100),
	}
	if _, err := f.sys.QueryAdaptive(context.Background(), req, 1, 0); err == nil {
		t.Error("zero stages accepted")
	}
	if _, err := f.sys.QueryAdaptive(context.Background(), req, -1, 2); err == nil {
		t.Error("negative target accepted")
	}
	bad := req
	bad.Workers = nil
	if _, err := f.sys.QueryAdaptive(context.Background(), bad, 1, 2); err == nil {
		t.Error("nil workers accepted")
	}
	bad = req
	bad.Slot = 999
	if _, err := f.sys.QueryAdaptive(context.Background(), bad, 1, 2); err == nil {
		t.Error("bad slot accepted")
	}
}

func TestQueryAdaptiveStopsEarlyOnLooseTarget(t *testing.T) {
	f := newFixture(t, 80, 8, 41)
	slot := tslot.Slot(110)
	day := f.hist.Days - 1
	pool := crowd.PlaceEverywhere(f.net)
	req := QueryRequest{
		Slot: slot, Roads: []int{3, 9, 14, 21, 30}, Budget: 40, Theta: 0.92,
		Workers: pool, Truth: f.truth(day, slot), Seed: 42,
	}
	// Loose target: the prior σ already satisfies it → a single stage.
	loose, err := f.sys.QueryAdaptive(context.Background(), req, 1e9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if loose.StagesUsed != 1 {
		t.Errorf("loose target used %d stages", loose.StagesUsed)
	}
	if loose.Ledger.Spent > req.Budget/4 {
		t.Errorf("loose target spent %d of %d", loose.Ledger.Spent, req.Budget)
	}
	// Strict target: keeps spending until the uncertainty hits zero (every
	// queried road probed) or the stages run out.
	strict, err := f.sys.QueryAdaptive(context.Background(), req, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if strict.StagesUsed <= loose.StagesUsed {
		t.Errorf("strict target used %d stages, loose used %d", strict.StagesUsed, loose.StagesUsed)
	}
	if strict.StagesUsed < 4 && strict.MaxQuerySD > 0 {
		t.Errorf("stopped at stage %d with MaxQuerySD %v > 0", strict.StagesUsed, strict.MaxQuerySD)
	}
	if strict.Ledger.Spent < loose.Ledger.Spent {
		t.Errorf("strict target spent less (%d) than loose (%d)", strict.Ledger.Spent, loose.Ledger.Spent)
	}
	if strict.Ledger.Spent > req.Budget {
		t.Errorf("budget exceeded: %d", strict.Ledger.Spent)
	}
	// More spend cannot raise the worst-case uncertainty.
	if strict.MaxQuerySD > loose.MaxQuerySD+1e-9 {
		t.Errorf("more budget raised MaxQuerySD: %v vs %v", strict.MaxQuerySD, loose.MaxQuerySD)
	}
	if len(strict.QuerySpeeds) != 5 {
		t.Errorf("query speeds = %d", len(strict.QuerySpeeds))
	}
}

func TestQueryAdaptiveObservationsAccumulate(t *testing.T) {
	f := newFixture(t, 60, 6, 43)
	slot := tslot.Slot(150)
	day := f.hist.Days - 1
	pool := crowd.PlaceEverywhere(f.net)
	req := QueryRequest{
		Slot: slot, Roads: []int{1, 7, 13, 22, 31, 40}, Budget: 30, Theta: 0.92,
		Workers: pool, Truth: f.truth(day, slot), Seed: 44,
	}
	res, err := f.sys.QueryAdaptive(context.Background(), req, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every probed road's estimate equals its observation (GSP pins them).
	for r, v := range res.Probed {
		if res.Speeds[r] != v {
			t.Errorf("probed road %d drifted: %v vs %v", r, res.Speeds[r], v)
		}
	}
	// Spend equals the sum of probed costs.
	want := 0
	for r := range res.Probed {
		want += f.net.Road(r).Cost
	}
	if res.Ledger.Spent != want {
		t.Errorf("spent %d, probed costs sum %d", res.Ledger.Spent, want)
	}
}

// Budget smaller than the cheapest worker road's cost: no stage can afford
// anything, yet the query must return a well-formed prior-only result
// instead of failing or returning nil speeds.
func TestQueryAdaptiveBudgetBelowCheapestCost(t *testing.T) {
	f := newFixture(t, 30, 5, 45)
	day := f.hist.Days - 1
	minCost := f.net.Costs()[0]
	for _, c := range f.net.Costs() {
		if c < minCost {
			minCost = c
		}
	}
	req := QueryRequest{
		Slot: 100, Roads: []int{1, 2}, Budget: minCost - 1, Theta: 0.92,
		Workers: crowd.PlaceEverywhere(f.net), Truth: f.truth(day, 100), Seed: 46,
	}
	if req.Budget <= 0 {
		t.Skip("synthetic network has a cost-1 road; nothing cheaper to test")
	}
	res, err := f.sys.QueryAdaptive(context.Background(), req, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Spent != 0 {
		t.Errorf("spent %d with budget below every cost", res.Ledger.Spent)
	}
	if len(res.Probed) != 0 {
		t.Errorf("probed %d roads", len(res.Probed))
	}
	if len(res.Speeds) != f.net.N() || len(res.QuerySpeeds) != 2 {
		t.Errorf("degenerate budget returned malformed field: %d speeds", len(res.Speeds))
	}
}

// Campaign-mode adaptive queries run the full task lifecycle per stage and
// never overspend the shared ledger (satellite fix: req.Campaign used to be
// silently ignored).
func TestQueryAdaptiveWithCampaign(t *testing.T) {
	f := newFixture(t, 60, 6, 47)
	slot := tslot.Slot(120)
	day := f.hist.Days - 1
	camp := crowd.DefaultCampaign(0) // Seed 0 → defaults from req.Seed
	camp.AcceptProb = 1
	camp.MaxRounds = 10
	var ws []crowd.Worker
	for r := 0; r < f.net.N(); r++ {
		for k := 0; k < 3; k++ {
			ws = append(ws, crowd.Worker{Road: r})
		}
	}
	req := QueryRequest{
		Slot: slot, Roads: []int{2, 8, 15, 23}, Budget: 30, Theta: 0.92,
		Workers: crowd.NewPool(ws), Truth: f.truth(day, slot), Seed: 48,
		Campaign: &camp,
	}
	res, err := f.sys.QueryAdaptive(context.Background(), req, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign == nil {
		t.Fatal("campaign report missing (campaign silently ignored)")
	}
	if res.Campaign.Fulfilled == 0 {
		t.Error("no fulfilled tasks with fully willing workers")
	}
	if res.Campaign.Fulfilled != len(res.Probed) {
		t.Errorf("fulfilled %d but %d observations", res.Campaign.Fulfilled, len(res.Probed))
	}
	if res.Ledger.Spent > req.Budget {
		t.Errorf("overspent: %d/%d", res.Ledger.Spent, req.Budget)
	}
	if len(res.Answers) == 0 || len(res.QuerySpeeds) != 4 {
		t.Errorf("answers=%d query speeds=%d", len(res.Answers), len(res.QuerySpeeds))
	}
	// Reluctant crowd: partial/failed tasks must not leak observations.
	lazy := crowd.DefaultCampaign(0)
	lazy.AcceptProb = 0
	reqLazy := req
	reqLazy.Campaign = &lazy
	res2, err := f.sys.QueryAdaptive(context.Background(), reqLazy, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Probed) != 0 || res2.Ledger.Spent != 0 {
		t.Errorf("unwilling crowd: probed=%d spent=%d", len(res2.Probed), res2.Ledger.Spent)
	}
}
