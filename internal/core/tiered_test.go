package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gsp"
	"repro/internal/qos"
	"repro/internal/tslot"
)

func tierFixture(t *testing.T, seed int64) (*fixture, *Batcher, tslot.Slot, map[int]float64) {
	t.Helper()
	f := newFixture(t, 40, 6, seed)
	b, err := NewBatcher(f.sys, BatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slot := tslot.Slot(100)
	day := f.hist.Days - 1
	observed := map[int]float64{}
	for _, r := range []int{2, 7, 13, 21, 33} {
		observed[r] = f.hist.At(day, slot, r)
	}
	return f, b, slot, observed
}

func TestEstimateTierFull(t *testing.T) {
	f, b, slot, observed := tierFixture(t, 11)
	res, err := b.EstimateTier(context.Background(), qos.TierFull, slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != qos.TierFull || res.VarianceInflation != 1.0 {
		t.Fatalf("full tier labeled %s ×%v", res.Tier, res.VarianceInflation)
	}
	want, err := f.sys.Estimate(context.Background(), slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Speeds {
		if math.Abs(res.Speeds[i]-want.Speeds[i]) > 1e-9 {
			t.Fatalf("road %d: full tier %v != direct estimate %v", i, res.Speeds[i], want.Speeds[i])
		}
		if math.Abs(res.SD[i]-want.SD[i]) > 1e-9 {
			t.Fatalf("road %d: full tier SD inflated: %v != %v", i, res.SD[i], want.SD[i])
		}
	}
}

// TestEstimateTierCachedFresh: a cached answer milliseconds old whose
// evidence matches the stored field costs (almost) nothing — the AR(1)
// aging term vanishes at age→0 and the evidence gap is zero on roads the
// stored pass pinned exactly.
func TestEstimateTierCached(t *testing.T) {
	_, b, slot, observed := tierFixture(t, 12)
	full, err := b.EstimateTier(context.Background(), qos.TierFull, slot, observed)
	if err != nil {
		t.Fatal(err)
	}

	cached, err := b.EstimateTier(context.Background(), qos.TierCached, slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Tier != qos.TierCached {
		t.Fatalf("cached tier labeled %s", cached.Tier)
	}
	if cached.VarianceInflation < 1 {
		t.Fatalf("cached inflation %v < 1", cached.VarianceInflation)
	}
	for i := range full.Speeds {
		if cached.Speeds[i] != full.Speeds[i] {
			t.Fatalf("road %d: cached speed %v != last estimate %v", i, cached.Speeds[i], full.Speeds[i])
		}
		if cached.SD[i] < full.SD[i]-1e-12 {
			t.Fatalf("road %d: cached SD %v narrower than full %v", i, cached.SD[i], full.SD[i])
		}
		// Same evidence, near-zero age: the widening must be negligible.
		if cached.SD[i] > full.SD[i]+1e-3 {
			t.Fatalf("road %d: fresh matching cache widened %v -> %v", i, full.SD[i], cached.SD[i])
		}
	}

	// Evidence the cache never saw prices in: perturb one observed road and
	// the gap must appear in that road's variance (and the mean gap
	// elsewhere).
	moved := map[int]float64{2: full.Speeds[2] + 6}
	widened, err := b.EstimateTier(context.Background(), qos.TierCached, slot, moved)
	if err != nil {
		t.Fatal(err)
	}
	wantVar := full.SD[2]*full.SD[2] + 36
	if got := widened.SD[2] * widened.SD[2]; got < wantVar-1e-3 {
		t.Fatalf("road 2: cached var %v, want >= %v (evidence gap 36)", got, wantVar)
	}
	if widened.VarianceInflation <= 1 {
		t.Fatalf("discrepant cache inflation %v, want > 1", widened.VarianceInflation)
	}
	for i := range full.SD {
		if i == 2 {
			continue
		}
		// Every other road carries the mean squared gap.
		if got, want := widened.SD[i]*widened.SD[i], full.SD[i]*full.SD[i]+36; got < want-1e-2 {
			t.Fatalf("road %d: var %v, want >= %v (mean gap)", i, got, want)
		}
	}

	// The inflation must not have leaked into the stored warm-start entry.
	stored, ok := b.CachedResult(slot)
	if !ok {
		t.Fatal("warm LRU lost the slot")
	}
	for i := range stored.SD {
		if math.Abs(stored.SD[i]-full.SD[i]) > 1e-9 {
			t.Fatalf("road %d: stored SD mutated to %v (was %v)", i, stored.SD[i], full.SD[i])
		}
	}
}

// TestEstimateTierCachedFallsThrough pins the honest-labeling rule: a cached
// request on a never-estimated slot is served the prior and *says so* — with
// the prior's own Σ as spread.
func TestEstimateTierCachedFallsThrough(t *testing.T) {
	f, b, _, _ := tierFixture(t, 13)
	cold := tslot.Slot(222)
	res, err := b.EstimateTier(context.Background(), qos.TierCached, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != qos.TierPrior {
		t.Fatalf("cold cached request labeled %s, want prior fallthrough", res.Tier)
	}
	mu := f.sys.PriorSpeeds(cold)
	for i := range mu {
		if res.Speeds[i] != mu[i] {
			t.Fatalf("road %d: fallthrough speed %v != prior %v", i, res.Speeds[i], mu[i])
		}
	}
}

func TestEstimateTierPrior(t *testing.T) {
	f, b, slot, _ := tierFixture(t, 14)
	res, err := b.EstimateTier(context.Background(), qos.TierPrior, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != qos.TierPrior || res.VarianceInflation != 1.0 {
		t.Fatalf("prior tier labeled %s ×%v (the prior's spread is Σ, not an inflation)", res.Tier, res.VarianceInflation)
	}
	if !res.Converged {
		t.Fatal("prior tier answer not marked converged")
	}
	mu, sigma := f.sys.PriorField(slot)
	for i := range mu {
		if res.Speeds[i] != mu[i] {
			t.Fatalf("road %d: prior speed %v != μ %v", i, res.Speeds[i], mu[i])
		}
		if math.Abs(res.SD[i]-sigma[i]) > 1e-12 {
			t.Fatalf("road %d: prior SD %v, want Σ %v exactly", i, res.SD[i], sigma[i])
		}
		if res.Provenance[i] != gsp.ProvPrior {
			t.Fatalf("road %d: prior tier provenance %s", i, res.Provenance[i])
		}
	}
}

// TestTierWideningMonotone quick-checks the honesty invariant on seeded
// random fields: per road, full ≤ batched ≤ batched+aged (cached), aging is
// monotone in age, and no transform ever narrows an interval or mutates the
// input field.
func TestTierWideningMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	phi := func(int) float64 { return 0.9 }
	q := func(int) float64 { return 3.0 }
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(40)
		res := gsp.Result{Speeds: make([]float64, n), SD: make([]float64, n)}
		for i := range res.Speeds {
			res.Speeds[i] = 20 + 40*rng.Float64()
			res.SD[i] = 0.5 + 4*rng.Float64()
		}
		observed := map[int]float64{}
		for len(observed) < 1+rng.Intn(n) {
			r := rng.Intn(n)
			observed[r] = res.Speeds[r] + 8*(rng.Float64()-0.5)
		}
		origSD := append([]float64(nil), res.SD...)

		full := FullTierResult(res)
		batched := BatchedTierResult(res, observed)
		agedA := CachedTierResult(res, observed, 1, phi, q)
		agedB := CachedTierResult(res, observed, 6, phi, q)

		if full.VarianceInflation != 1.0 {
			t.Fatalf("trial %d: full inflation %v", trial, full.VarianceInflation)
		}
		for _, tr := range []TierResult{batched, agedA, agedB} {
			if tr.VarianceInflation < 1 {
				t.Fatalf("trial %d: %s inflation %v < 1", trial, tr.Tier, tr.VarianceInflation)
			}
		}
		for i := 0; i < n; i++ {
			if full.SD[i] != res.SD[i] {
				t.Fatalf("trial %d road %d: full transform changed SD", trial, i)
			}
			if batched.SD[i] < full.SD[i]-1e-12 {
				t.Fatalf("trial %d road %d: batched %v < full %v", trial, i, batched.SD[i], full.SD[i])
			}
			if agedA.SD[i] < batched.SD[i]-1e-12 {
				t.Fatalf("trial %d road %d: aged(1) %v < batched %v", trial, i, agedA.SD[i], batched.SD[i])
			}
			if agedB.SD[i] < agedA.SD[i]-1e-12 {
				t.Fatalf("trial %d road %d: aged(6) %v < aged(1) %v", trial, i, agedB.SD[i], agedA.SD[i])
			}
			if res.SD[i] != origSD[i] {
				t.Fatalf("trial %d road %d: input field mutated", trial, i)
			}
		}
	}
}

// TestBatchedTierEmptyEvidence: a follower that dropped nothing pays
// nothing.
func TestBatchedTierEmptyEvidence(t *testing.T) {
	res := gsp.Result{Speeds: []float64{30, 40}, SD: []float64{2, 3}}
	out := BatchedTierResult(res, nil)
	if out.VarianceInflation != 1.0 {
		t.Fatalf("empty-evidence inflation %v", out.VarianceInflation)
	}
	for i := range res.SD {
		if out.SD[i] != res.SD[i] {
			t.Fatalf("road %d: SD %v != %v", i, out.SD[i], res.SD[i])
		}
	}
}

// TestEstimateTierBatchedShares pins the slot-keyed singleflight: a follower
// arriving while a same-slot propagation is in flight takes the leader's
// field — even with a different observation set — widened by the follower's
// measured evidence gap.
func TestEstimateTierBatchedShares(t *testing.T) {
	_, b, slot, observed := tierFixture(t, 15)

	// Plant an in-flight leader by hand so the test is deterministic.
	leader := &flight[gsp.Result]{done: make(chan struct{})}
	b.flightMu.Lock()
	b.slotFlight[slot] = leader
	b.flightMu.Unlock()

	type answer struct {
		res TierResult
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := b.EstimateTier(context.Background(), qos.TierBatched, slot, observed)
		got <- answer{res, err}
	}()

	// The follower must be blocked on the leader, not running its own pass.
	select {
	case a := <-got:
		t.Fatalf("follower returned before the leader finished: %+v", a)
	default:
	}

	leader.res = gsp.Result{
		Speeds:    make([]float64, b.sys.Network().N()),
		SD:        make([]float64, b.sys.Network().N()),
		Converged: true,
	}
	for i := range leader.res.Speeds {
		leader.res.Speeds[i] = 42
		leader.res.SD[i] = 2
	}
	close(leader.done)

	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.Tier != qos.TierBatched {
		t.Fatalf("follower tier %s", a.res.Tier)
	}
	if a.res.Speeds[0] != 42 {
		t.Fatalf("follower got its own pass, not the leader's field: %v", a.res.Speeds[0])
	}
	// Each follower-observed road's variance carries its squared gap to the
	// served field; the rest carry the mean squared gap.
	var meanD2 float64
	for r, v := range observed {
		d := v - 42
		meanD2 += d * d / float64(len(observed))
		want := math.Sqrt(4 + d*d)
		if math.Abs(a.res.SD[r]-want) > 1e-9 {
			t.Fatalf("road %d: follower SD %v, want %v (gap %v)", r, a.res.SD[r], want, d)
		}
	}
	if want := math.Sqrt(4 + meanD2); math.Abs(a.res.SD[0]-want) > 1e-9 {
		t.Fatalf("road 0: follower SD %v, want %v (mean gap)", a.res.SD[0], want)
	}
	if a.res.VarianceInflation <= 1 {
		t.Fatalf("follower inflation %v, want > 1 (its evidence disagrees with the field)", a.res.VarianceInflation)
	}
	// The leader's stored field must not have been inflated in place.
	if leader.res.SD[0] != 2 {
		t.Fatalf("leader SD mutated to %v", leader.res.SD[0])
	}

	b.flightMu.Lock()
	delete(b.slotFlight, slot)
	b.flightMu.Unlock()

	// With nothing in flight the batched tier runs a pass itself (leader
	// path): the field pins its own observations exactly, so it pays no
	// inflation at all — the principled formula prices only dropped
	// evidence.
	res, err := b.EstimateTier(context.Background(), qos.TierBatched, slot, observed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != qos.TierBatched || math.Abs(res.VarianceInflation-1) > 1e-9 {
		t.Fatalf("leader-path batched answer labeled %s ×%v", res.Tier, res.VarianceInflation)
	}
}

// TestEstimateTierBatchedContext: a follower's context expiring abandons its
// wait without disturbing the in-flight leader.
func TestEstimateTierBatchedContext(t *testing.T) {
	_, b, slot, observed := tierFixture(t, 16)
	leader := &flight[gsp.Result]{done: make(chan struct{})}
	b.flightMu.Lock()
	b.slotFlight[slot] = leader
	b.flightMu.Unlock()
	defer func() {
		close(leader.done)
		b.flightMu.Lock()
		delete(b.slotFlight, slot)
		b.flightMu.Unlock()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.EstimateTier(ctx, qos.TierBatched, slot, observed); err != context.Canceled {
		t.Fatalf("cancelled follower: %v", err)
	}
}
