// Package loadbench is the PR-6 load-replay harness behind the load suite of
// `rtsebench -record` and `rtsebench -check`. It replays a diurnal demand curve derived
// from the speedgen profiles — congested (slow) slots are rush hours, and
// rush hours are when dashboards, alerting and batch consumers all query at
// once — against a real HTTP server with admission control enabled, and
// measures what the QoS ladder did about it: per-class admit/shed counts,
// served-tier distribution, and per-class latency quantiles.
//
// Load is offered closed-loop: each step runs demand(step) × SurgeMultiple
// × MaxInFlight concurrent client loops, every loop keeping one request
// outstanding, so the in-flight load the admission controller reads tracks
// the diurnal curve by construction — a faster machine turns requests
// around quicker but the outstanding count, which is what the pressure
// signal measures, stays pinned to the curve. The peak offers a calibrated
// multiple of MaxInFlight and the controller must shed; the trough stays
// under capacity and must serve everything at full fidelity. Shed clients
// back off briefly (a client that ignores 429s would busy-spin). Recording
// and gating run this same code, so the load gate's fresh
// measurement matches the recorded BENCH_PR6.json baseline by construction.
package loadbench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/speedgen"
	"repro/internal/tslot"
)

// Options sizes the replay. The zero value gets the defaults below.
type Options struct {
	Roads int // synthetic network size (default 50)
	Days  int // speedgen history length (default 6)
	Steps int // diurnal steps replayed (default 16)
	// StepDuration is the wall time each step's client fleet runs for
	// (default 120ms).
	StepDuration time.Duration
	// MaxInFlight is the server's admission capacity (default 32). It also
	// sets the pressure granularity — in-flight moves in integer steps, so
	// the ladder's thresholds only separate when 1/MaxInFlight is finer than
	// the gaps between them.
	MaxInFlight int
	// ServiceFloor is the emulated per-request service time (default 10ms;
	// see server.Server.ServiceFloor). The synthetic network answers in
	// microseconds — the floor makes admitted requests occupy the server
	// long enough for closed-loop concurrency to register as pressure.
	ServiceFloor time.Duration
	// SurgeMultiple scales the peak client count over MaxInFlight (default
	// 3): at the diurnal peak, 3× more closed-loop clients than the server
	// admits concurrently.
	SurgeMultiple float64
	Seed          int64
}

func (o *Options) defaults() {
	if o.Roads == 0 {
		o.Roads = 50
	}
	if o.Days == 0 {
		o.Days = 6
	}
	if o.Steps == 0 {
		o.Steps = 16
	}
	if o.StepDuration == 0 {
		o.StepDuration = 120 * time.Millisecond
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 32
	}
	if o.ServiceFloor == 0 {
		o.ServiceFloor = 10 * time.Millisecond
	}
	if o.SurgeMultiple == 0 {
		o.SurgeMultiple = 3
	}
	if o.Seed == 0 {
		o.Seed = 3
	}
}

// ClassStats is the per-class outcome of a replay.
type ClassStats struct {
	Sent     int            `json:"sent"`
	Admitted int            `json:"admitted"`
	Shed     int            `json:"shed"`
	ShedRate float64        `json:"shed_rate"`
	Tiers    map[string]int `json:"tiers"` // quality label → count
	P50MS    float64        `json:"p50_ms"`
	P99MS    float64        `json:"p99_ms"`
}

// Report is the BENCH_PR6.json schema.
type Report struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Roads         int     `json:"roads"`
	Days          int     `json:"days"`
	Steps         int     `json:"steps"`
	MaxInFlight   int     `json:"max_in_flight"`
	SurgeMultiple float64 `json:"surge_multiple"`
	// SurgeSteps counts the steps whose offered load exceeded MaxInFlight —
	// the calibrated-surge window the shed gate looks at.
	SurgeSteps int `json:"surge_steps"`
	// PeakOffered / TroughOffered record the diurnal shape actually
	// replayed, in Little's-law in-flight units (arrival rate × service
	// time).
	PeakOffered   float64 `json:"peak_offered"`
	TroughOffered float64 `json:"trough_offered"`
	// CalibratedLatencyMS is the warm-up median service time the arrival
	// pacing was derived from.
	CalibratedLatencyMS float64 `json:"calibrated_latency_ms"`

	Classes map[string]ClassStats `json:"classes"`

	// SurgeShedRate is the per-class shed fraction over the surge steps only.
	SurgeShedRate map[string]float64 `json:"surge_shed_rate"`
	// SurgeDegradedRate is the per-class fraction of admitted surge-step
	// requests served below the full tier.
	SurgeDegradedRate map[string]float64 `json:"surge_degraded_rate"`
	// BatchSurgeShedRate is SurgeShedRate["batch"] — the number the pinned
	// ceiling gates.
	BatchSurgeShedRate float64 `json:"batch_surge_shed_rate"`
	// ShedCeiling is the pinned maximum tolerable BatchSurgeShedRate; it is
	// recorded here so the gate and the baseline travel together.
	ShedCeiling float64 `json:"shed_ceiling"`
	// ClassOrderOK is the ladder's priority promise observed end to end:
	// alerting shed nothing, batch (the lowest class) was genuinely shed at
	// the surge, and batch's degraded fraction among admitted surge requests
	// is at least interactive's (its ladder thresholds are uniformly lower).
	// Per-attempt shed *rates* are deliberately not compared across classes:
	// in a closed loop an admitted class re-attempts exactly when the load
	// its own admissions created is still draining, so attempt streams of
	// different classes sample different pressure phases.
	ClassOrderOK bool `json:"class_order_ok"`
	// RecoveredFullTier: after the replay drained, a batch-class request was
	// served at the full-pipeline tier again.
	RecoveredFullTier bool `json:"recovered_full_tier"`
}

// shedCeiling is the pinned ceiling on the batch shed rate at the calibrated
// surge. Shedding is the ladder working; shedding *everything* — more than
// 90% of batch traffic at 3× capacity — means the ladder's cheaper tiers
// stopped absorbing load and the gate should say so.
const shedCeiling = 0.90

// classes is the replay traffic mix: every 10th request is alerting, three
// in ten interactive, the rest batch — weighted toward the class that sheds
// first so the surge numbers have a denominator.
var classKeys = map[string]string{
	"alerting":    "ops-key",
	"interactive": "maps-key",
	"batch":       "etl-key",
}

func classOf(i int) string {
	switch i % 10 {
	case 0:
		return "alerting"
	case 1, 2, 3:
		return "interactive"
	default:
		return "batch"
	}
}

type sample struct {
	class    string
	shed     bool
	quality  string
	lat      time.Duration
	status   int
	surge    bool
	retrySec int
}

// Run executes one replay and builds the report.
func Run(opts Options) (*Report, error) {
	opts.defaults()
	net := network.Synthetic(network.SyntheticOptions{Roads: opts.Roads, Seed: opts.Seed})
	hist, err := speedgen.Generate(net, speedgen.Default(opts.Days, 4))
	if err != nil {
		return nil, err
	}
	sys, err := core.Train(net, hist, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	srv := server.New(sys)
	srv.ServiceFloor = opts.ServiceFloor
	err = srv.EnableQoS(qos.Config{
		MaxInFlight: opts.MaxInFlight,
		Tenants: []qos.TenantConfig{
			{Key: "ops-key", Name: "ops", Class: qos.ClassAlerting},
			{Key: "maps-key", Name: "maps", Class: qos.ClassInteractive},
			{Key: "etl-key", Name: "etl", Class: qos.ClassBatch},
		},
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// One persistent connection per closed-loop client: the default transport
	// keeps only two idle conns per host, and redialing on every request
	// would turn the closed loop into mostly TCP churn the server never sees.
	tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// Warm-up: a short sequential burst on cold slots primes the TCP pool
	// and records the median service time for the report. The replay itself
	// is closed-loop, so this number is informational — it explains the
	// latency quantiles but the in-flight load does not depend on it.
	fire := func(class string, slot, road int) (sample, error) {
		// Each request carries a fresh observation, so the server must run a
		// conditioned GSP propagation — the realistic (and expensive) path —
		// rather than replaying a cached unconditional posterior.
		body := fmt.Sprintf(`{"slot":%d,"roads":[%d,%d],"observed":{"%d":%.1f}}`,
			slot, road%opts.Roads, (road+1)%opts.Roads, (road+2)%opts.Roads, 20+float64(road%40))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate", strings.NewReader(body))
		if err != nil {
			return sample{}, err
		}
		req.Header.Set("X-API-Key", classKeys[class])
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return sample{}, err
		}
		sm := sample{class: class, lat: time.Since(t0), status: resp.StatusCode}
		switch resp.StatusCode {
		case http.StatusOK:
			var out struct {
				Quality string `json:"quality"`
			}
			if err := jsonDecode(resp.Body, &out); err == nil {
				sm.quality = out.Quality
			}
		case http.StatusTooManyRequests:
			sm.shed = true
			sm.retrySec, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return sm, nil
	}
	var warm []float64
	for i := 0; i < 10; i++ {
		sm, err := fire("batch", (7*i+3)%tslot.PerDay, i)
		if err != nil {
			return nil, fmt.Errorf("loadbench: warm-up: %w", err)
		}
		warm = append(warm, float64(sm.lat.Microseconds())/1000)
	}
	serviceMS := quantile(warm, 0.5)

	// Diurnal demand from the speedgen profiles: sample Steps slots across
	// the day, read the network-mean speed of each from the last history
	// day, and turn congestion (low speed) into demand. Weights normalize
	// to [0.15, 1] so the trough stays under capacity and the peak offers
	// SurgeMultiple × MaxInFlight.
	day := hist.Days - 1
	mean := make([]float64, opts.Steps)
	minM, maxM := math.Inf(1), math.Inf(-1)
	for s := 0; s < opts.Steps; s++ {
		slot := tslot.Slot(s * tslot.PerDay / opts.Steps)
		var sum float64
		for r := 0; r < net.N(); r++ {
			sum += hist.At(day, slot, r)
		}
		mean[s] = sum / float64(net.N())
		minM = math.Min(minM, mean[s])
		maxM = math.Max(maxM, mean[s])
	}
	offered := make([]float64, opts.Steps)
	peak := float64(opts.MaxInFlight) * opts.SurgeMultiple
	for s := range offered {
		congestion := 0.0
		if maxM > minM {
			congestion = (maxM - mean[s]) / (maxM - minM)
		}
		offered[s] = (0.15 + 0.85*congestion) * peak
	}

	rep := &Report{
		Generated:           time.Now().UTC().Format(time.RFC3339),
		GoVersion:           runtime.Version(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Roads:               opts.Roads,
		Days:                opts.Days,
		Steps:               opts.Steps,
		MaxInFlight:         opts.MaxInFlight,
		SurgeMultiple:       opts.SurgeMultiple,
		ShedCeiling:         shedCeiling,
		Classes:             map[string]ClassStats{},
		TroughOffered:       offered[0],
		CalibratedLatencyMS: serviceMS,
	}
	for _, o := range offered {
		rep.PeakOffered = math.Max(rep.PeakOffered, o)
		rep.TroughOffered = math.Min(rep.TroughOffered, o)
		if o > float64(opts.MaxInFlight) {
			rep.SurgeSteps++
		}
	}
	if rep.SurgeSteps == 0 {
		return nil, fmt.Errorf("loadbench: no step offers more than MaxInFlight %d (peak %.1f) — raise SurgeMultiple",
			opts.MaxInFlight, rep.PeakOffered)
	}

	// Replay: per step, run round(offered) closed-loop clients for
	// StepDuration, each keeping exactly one request outstanding. The
	// server-side in-flight count therefore tracks the diurnal curve by
	// construction, independent of how fast this machine turns a request
	// around. Distinct slots keep every admitted request on its own GSP
	// propagation. Shed clients back off briefly before retrying, like a
	// well-behaved consumer honouring Retry-After.
	var mu sync.Mutex
	var samples []sample
	seq := 0
	for s, o := range offered {
		surge := o > float64(opts.MaxInFlight)
		baseSlot := s * tslot.PerDay / opts.Steps
		fleet := int(math.Round(o))
		if fleet < 1 {
			fleet = 1
		}
		deadline := time.Now().Add(opts.StepDuration)
		var wg sync.WaitGroup
		for j := 0; j < fleet; j++ {
			class := classOf(seq)
			seq++
			wg.Add(1)
			go func(j int, class string, surge bool) {
				defer wg.Done()
				for k := 0; time.Now().Before(deadline); k++ {
					sm, err := fire(class, (baseSlot+j*31+k)%tslot.PerDay, j+k)
					if err != nil {
						return
					}
					sm.surge = surge
					mu.Lock()
					samples = append(samples, sm)
					mu.Unlock()
					if sm.shed {
						// Back off before retrying (a client that ignores
						// 429s busy-spins). Jittered, and deliberately NOT
						// scaled by the class-ordered Retry-After hint: a
						// class-dependent backoff phase-locks retries so
						// each class samples a different point of the
						// shed/drain cycle and the per-class shed rates
						// stop being comparable.
						time.Sleep(5*time.Millisecond + time.Duration(rand.Int63n(int64(10*time.Millisecond))))
					}
				}
			}(j, class, surge)
		}
		wg.Wait()
	}

	// Aggregate per class.
	lats := map[string][]float64{}
	surgeSent, surgeShed := map[string]int{}, map[string]int{}
	surgeAdmit, surgeDegraded := map[string]int{}, map[string]int{}
	for _, sm := range samples {
		cs := rep.Classes[sm.class]
		if cs.Tiers == nil {
			cs.Tiers = map[string]int{}
		}
		cs.Sent++
		if sm.shed {
			cs.Shed++
		} else if sm.status == http.StatusOK {
			cs.Admitted++
			cs.Tiers[sm.quality]++
			lats[sm.class] = append(lats[sm.class], float64(sm.lat.Microseconds())/1000)
		}
		if sm.surge {
			surgeSent[sm.class]++
			if sm.shed {
				surgeShed[sm.class]++
			} else if sm.status == http.StatusOK {
				surgeAdmit[sm.class]++
				if sm.quality != "full" {
					surgeDegraded[sm.class]++
				}
			}
		}
		rep.Classes[sm.class] = cs
	}
	for class, cs := range rep.Classes {
		if cs.Sent > 0 {
			cs.ShedRate = float64(cs.Shed) / float64(cs.Sent)
		}
		cs.P50MS = quantile(lats[class], 0.50)
		cs.P99MS = quantile(lats[class], 0.99)
		rep.Classes[class] = cs
	}
	shedRate := func(class string) float64 {
		if surgeSent[class] == 0 {
			return 0
		}
		return float64(surgeShed[class]) / float64(surgeSent[class])
	}
	degradedRate := func(class string) float64 {
		if surgeAdmit[class] == 0 {
			return 0
		}
		return float64(surgeDegraded[class]) / float64(surgeAdmit[class])
	}
	rep.SurgeShedRate = map[string]float64{}
	rep.SurgeDegradedRate = map[string]float64{}
	for class := range surgeSent {
		rep.SurgeShedRate[class] = shedRate(class)
		rep.SurgeDegradedRate[class] = degradedRate(class)
	}
	rep.BatchSurgeShedRate = shedRate("batch")
	rep.ClassOrderOK = rep.Classes["alerting"].Shed == 0 &&
		surgeShed["batch"] > 0 &&
		degradedRate("batch") >= degradedRate("interactive")

	// Recovery probe: the wave has drained, pressure is back to zero, and a
	// batch-class request must ride the full pipeline again.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(`{"slot":10,"roads":[1]}`))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", classKeys["batch"])
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	var out struct {
		Quality string `json:"quality"`
	}
	if err := jsonDecode(resp.Body, &out); err != nil {
		resp.Body.Close()
		return nil, err
	}
	resp.Body.Close()
	rep.RecoveredFullTier = resp.StatusCode == http.StatusOK && out.Quality == "full"

	return rep, nil
}

func jsonDecode(r io.Reader, v interface{}) error { return json.NewDecoder(r).Decode(v) }

// quantile returns the q-quantile of xs in place (nearest-rank); 0 when
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)-1))
	return xs[i]
}
