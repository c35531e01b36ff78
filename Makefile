GO ?= go

.PHONY: all build vet test race fault-determinism race-hotpath race-suite fuzz-seed fuzz-snapshot refit-drill bench-check check bench bench-concurrent bench-all bench-record

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault injector and the resilient pipeline promise bit-for-bit replay
# under a fixed seed. Running every fault-related test twice in one process
# catches hidden shared state (package-level RNGs, leaked counters). The
# instrumented pipeline's exact-snapshot replay runs ten times, so a relapse
# into scheduling-dependent counters fails here every time.
fault-determinism:
	$(GO) test -run Fault -count=2 ./...
	$(GO) test -run 'PipelineDeterministic' -count=10 ./internal/core/

# Concurrency regression suite for the online hot path: the CorrRow
# singleflight (one Dijkstra under 32 hammering goroutines), the parallel
# greedy equivalence corpus, mixed-slot System.Query under LRU eviction, the
# legacy/sharded determinism check, and the PR-3 model hot-swap under 32
# concurrent resilient clients — all under the race detector.
race-hotpath:
	$(GO) test -race -run 'Singleflight|ConcurrentMixedRows|ParallelEquivalence|ParallelSharedOracle|ConcurrentQueryMixedSlots|DeterministicAcrossOracleEngines|HotSwapRaceUnderLoad' \
		./internal/corr/ ./internal/ocs/ ./internal/core/

# Fuzz harnesses: the snapshot codec and every POST body of the HTTP route
# inventory. fuzz-seed replays the checked-in seed corpora (fast,
# deterministic — part of `make check`); fuzz-snapshot explores new snapshot
# inputs for a bounded time.
fuzz-seed:
	$(GO) test -run FuzzSnapshotRoundTrip ./internal/modelstore/
	$(GO) test -run FuzzAPIRequestBodies ./internal/server/

fuzz-snapshot:
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime 15s ./internal/modelstore/

# Full race-detector pass over every package with concurrent state: the query
# pipeline, the correlation oracle, the report collector, the HTTP surface
# (including the 32-client metrics-scrape-during-hot-swap test) and the
# instrument primitives themselves.
race-suite:
	$(GO) test -race ./internal/core/ ./internal/corr/ ./internal/stream/ \
		./internal/server/ ./internal/obs/

# Guard against perf regressions: rtsebench -check validates every
# checked-in bench baseline (BENCH_PR2.json … BENCH_PR10.json) with its
# suite's pass predicate, then re-runs each suite at a reduced size against
# it. It fails on >25% throughput loss (machine-calibrated), a lifecycle
# latency beyond 5× its baseline, a sweep ratio below the ≥2× coalescing
# target or coalesced estimates that diverge beyond the GSP epsilon, any
# alerting-class shed or a broken QoS ladder, a metro e2e query over its 1s
# budget, a temporal filter that stops beating per-slot GSP, interval
# coverage out of its binomial band, or an OCS objective that stops earning
# its name. cmd/rtsebench/suite.go holds the registry.
bench-check:
	$(GO) run ./cmd/rtsebench -check

# End-to-end lifecycle drill under the race detector: streamed reports are
# folded into a refit, gated, published and hot-swapped; a corrupted
# candidate is refused; the operator rolls back and reloads forward.
refit-drill:
	$(GO) test -race -run 'RefitDrill|RefitOnce|Refitter' -v ./internal/modelstore/

check: vet build race fault-determinism race-hotpath race-suite fuzz-seed bench-check

# The perf-trajectory suite: legacy (mutex oracle, sequential OCS) vs sharded
# singleflight engine at 1/4/16 concurrent clients, plus the wall-clock sweep
# that records both numbers in BENCH_PR2.json. Save `go test -bench` output
# per commit and compare with benchstat (see EXPERIMENTS.md "Perf
# trajectory").
bench: bench-concurrent
	$(MAKE) bench-record SUITE=qps

bench-concurrent:
	$(GO) test -run '^$$' -bench 'Concurrent|OracleRowThroughput' -benchmem -benchtime 2s .

# Every benchmark in the repo (paper figures + ablations + perf suite).
bench-all:
	$(GO) test -bench=. -benchmem

# Re-record one bench suite's baseline at full size, e.g.
# `make bench-record SUITE=metro`. Suites: qps (BENCH_PR2.json), lifecycle
# (PR3), batch (PR5), load (PR6), metro (PR7, ~1 min at 100k roads),
# temporal (PR8), calib (PR9), route (PR10). A run that fails its suite's
# pass predicate is not written.
bench-record:
	$(GO) run ./cmd/rtsebench -record $(SUITE)
