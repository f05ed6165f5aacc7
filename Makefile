# Developer / CI entry points. `make ci` is what every PR must keep green:
# lint (repolint static determinism/hot-path pass + gofmt -l + vet — the
# static half of the byte-identity contract; see internal/lint), build, the
# full test suite under the race detector (the sweep engine
# is concurrent; -race is not optional), the multi-core sweep speedup
# gate (TestSweepWorkersGate — BenchmarkSweepWorkersMax must beat
# BenchmarkSweepWorkers1 by ≥2×; self-skips on single-CPU runners), and the
# batch-kernel speedup gate (TestGridBatchSpeedupGate — sim.SearchBatch must
# beat the scalar path ≥3× on a 64-lane grid row, bit-identically), and the
# sampler convergence smoke (convcheck — stratified error ≤ pseudo error).
#
# `make profile` records CPU/heap profiles of the hot benchmarks into
# profiles/; inspect with `go tool pprof -top profiles/cpu.prof` (or
# `-http=:8081` for the flame graph).

GO ?= go
FUZZTIME ?= 10s
# QUICK=1 bounds every bench-running target to 100 iterations per benchmark
# (-benchtime=100x) so the blocking CI bench job finishes in predictable
# time; without it benchmarks run the default 1s per benchmark.
BENCHTIME := $(if $(QUICK),100x,1s)

.PHONY: ci lint vet build test race gate batchgate convcheck bench bench-ci benchcheck-history fuzz shardcheck loadcheck chaoscheck profile

# loadcheck proves the rvserved serving path under real load: it builds the
# daemon, boots it on an ephemeral port, drives LOADCLIENTS concurrent
# clients for LOADDURATION (a synchronized cold burst, then a mixed
# point-query/sweep steady state), and asserts the singleflight dedup
# counter moved, repeats hit the cache, /metrics stays coherent
# (hits+misses == lookups), and the SIGTERM flush leaves a loadable
# warm-start file. Reports client-observed p50/p99 latency and hit ratio.
LOADCLIENTS ?= 8
LOADDURATION ?= 5s
loadcheck:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvserved" ./cmd/rvserved; \
	$(GO) run ./cmd/loadcheck -server "$$tmp/rvserved" -clients $(LOADCLIENTS) -duration $(LOADDURATION)

# chaoscheck is the crash-safety gate: real rvserved processes under
# deterministic fault injection (-chaos), SIGKILL power cuts, a scripted
# crash point, and journal corruption. Asserts responses stay byte-identical
# to a fault-free control, a power cut loses at most one journal window of
# cached results, and damaged lines are counted (cache.corrupt) and
# quarantined — see cmd/chaoscheck.
chaoscheck:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvserved" ./cmd/rvserved; \
	$(GO) run ./cmd/chaoscheck -server "$$tmp/rvserved"

ci: lint build race gate batchgate convcheck

# lint is the static determinism & hot-path pass: gofmt drift, go vet, and
# repolint (internal/lint) — globalrand, walltime, maporder, floatfmt and
# boxing analyzers over every non-test file, with explicit
# `//lint:allow <analyzer> <reason>` as the only sanctioned suppression.
lint: vet
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift (run gofmt -w):"; echo "$$drift"; exit 1; fi
	$(GO) run ./cmd/repolint ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gate and batchgate set REPRO_TIMING_GATES=1, the opt-in for the wall-clock
# halves of the speedup gates; plain `go test ./...` runs only their
# deterministic halves (bit-identity), so it passes on any machine.
gate:
	REPRO_TIMING_GATES=1 $(GO) test -run TestSweepWorkersGate -count 1 -v .

# batchgate pins the SoA batch kernel's speedup over the scalar path (and
# their bit-identity) — see batch_gate_test.go.
batchgate:
	REPRO_TIMING_GATES=1 $(GO) test -run TestGridBatchSpeedupGate -count 1 -v .

# convcheck is the sampler-API smoke: the CONV convergence experiment on a
# small deterministic axis must show the stratified estimator at or below
# the pseudo baseline's error at the largest n (see
# internal/experiments/convergence.go; the recorded full table lives in
# BENCH_sim.json under "convergence").
convcheck:
	$(GO) test -run 'TestConvergence' -count 1 -v ./internal/experiments

# profile captures CPU and heap profiles of the search hot path and the
# batch-vs-scalar grid row benchmarks. One-liner to read them:
#   go tool pprof -top profiles/cpu.prof
profile:
	mkdir -p profiles
	$(GO) test -run NONE -bench 'BenchmarkE1SearchScaling$$|BenchmarkGridScalar$$|BenchmarkGridBatch$$' \
		-benchmem -benchtime=$(BENCHTIME) \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof .

# bench records the full benchmark suite — per-experiment tables, sweep
# scaling, cache warm/cold, and the simulator hot-path allocation gates
# (BenchmarkRendezvousHot / BenchmarkRunAllCached) — into BENCH_sim.json so
# the performance trajectory is tracked across PRs. The intermediate file
# (rather than a pipe) makes a failing benchmark run abort the recipe before
# BENCH_sim.json is touched, and the -merge + rename dance preserves the
# hand-recorded baseline_pre_pr section. Each recording is also appended to
# the committed BENCH_history.jsonl trajectory log (one JSON line per run),
# the data a windowed-median ns/op gate needs on noisy shared hardware.
# The -append guard refuses a history line whose benchmark set differs from
# the previous entry (protects the windowed gate's input); append
# APPENDFLAGS=-force after an intentional benchmark rename/removal.
bench:
	$(GO) test -run NONE -bench . -benchmem -benchtime=$(BENCHTIME) . > BENCH_sim.raw
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -merge BENCH_sim.json < BENCH_sim.raw > BENCH_sim.json.tmp
	mv BENCH_sim.json.tmp BENCH_sim.json
	rm -f BENCH_sim.raw
	$(GO) run ./cmd/benchjson $(APPENDFLAGS) -append BENCH_history.jsonl < BENCH_sim.json

# benchcheck-history is the windowed regression gate the blocking CI bench
# job runs: the fresh run is compared per benchmark against the median of
# the last 5 committed BENCH_history.jsonl entries — allocs/op strictly
# (benchtime-insensitive, so it blocks even under QUICK=1), ns/op with a
# 25% tolerance and only against entries recorded at the same benchtime
# (a 100x run is not ns-comparable to a 1s run). With fewer than 3
# committed entries the gate self-skips and arms itself as history
# accumulates.
benchcheck-history:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run NONE -bench . -benchmem -benchtime=$(BENCHTIME) . > "$$tmp"; \
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -compare-history BENCH_history.jsonl < "$$tmp"

# bench-ci is the hosted bench job: ONE quick benchmark run feeds both
# benchjson consumers — the blocking windowed history gate and the
# recorded BENCH_sim.json/history artifact — so the gated numbers are
# exactly the recorded numbers and the suite is not executed twice. Under
# QUICK=1 the history gate blocks on allocs/op only: ns/op medians require
# same-benchtime history entries, and QUICK entries are appended in the
# runner workspace, not committed — ns/op gating happens on local
# full-benchtime `make benchcheck-history` runs against the committed 1s
# history.
bench-ci:
	@set -e; \
	$(GO) test -run NONE -bench . -benchmem -benchtime=$(BENCHTIME) . > BENCH_sim.raw; \
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -compare-history BENCH_history.jsonl < BENCH_sim.raw; \
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -merge BENCH_sim.json < BENCH_sim.raw > BENCH_sim.json.tmp; \
	mv BENCH_sim.json.tmp BENCH_sim.json; \
	rm -f BENCH_sim.raw; \
	$(GO) run ./cmd/benchjson $(APPENDFLAGS) -append BENCH_history.jsonl < BENCH_sim.json

# shardcheck proves the distributed shard/merge path end to end: a 3-way
# subprocess run of the full suite (and of a grid sweep) must render
# byte-identically to the single-process run; so must a streaming merge
# (-stream / experiments -merge-dir, ingesting record files as they land)
# with one straggler shard whose first attempt is killed and retried
# (scripts/flaky-shard.sh fails shard 1/3 once, -retries recovers it).
shardcheck:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments; \
	$(GO) build -o "$$tmp/shardall" ./cmd/shardall; \
	"$$tmp/experiments" -seed 7 > "$$tmp/single.txt"; \
	"$$tmp/shardall" -bin "$$tmp/experiments" -k 3 -seed 7 > "$$tmp/merged.txt"; \
	diff "$$tmp/single.txt" "$$tmp/merged.txt"; \
	"$$tmp/experiments" -seed 3 -samples 4 -grid "v=0.25:0.75:0.25" -grid "phi=0:2:1" > "$$tmp/gsingle.txt"; \
	"$$tmp/shardall" -bin "$$tmp/experiments" -k 4 -seed 3 -samples 4 -grid "v=0.25:0.75:0.25" -grid "phi=0:2:1" > "$$tmp/gmerged.txt"; \
	diff "$$tmp/gsingle.txt" "$$tmp/gmerged.txt"; \
	FLAKY_BIN="$$tmp/experiments" FLAKY_SHARD=1/3 FLAKY_MARK="$$tmp/flaky.mark" \
	  "$$tmp/shardall" -bin scripts/flaky-shard.sh -k 3 -seed 7 -retries 1 -stream \
	  > "$$tmp/streamed.txt" 2> "$$tmp/straggler.log"; \
	diff "$$tmp/single.txt" "$$tmp/streamed.txt"; \
	grep -q "retrying" "$$tmp/straggler.log"; \
	echo "shard/merge output is byte-identical to the single-process run (incl. streaming merge with a retried straggler)"

# Short fuzz passes over the property-based targets: grid-spec, shard-spec
# and sampler-name parsing; τ-decomposition, Lambert W and the round bound
# of Theorem 4; QR decomposition and the μ/frame identity; the linear×linear
# and arc×static closed forms against a dense reference; the equal-ω arc×arc
# closed form against the safe-advance fallback; placement under a cached
# frame (Mover.SetFramed) against Set on the framed segment; the scalar
# rendezvous walks against FirstMeeting over Transform-framed programs; the
# batch-vs-scalar kernel differential; the shared-clock gathering walk
# against the frozen per-robot walk; journal crash recovery — arbitrary
# journal bytes must load without error and yield exactly the CRC-valid
# clean prefix; the lazy pseudo stream against math/rand's rngSource for
# an arbitrary seed and stream length; and rvserved's HTTP boundary — arbitrary bodies to every POST
# endpoint answer only 200/400/429/503, and every 200 rendezvous or sweep
# equals an in-process recomputation. Override FUZZTIME for shorter/longer
# passes, e.g. `make fuzz FUZZTIME=5s`.
fuzz:
	$(GO) test -run NONE -fuzz FuzzParseAxis -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run NONE -fuzz FuzzParseShard -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run NONE -fuzz FuzzParseSampler -fuzztime $(FUZZTIME) ./internal/sampler
	$(GO) test -run NONE -fuzz FuzzPseudoMatchesMathRand -fuzztime $(FUZZTIME) ./internal/sampler
	$(GO) test -run NONE -fuzz FuzzDecomposeTau -fuzztime $(FUZZTIME) ./internal/bounds
	$(GO) test -run NONE -fuzz FuzzLambertW0 -fuzztime $(FUZZTIME) ./internal/bounds
	$(GO) test -run NONE -fuzz FuzzRendezvousRoundBound -fuzztime $(FUZZTIME) ./internal/bounds
	$(GO) test -run NONE -fuzz FuzzQRDecompose -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run NONE -fuzz FuzzMuFrameConsistency -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run NONE -fuzz FuzzLinearLinear -fuzztime $(FUZZTIME) ./internal/motion
	$(GO) test -run NONE -fuzz FuzzCircularStatic -fuzztime $(FUZZTIME) ./internal/motion
	$(GO) test -run NONE -fuzz FuzzEqualOmegaContact -fuzztime $(FUZZTIME) ./internal/motion
	$(GO) test -run NONE -fuzz FuzzSetFramedMatchesSet -fuzztime $(FUZZTIME) ./internal/motion
	$(GO) test -run NONE -fuzz FuzzRendezvousMatchesComposed -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run NONE -fuzz FuzzBatchMatchesScalar -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run NONE -fuzz FuzzGatherMatchesReference -fuzztime $(FUZZTIME) ./internal/gather
	$(GO) test -run NONE -fuzz FuzzJournalRecover -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run NONE -fuzz FuzzHandlers -fuzztime $(FUZZTIME) ./cmd/rvserved
