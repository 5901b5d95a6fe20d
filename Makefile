# Repro of "Physical Synthesis of Flow-Based Microfluidic Biochips
# Considering Distributed Channel Storage" (DATE 2019). Stdlib-only Go.

GO ?= go

.PHONY: all build vet vet-svcbench test race race-hot check bench bench-smoke bench-load bench-multicore cluster-bench load-bench session-bench overload-bench verify regress table1 clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# svcbench is its own module (replace repro => ../) built from this
# tree's server, cache, journal, session and pipeline packages, so vet
# builds it too: a refactor that breaks the benchmark fails here, not on
# the next benchmark run. It uses the ordinary go cache; svcbench/run.sh
# keeps its own under .bench_build/svcbench, which its sweep owns.
vet-svcbench:
	cd svcbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Extra race pass over the packages with real concurrency (worker pools,
# HTTP handlers, metric registries, the cache entry's one shared decode
# and the sessions that pin it); -count=2 reorders goroutine
# interleavings cheaply. CI and `make check` both run exactly this
# target, so the package list lives in one place.
race-hot:
	$(GO) test -race -count=2 ./internal/obs/ ./internal/server/ ./internal/jobq/ ./internal/solcache/ ./internal/session/

# The full pre-merge gate: compile, vet (this module and svcbench),
# race-enabled tests, the hot concurrency packages twice, and smoke runs
# of the performance-critical and serving benchmarks.
check: build vet vet-svcbench race race-hot bench-smoke bench-load

# Full benchmark suite with allocation counts (slow).
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmarks the smoke run must still find; a renamed or deleted
# benchmark silently matches nothing with a bare -bench regex, so the run
# greps its own output for each name and fails loudly instead.
BENCH_SMOKE_NAMES := BenchmarkSynthesisCPU BenchmarkAnnealEnergy BenchmarkAnnealMix BenchmarkAStarSynthetic4 BenchmarkQuench
BENCH_SMOKE_REGEX := BenchmarkSynthesisCPU|BenchmarkAnnealEnergy|BenchmarkAnnealMix|BenchmarkAStarSynthetic4|BenchmarkQuench

# Quick sanity pass over the optimized hot paths: one iteration each of
# the placement (Synthetic4, and the service's cold-request shapes),
# quench, routing and end-to-end synthesis benchmarks.
bench-smoke:
	@out=$$($(GO) test -run xxx -bench '$(BENCH_SMOKE_REGEX)' -benchtime 1x . ./internal/place/ 2>&1); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for b in $(BENCH_SMOKE_NAMES); do \
		echo "$$out" | grep -q "$$b" || { echo "bench-smoke: benchmark $$b missing from output" >&2; exit 1; }; \
	done

# Serving and workload-engine benchmarks, same loud-fail guard: the warm
# single-submit hit, request-to-cache-key resolution, the warm
# batch-submit path, schedule materialization, the journal's accept and
# terminal appends, solution encode and decode, Algorithm 1 scheduling,
# a session repair held at each rung of the ladder, the session
# fingerprint taken in full and resumed after the document's head, the
# assay's canonical encoding, a session open on a checked entry, a whole
# session script (open, six reroutes, close) through the handler and
# the audit of a reroute candidate must all still exist by name.
BENCH_LOAD_NAMES := BenchmarkServeCacheHit BenchmarkCacheKey BenchmarkBatchSubmit BenchmarkScheduleBuild BenchmarkJournalAppend BenchmarkSolioEncode BenchmarkSolioDecode BenchmarkScheduleAlgorithm1 BenchmarkSessionRepair/reroute BenchmarkSessionRepair/reschedule BenchmarkSessionRepair/dilate BenchmarkSessionRepair/sa BenchmarkSessionFingerprint/full BenchmarkSessionFingerprint/resume BenchmarkAssayMarshal BenchmarkSessionOpen BenchmarkSessionScript BenchmarkAuditRepair
BENCH_LOAD_REGEX := BenchmarkServeCacheHit|BenchmarkCacheKey|BenchmarkBatchSubmit|BenchmarkScheduleBuild|BenchmarkJournalAppend|BenchmarkSolioEncode|BenchmarkSolioDecode|BenchmarkScheduleAlgorithm1|BenchmarkSessionRepair|BenchmarkSessionFingerprint|BenchmarkAssayMarshal|BenchmarkSessionOpen|BenchmarkSessionScript|BenchmarkAuditRepair

bench-load:
	@out=$$($(GO) test -run xxx -bench '$(BENCH_LOAD_REGEX)' -benchtime 1x ./internal/server/ ./internal/loadgen/ ./internal/journal/ ./internal/solio/ ./internal/session/ ./internal/schedule/ ./internal/assay/ ./internal/verify/ 2>&1); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for b in $(BENCH_LOAD_NAMES); do \
		echo "$$out" | grep -q "$$b" || { echo "bench-load: benchmark $$b missing from output" >&2; exit 1; }; \
	done

# Multicore-path benchmarks: parallel-tempering placement and concurrent
# slot-disjoint routing at pool sizes 1 and 4, with allocation counts, plus
# the serving hot-path allocation benchmarks. Same missing-benchmark guard
# as bench-smoke: a renamed benchmark must fail loudly, not match nothing.
BENCH_MULTICORE_NAMES := BenchmarkAnnealTempered BenchmarkRouteParallel
BENCH_MULTICORE_REGEX := BenchmarkAnnealTempered|BenchmarkRouteParallel

bench-multicore:
	@out=$$($(GO) test -run xxx -bench '$(BENCH_MULTICORE_REGEX)' -benchmem -benchtime 1x . 2>&1); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for b in $(BENCH_MULTICORE_NAMES); do \
		echo "$$out" | grep -q "$$b" || { echo "bench-multicore: benchmark $$b missing from output" >&2; exit 1; }; \
	done
	$(GO) test -run xxx -bench 'BenchmarkServeCacheHit|BenchmarkWriteJSON|BenchmarkCompleteChurn' -benchmem ./internal/server/ ./internal/jobq/

# Cluster scaling ladder, the same run as the CI cluster job: mfload
# starts 1..3 real mfserved processes (one worker, GOMAXPROCS=1 each) as
# one consistent-hash ring, replays the closed-loop heavytail profile
# cold and then warm on each rung, checks the merged trace of a request
# the 3-node ring forwarded, and writes the per-rung reports before
# asserting the ladder (both passes complete every request, warm passes
# all hits, peer serves from 2 nodes on, 2x warm throughput where the
# host has a CPU per node). Only a ladder that passes replaces
# BENCH_cluster.json; a failing one leaves its numbers in
# BENCH_cluster.new.json. The regression checker then gates the 1-node
# reference entry (costs exact, wall time within the recorded
# tolerance). Seed 19 sends 10 of its schedule's 12 keys, warm, to a node
# that never saw them cold, so a working ring shows peer serves whatever
# ports it hashes.
cluster-bench:
	$(GO) build -o mfserved ./cmd/mfserved
	$(GO) run ./cmd/mfload -nodes 3 -mfserved ./mfserved -profile heavytail -duration 3s -seed 19 \
		-o BENCH_cluster.new.json -trace cluster_trace.json
	mv BENCH_cluster.new.json BENCH_cluster.json
	$(GO) run ./cmd/mfbench -regress BENCH_cluster.json -bench Synthetic1

# Workload engine against an in-process server: replay the steady
# profile for 5 s, write BENCH_load.json, then gate its Synthetic1
# reference entry with the regression checker — the same seal the other
# BENCH documents carry.
load-bench:
	$(GO) run ./cmd/mfload -spawn -profile steady -duration 5s -o BENCH_load.json
	$(GO) run ./cmd/mfbench -regress BENCH_load.json -bench Synthetic1

# Online-repair workload: replay the session profile (closed-loop chip
# sessions with seeded mid-assay fault reports) against an in-process
# server, gate the report's Synthetic1 reference entry, then print the
# incremental-repair-vs-full-resynthesis comparison table.
session-bench:
	$(GO) run ./cmd/mfload -spawn -profile session -duration 5s -o BENCH_session.json
	$(GO) run ./cmd/mfbench -regress BENCH_session.json -bench Synthetic1
	$(GO) run ./cmd/mfbench -repair

# Overload envelope: drive the breaker/shed path on a deliberately tiny
# spawned server (1 worker, 8-deep queue). mfload itself enforces the
# profile's bounded-nonzero shed-rate envelope and the >=1-completed
# rule, so a server that never sheds — or dies — fails the target.
overload-bench:
	$(GO) run ./cmd/mfload -spawn -spawn-workers 1 -spawn-queue 8 -profile overload -duration 3s -o BENCH_overload.json
	$(GO) run ./cmd/mfbench -regress BENCH_overload.json -bench Synthetic1

# Independent audit of every benchmark's synthesized solution (and the
# baseline-BA variant) against the from-scratch constraint model.
verify:
	$(GO) run ./cmd/mfverify -bench all

# Benchmark-regression gate against both checked-in baselines: the
# sequential default path (BENCH_baseline.json) and the combined
# tempering+wave-routing configuration (BENCH_multicore.json). Costs must
# match exactly for each baseline's recorded options; the multicore time
# gate self-disables below its min_cpus.
regress:
	$(GO) run ./cmd/mfbench -j 2 -regress BENCH_baseline.json,BENCH_multicore.json -regress-out bench_regress.json

# Regenerate the paper's Table I.
table1:
	$(GO) run ./cmd/mfbench -table1

clean:
	$(GO) clean ./...
	rm -f mfserved BENCH_cluster.new.json
