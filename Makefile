# Single source of truth for the build/test commands; CI runs exactly
# these targets (.github/workflows/ci.yml), so a green `make ci` locally
# means a green pipeline.

GO ?= go

.PHONY: all build test perfbench-test race bench bench-cold profile bench-contention bench-trace bench-faults bench-avail bench-json stdfs-smoke distfault-smoke sim-diff loc fmt vet fmt-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark (perfbench/) is its own module, so the root
# `go test ./...` skips it; this target builds it against the current
# tree and runs its tests, so an API break to the harness fails CI.
perfbench-test:
	cd perfbench && $(GO) test ./...

# The concurrency suite: the sharded buffer cache, concurrent trace
# replay, the page-table fuzz corpus, and the web server all run under
# the race detector. The explicit -run Fuzz pass replays the checked-in
# fuzz seed corpora (trace decode, dump parse, page table, the fault,
# shed, inject, retry and op-mask grammars, and the JSON options
# loader) as regular race-instrumented tests.
race:
	$(GO) test -race ./...
	$(GO) test -race -run 'Fuzz' ./internal/trace/ ./internal/buffercache/ ./internal/simdisk/ ./internal/netsim/ ./internal/webserver/ ./internal/fsim/ ./internal/core/

# Benchmark smoke: every benchmark runs exactly once so regressions in
# the harness itself (not perf) surface in CI quickly.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Cold-path smoke: the miss/evict cycle and the simdisk model benchmarks
# run once, named explicitly. `make bench` already covers them via its
# -bench=. sweep; this target exists so the cold path stays exercised
# even if that pattern is ever narrowed, and as the one-command repro
# for cold-path harness breakage.
bench-cold:
	$(GO) test -run '^$$' -bench 'BenchmarkCacheMissEvict|BenchmarkCacheShardedLookup' -benchtime=1x ./internal/buffercache
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/simdisk

# CPU profiles of the two engine hot loops: the out-of-core replay
# (BenchmarkReplayStream) and the warm-hit shard sweep
# (BenchmarkCacheShardScalingReadHit). Test binaries and profiles land
# in .bench_build/ (gitignored); each profile's top 15 functions print.
PROFILE_DIR := $(CURDIR)/.bench_build
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkReplayStream' -o $(PROFILE_DIR)/tracesim.test -cpuprofile $(PROFILE_DIR)/replay_stream.pprof ./internal/tracesim
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/tracesim.test $(PROFILE_DIR)/replay_stream.pprof
	$(GO) test -run '^$$' -bench 'BenchmarkCacheShardScalingReadHit' -o $(PROFILE_DIR)/buffercache.test -cpuprofile $(PROFILE_DIR)/shard_read_hit.pprof ./internal/buffercache
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/buffercache.test $(PROFILE_DIR)/shard_read_hit.pprof

# Contention smoke: the partitioned replay through the shared disk
# queue at 1, 4, and 8 lanes. One lane must serve inline (the private
# model nested exactly); 4 and 8 lanes exercise the event-merged
# dispatch gate end to end from the command line.
bench-contention:
	$(GO) run ./cmd/tracebench -app Parallel -workers 1 -concurrent -shards 8 -disk-queue shared -sched sstf
	$(GO) run ./cmd/tracebench -app Parallel -workers 4 -concurrent -shards 8 -disk-queue shared -sched sstf
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf

# Trace-pipeline smoke: the v2 encode/decode/replay benchmarks run once
# (records/sec, bytes/record, 0 allocs/record), then the out-of-core
# example streams a generator -> encoder -> pipe -> Scanner ->
# ReplayStream pipeline end to end and prints bytes/record and peak
# heap. Together they exercise every stage of the out-of-core path from
# the command line.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkScanV1|BenchmarkScanV2|BenchmarkEncodeV2' -benchtime=1x ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkReplayStream' -benchtime=1x ./internal/tracesim
	$(GO) run ./examples/outofcore -records 100000

# Fault-injection smoke: the degraded-mode path end to end. The
# fault-injected and rebuilding 8-lane replays must be bit-identical
# across runs under the race detector, then tracebench drives the same
# degraded RAID5 array from the command line: a dead member served by
# reconstruct-reads, seeded op-level injection absorbed by
# retry/backoff (budget <= max retries, so nothing fails), and the
# dead member rebuilding onto a spare through the shared queue while
# the foreground lanes replay.
bench-faults:
	$(GO) test -race -count=1 -run 'TestFaultInjectedReplayDeterministic|TestRebuildingReplayDeterministic' ./internal/tracesim
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf -disks 4 -raid raid5 -faults "fail:1@0s"
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf -disks 4 -raid raid5 -faults "fail:1@0s" -inject "seed=7,rate=20,budget=4" -retry "max=4,base=50us"
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf -disks 4 -raid raid5 -faults "fail:1@0s" -rebuild 1

# Availability smoke: the distributed fault-tolerance path end to end.
# The node-kill sweep (consistent-hash failover, RPC deadlines, backoff,
# the availability curve) must be bit-identical across ten runs under
# the race detector; then cmd/distbench drives the three ablation legs
# from the command line — healthy, a server killed at 20 ms, and the
# kill while every server rebuilds two dead mirror members from a
# 2-spare pool.
bench-avail:
	$(GO) test -race -count=10 -run 'TestNodeKillSweepDeterministic' ./internal/distbench
	$(GO) run ./cmd/distbench -nodes 8 -servers 3 -requests 32 -deadline 5ms -retry "max=3,base=200us" -curve=false
	$(GO) run ./cmd/distbench -nodes 8 -servers 3 -requests 32 -deadline 5ms -retry "max=3,base=200us" -net-faults "kill:server0@20ms"
	$(GO) run ./cmd/distbench -nodes 8 -servers 3 -requests 32 -deadline 5ms -retry "max=3,base=200us" -net-faults "kill:server0@20ms" -disks 3 -raid raid1 -faults "fail:1@0s,fail:2@0s" -spares 2 -rebuild 1,2 -curve=false

# Machine-readable bench trajectory: the hot-path microbenchmarks
# (including the engine-only miss/evict row and the per-record trace
# decode/replay rows), the trace-format bytes/record table, the
# shard/worker scaling, the write-back ablation, the shared-queue
# contention rows, and the degraded-mode fault_recovery ablation of
# the simulated-parallel replay, and the distributed availability
# ablation. CI uploads the file as an artifact;
# the committed copy tracks the trajectory in-repo and doubles as the
# regression baseline — the run fails if an engine-only guarded row
# (cache_warm_read_64k, cache_miss_evict, trace_decode_v1 or
# trace_decode_v2) regresses more than 25% against it. A failed run
# leaves the baseline untouched and writes the regressed report to
# BENCH_9.json.failed.json.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_9.json -baseline BENCH_9.json

# End-to-end smoke for the io/fs facade: the example runs unmodified
# stdlib code (fs.WalkDir, fs.ReadFile, archive/tar) against the
# simulated store and prints the ledger costs. It exercises directory
# synthesis, the handle Read/Seek path, and session-lane billing in one
# deterministic program.
stdfs-smoke:
	$(GO) run ./examples/stdfs

# Distributed-fault smoke: examples/distributed ends with the node-kill
# demo (three replicas, server0 killed at 20 ms, failover curve), and
# webbench's degraded mode sheds web-tier load while the RAID1 array
# rebuilds two members from the spare pool.
distfault-smoke:
	$(GO) run ./examples/distributed
	$(GO) run ./cmd/webbench -mode degraded -addr 127.0.0.1:0 -clients 12 -requests 40

# Simulated-output identity against another revision: builds the
# simulators at REV and from the working tree under .bench_build/sim-diff/,
# runs the fidelity command list (paper tables, the bench-contention,
# bench-faults and bench-avail lines, webbench tables,
# examples/distributed, benchjson's simulated rows) with both builds, and
# diffs every output; any difference fails the target. It compares two
# revisions, so `make ci` does not run it. Usage: make sim-diff REV=HEAD~
REV ?= HEAD
sim-diff:
	GO=$(GO) scripts/sim-diff.sh $(REV)

# Line counts: non-test and test .go lines for each package under
# internal/, then the totals for internal/ and cmd/. A change's net
# line delta is the difference of two runs of this target.
loc:
	@count() { find "$$@" -print0 | xargs -0r cat | wc -l; }; \
	for d in internal/* internal cmd; do \
		printf '%-24s src %6d  test %6d\n' "$$d" \
			$$(count $$d -name '*.go' ! -name '*_test.go') \
			$$(count $$d -name '*_test.go'); \
	done

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: build vet fmt-check test perfbench-test race bench bench-cold bench-contention bench-trace bench-faults bench-avail stdfs-smoke distfault-smoke
