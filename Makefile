# Makefile — CI entry points for the rexptree repository.
#
#   make check            fmt-check + vet + build + tests (bench/ module too) + race + determinism + crash matrix + bench smokes
#   make crash-matrix     the durable trees' crash and power-loss tests, three times over
#   make bench            the repository benchmark (BENCHMARK.json) -> bench/out/runs.jsonl
#   make bench-compare A=a.jsonl B=b.jsonl   compare two benchmark runs, run against run
#   make bench-update     the update path's microbenchmarks (kernel, computeBR, one update, batched updates, a durable body)
#   make bench-obs        metrics-overhead microbenchmark -> BENCH_obs.json
#   make bench-shard      concurrent-throughput comparison -> BENCH_shard.json
#   make bench-partition  hash vs speed partitioning -> BENCH_partition.json
#   make bench-wal        durability-policy comparison -> BENCH_wal.json
#   make bench-reshard    live-reshard cost comparison -> BENCH_reshard.json
#   make bench-trace      tracing-overhead microbenchmark -> BENCH_trace.json
#   make serve-smoke      the README serving quickstart, end to end
#   make bench-serve      rexpd + remote loadgen -> BENCH_serve.json
#   make bench-repl       replication catch-up/lag/overhead -> BENCH_repl.json
#   make fault-matrix     the replication fault-injection matrix, under -race
#   make all              check + all benchmarks

GO ?= go

.PHONY: all check fmt-check vet build test test-bench race determinism crash-matrix fuzz-smoke bench bench-compare bench-update bench-obs bench-obs-smoke bench-shard bench-partition bench-partition-smoke bench-wal bench-wal-smoke bench-reshard bench-reshard-smoke bench-trace bench-trace-smoke serve-smoke bench-serve bench-serve-smoke bench-repl bench-repl-smoke fault-matrix clean

all: check bench-obs bench-shard bench-partition bench-wal bench-reshard bench-trace bench-serve bench-repl

check: fmt-check vet build test test-bench race determinism crash-matrix bench-obs-smoke bench-partition-smoke bench-wal-smoke bench-reshard-smoke bench-trace-smoke serve-smoke bench-serve-smoke bench-repl-smoke

# Fails (with the offending file list) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a module of its own, so ./... above does not reach it.  Its
# smoke test runs every workload of BENCHMARK.json at 2 000 objects with
# the oracle, read-your-writes and crash checks on (~10 s).
test-bench:
	cd bench && $(GO) test ./...

# The instrumentation and the concurrent query path must hold up under
# the race detector: metric counters are read (snapshots, Prometheus
# scrapes) and queries fan out while parallel Update load runs.  The
# delete locator's tables are writer-private; ./... runs the trees that
# maintain them under concurrent readers, and ./internal/core's
# differential test, under the detector.
race:
	$(GO) test -race ./...

# The asynchronous control paths must not depend on how the scheduler
# interleaves them: the reshard tests (start, status, cancel, cutover
# under load) run three times at one, two and four processors.  The
# tier-1 run covers them once at the host's own count only.  One golden
# stream rides along: its deletes go through the locator, whose tables
# are Go maps, and "same seed, same pages" must not depend on them.
determinism:
	$(GO) test -count=3 -cpu 1,2,4 -run 'Reshard' . ./internal/server
	$(GO) test -count=3 -cpu 1,2,4 -run 'TestGoldenTrees/near-optimal/stored-exp' ./internal/core

# Every way a durable tree is killed — WAL lifecycle faults, storage
# faults, Abandon mid-stream, a power loss that drops or tears the page
# file's un-fsynced writes — must recover to the acknowledged prefix.
# Three runs: recovery re-applies page images in map order, which
# differs from run to run.
crash-matrix:
	$(GO) test -run 'TestDurable|TestShardedDurable' -count=3 .

# A short run of each native fuzz target: the manifest decode/encode
# round trip, the time-parameterized intersection kernel, the compiled
# query predicate against it (entries placed ulps from a region edge),
# the near-optimal bridge search against its sort-and-scan reference, and
# the write-ahead-log frame scanner (arbitrary bytes must never panic
# and torn tails must only ever drop trailing records), and the delete
# locator against the paper's leaf search over op bytes.  Ten seconds
# each is enough to shake out regressions in the properties; leave the
# targets running longer locally when hunting.
fuzz-smoke:
	$(GO) test ./internal/manifest -run '^$$' -fuzz FuzzManifestRoundTrip -fuzztime 10s
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzTrapezoidIntersect -fuzztime 10s
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzCompiledVsIntersects -fuzztime 10s
	$(GO) test ./internal/hull -run '^$$' -fuzz FuzzNearOptimalBridge -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzWALRoundTrip -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz FuzzDualApplySchedule -fuzztime 10s
	$(GO) test ./internal/repl -run '^$$' -fuzz FuzzReplFrameRoundTrip -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLocateVsSearch -fuzztime 10s -fuzzminimizetime 2s

# The repository's benchmark, the reference for every performance
# claim: all four workloads of BENCHMARK.json, built and run from this
# checkout, appending to bench/out/runs.jsonl.  bench-compare sets two
# such files against each other, run against run of the same seed and
# window, and exits 1 on a metric that got worse beyond its bound.
bench:
	bash bench/run.sh

bench-compare:
	bash bench/run.sh --compare $(A) $(B)

# The update path from the inside out: ChooseSubtree's per-entry
# enlargement metric, the near-optimal TPBR kernel on a full leaf's
# worth of entries, computeBR and the page encoding of a full leaf and
# a full internal node, the pool's flush of one dirty page among many
# clean ones, one steady-state update (delete + insert) through the
# public tree, the same update per report in batches of 1, 25 and 100,
# and a 25-report body acknowledged by a durable tree behind a 16-page
# pool (with its fsyncs and checkpoints per body).  -benchmem's
# allocs/op of the update benchmarks is the path's allocation budget
# (8 / 3 / 2 per report in batches of 1 / 25 / 100 since a published
# page costs two objects; the search's appends cost three more).
# Prints to the terminal; bench/ holds the numbers that count.
bench-update:
	$(GO) test ./internal/geom -run '^$$' -bench 'BenchmarkEnlargement$$' -benchmem
	$(GO) test ./internal/hull -run '^$$' -bench 'BenchmarkNearOptimal$$' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkComputeBR|BenchmarkEncode' -benchmem
	$(GO) test ./internal/storage -run '^$$' -bench 'BenchmarkFlushOneDirty' -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkUpdateThroughput$$|BenchmarkUpdateBatch|BenchmarkDurableBatch' -benchmem

# Compares instrumented vs. nil-metrics Update/query throughput; the
# observability layer's budget is a <2% regression.
bench-obs:
	$(GO) run ./cmd/rexpobsbench -out BENCH_obs.json

# A fast pass of the same benchmark, as a smoke test for make check:
# it exercises the full instrumented workload path without committing
# a result file.
bench-obs-smoke:
	$(GO) run ./cmd/rexpobsbench -scale 0.01 -rounds 1 -out -

# Single-mutex vs RWMutex vs sharded throughput under the modeled
# I/O-bound regime (see cmd/rexpbench/concurrent.go).
bench-shard:
	$(GO) run ./cmd/rexpbench -throughput -shardout BENCH_shard.json

# Hash vs speed-band shard partitioning on a spatially-correlated
# mixed-speed workload: shard visits, pruning ratio, query throughput,
# and a result-set equality check (see cmd/rexpbench/partition.go).
bench-partition:
	$(GO) run ./cmd/rexpbench -partitionbench -partout BENCH_partition.json

# A fast pass of the partition comparison for make check: it exercises
# loading, re-routing, pruning and the equality check without
# committing a result file.
bench-partition-smoke:
	$(GO) run ./cmd/rexpbench -partitionbench -objects 2000 -duration 0.2 -quiet -partout -

# Update throughput under each durability policy — none (legacy), WAL
# with batched fsync, WAL with fsync-per-commit — plus the WAL traffic
# each one generates (see cmd/rexpbench/durability.go).
bench-wal:
	$(GO) run ./cmd/rexpbench -durability -walout BENCH_wal.json

# A fast pass of the durability comparison for make check: it exercises
# the WAL append/commit/checkpoint path under all three policies
# without committing a result file.
bench-wal-smoke:
	$(GO) run ./cmd/rexpbench -durability -objects 2000 -duration 0.4 -quiet -walout - >/dev/null

# What an online reshard costs the serving path: the same mixed
# query/update load measured in steady state and again while the index
# live-reshards to a speed-banded layout, plus the cutover's exclusive
# mutation stall (see cmd/rexpbench/livereshard.go and the
# ARCHITECTURE.md "Live reshard" section).
bench-reshard:
	$(GO) run ./cmd/rexpbench -livereshard -objects 20000 -duration 2 -iolat 0 -reshardout BENCH_reshard.json

# A fast pass of the live-reshard comparison for make check: it
# exercises the snapshot scan, dual-apply window, backfill, verify and
# cutover under concurrent load without committing a result file.
bench-reshard-smoke:
	$(GO) run ./cmd/rexpbench -livereshard -objects 3000 -duration 0.3 -iolat 0 -quiet -reshardout - >/dev/null

# Compares tracing-disabled vs tracing-enabled throughput: the
# always-on (recorder off) cost must stay under the same <2% budget as
# the base instrumentation; the flight-recorder-on cost is reported for
# information (see cmd/rexpobsbench/trace.go).
bench-trace:
	$(GO) run ./cmd/rexpobsbench -trace -out BENCH_trace.json

# A fast pass of the tracing benchmark for make check: it exercises the
# traced query/update paths and the flight recorder without committing
# a result file.
bench-trace-smoke:
	$(GO) run ./cmd/rexpobsbench -trace -scale 0.005 -rounds 1 -out - >/dev/null

# The README "Serving" quickstart as a test: rexpgen a workload, serve
# it with rexpd, ingest through rexpbench -remote -replay, query over
# HTTP, scrape /metrics, SIGTERM, assert a clean drain (see
# cmd/rexpd/main_test.go).
serve-smoke:
	$(GO) test ./cmd/rexpd -run 'TestServeSmoke|TestDrainNoAckedLossAcrossProcess' -count 1 -v

# Serving-layer throughput: spawn rexpd, drive concurrent mixed
# update/query HTTP load, SIGTERM it, and record sustained updates/sec
# and query latency percentiles (see cmd/rexpbench/remote.go).
bench-serve: bin/rexpd
	$(GO) run ./cmd/rexpbench -spawn bin/rexpd -objects 20000 -workers 8 -duration 5 -serveout BENCH_serve.json

# A fast pass of the serving bench for make check: it exercises spawn,
# preload, mixed load and the SIGTERM drain without committing a file.
bench-serve-smoke: bin/rexpd
	$(GO) run ./cmd/rexpbench -spawn bin/rexpd -objects 2000 -workers 4 -duration 0.5 -quiet -serveout - >/dev/null

bin/rexpd: FORCE
	@mkdir -p bin
	$(GO) build -o bin/rexpd ./cmd/rexpd

# The replication stream end to end: cold-follower catch-up MB/s,
# steady-state apply lag under a continuous leader update stream, and
# the leader's throughput cost of feeding a tailing follower (see
# cmd/rexpbench/replbench.go).
bench-repl:
	$(GO) run ./cmd/rexpbench -replbench -objects 20000 -duration 2 -replout BENCH_repl.json

# A fast pass of the replication bench for make check: it exercises the
# snapshot stream, bootstrap, tail apply and the lag sampler without
# committing a result file.
bench-repl-smoke:
	$(GO) run ./cmd/rexpbench -replbench -objects 3000 -duration 0.3 -quiet -replout - >/dev/null

# The replication fault-injection matrix under the race detector:
# follower/leader crashes at every stage of the stream, torn wire
# frames, disconnect storms, retention overruns and concurrent reads
# during tail apply — each must end fingerprint-identical to the leader
# or fail loudly (see internal/repl/e2e_test.go).
fault-matrix:
	$(GO) test -race ./internal/repl -run 'TestRepl' -count 1

FORCE:

clean:
	rm -f BENCH_obs.json BENCH_shard.json BENCH_partition.json BENCH_wal.json BENCH_reshard.json BENCH_trace.json BENCH_serve.json BENCH_repl.json
	rm -rf bin
