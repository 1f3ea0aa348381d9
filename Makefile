# Makefile — CI entry points for the rexptree repository.
#
#   make check            fmt-check + vet + build + tests (bench/ module too) + race + determinism + crash matrix + serve smoke
#   make crash-matrix     the durable trees' crash and power-loss tests, three times over
#   make bench            the repository benchmark (BENCHMARK.json) -> bench/out/runs.jsonl
#   make bench-compare A=a.jsonl B=b.jsonl   compare two benchmark runs, run against run
#   make bench-update     the update path's microbenchmarks (kernel, computeBR, one update, batched updates, a durable body)
#   make serve-smoke      the README serving quickstart, end to end
#   make fault-matrix     the replication fault-injection matrix, under -race
#   make all              check

GO ?= go

.PHONY: all check fmt-check vet build test test-bench race determinism crash-matrix fuzz-smoke bench bench-compare bench-update serve-smoke fault-matrix

all: check

check: fmt-check vet build test test-bench race determinism crash-matrix serve-smoke

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
# are Go maps, and "same seed, same pages" must not depend on them.  So
# does the slab-reuse stress test: a writer copying pages into reclaimed
# slabs against readers pinned across hundreds of publications and
# readers pinned per query.
determinism:
	$(GO) test -count=3 -cpu 1,2,4 -run 'Reshard' . ./internal/server
	$(GO) test -count=3 -cpu 1,2,4 -run 'TestGoldenTrees/near-optimal/stored-exp|TestSlabReuseUnderPinnedReaders' ./internal/core

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
# allocs/op of the update benchmarks is the path's allocation budget:
# 0 per report in batches of 1 / 25 / 100, since a page is copied into
# the slab of a reclaimed version and a descriptor is reused once no
# reader holds it (it was 8 / 3 / 2 when every published page cost two
# objects); the paper's search appends three more per delete.
# Prints to the terminal; bench/ holds the numbers that count.
bench-update:
	$(GO) test ./internal/geom -run '^$$' -bench 'BenchmarkEnlargement$$' -benchmem
	$(GO) test ./internal/hull -run '^$$' -bench 'BenchmarkNearOptimal$$' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkComputeBR|BenchmarkEncode' -benchmem
	$(GO) test ./internal/storage -run '^$$' -bench 'BenchmarkFlushOneDirty' -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkUpdateThroughput$$|BenchmarkUpdateBatch|BenchmarkDurableBatch' -benchmem

# The README "Serving" quickstart as a test: rexpgen a workload, serve
# it with rexpd, ingest through rexpbench -remote -replay, query over
# HTTP, scrape /metrics, SIGTERM, assert a clean drain (see
# cmd/rexpd/main_test.go).
serve-smoke:
	$(GO) test ./cmd/rexpd -run 'TestServeSmoke|TestDrainNoAckedLossAcrossProcess' -count 1 -v

# The replication fault-injection matrix under the race detector:
# follower/leader crashes at every stage of the stream, torn wire
# frames, disconnect storms, retention overruns and concurrent reads
# during tail apply — each must end fingerprint-identical to the leader
# or fail loudly (see internal/repl/e2e_test.go).
fault-matrix:
	$(GO) test -race ./internal/repl -run 'TestRepl' -count 1
