# Makefile — CI entry points for the rexptree repository.
#
#   make check            fmt-check + vet + build + tests (bench/ module too) + race + determinism + crash matrix + serve smoke
#   make crash-matrix     the durable trees' crash, power-loss and checkpoint tests, three times over
#   make bench            the repository benchmark (BENCHMARK.json) -> bench/out/runs.jsonl
#   make bench-compare A=a.jsonl B=b.jsonl   compare two benchmark runs, run against run
#   make bench-update     the update path's microbenchmarks (kernel, ChooseSubtree, computeBR, a pool miss, one update, batched updates, a durable body, the paper stream, a follower's tail segment)
#   make bench-query      the query kernels' microbenchmarks (nearest on one tree and on 4 shards, region queries per shape, one served request per kind)
#   make bench-ingest     the served write path's microbenchmarks (one 100-record /v1/batch body on 4 shards, one decoded line)
#   make serve-smoke      the README serving quickstart, end to end
#   make fault-matrix     the replication fault-injection matrix, under -race
#   make all              check

GO ?= go

.PHONY: all check fmt-check vet build test test-bench race determinism crash-matrix fuzz-smoke bench bench-compare bench-update bench-query bench-ingest serve-smoke fault-matrix

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
# under load) run three times at one, two and four processors.  So do
# the sharded equivalence tests: a batch applies its per-shard groups on
# one goroutine per shard, and what the queries that follow return must
# not depend on the order those groups finish in.  The tier-1 run covers
# them once at the host's own count only.  Every sharded Update, Delete
# and UpdateBatch goes through one routed apply and one re-route lock
# rule: the dual-apply ordering, re-route-under-queries and mixed-load
# tests drive single-object mutations through it concurrently.  Two golden
# streams ride along, one of them in three dimensions: their deletes go
# through the locator, whose tables are Go maps, and "same seed, same
# pages" must not depend on them.  So do the slab-reuse tests: a writer
# copying pages into reclaimed slabs against readers pinned across
# hundreds of publications and readers pinned per query, once on the
# writer's schedule and once free-running, the stress run.  The
# buffer pool must replace pages by exact LRU, the paper's I/O metric,
# and stay sound under the tree's shared-lock readers, which may call it
# concurrently: its reference-model test and its concurrent-reader test
# run under the race detector.  A nearest query whose time the index
# clock has just passed (a client that read the clock and lost the race
# to a write, on a leader and on a follower) must be answered, however
# the writes and the query interleave: fifty runs each.  The index clock
# is the only clock, and it must survive a live reshard with nothing to
# backfill, a daemon restart and a follower's catch-up: twenty runs each.
determinism:
	$(GO) test -count=3 -cpu 1,2,4 -run 'Reshard|TestPartitionEquivalence|TestShardedDeterminism' . ./internal/server
	$(GO) test -count=3 -cpu 1,2,4 -run 'TestDualApplyOrdering|TestConcurrentQueriesDuringReroute|TestShardedConcurrentMixedLoad' .
	$(GO) test -count=50 -cpu 1,2,4 -run 'NearestLostClockRace' ./internal/server ./internal/repl
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestLiveReshardKeepsClock|TestRestartServesStoredClock|TestReplFollowerServesAppliedClock' . ./cmd/rexpd ./internal/repl
	$(GO) test -count=3 -cpu 1,2,4 -run 'TestGoldenTrees/near-optimal/stored-exp|TestGoldenTrees/near-optimal/dims3|TestSlabReuse' ./internal/core
	$(GO) test -race -count=3 -cpu 1,2,4 -run 'TestBufferPoolRandomizedAgainstStore|TestBufferPoolConcurrentReaders' ./internal/storage

# Every way a durable tree is killed — WAL lifecycle faults, storage
# faults, Abandon mid-stream, a power loss that drops or tears the page
# file's un-fsynced writes — must recover to the acknowledged prefix.
# So must the checkpoint tests (one WAL fsync per commit, the log
# settled only at CheckpointBytes, a backup that starts from a truncated
# log) and rexpcheck's verdict on a crashed file with several image sets
# in its log.  Three runs: recovery re-applies page images in map order,
# which differs from run to run.
crash-matrix:
	$(GO) test -run 'TestDurable|TestShardedDurable|TestCheckpoint|TestBatchedCheckpoint|TestBackupStartsFromTruncatedLog' -count=3 .
	$(GO) test -run 'TestCheckUnclean' -count=3 ./cmd/rexpcheck

# A short run of each native fuzz target: the manifest decode/encode
# round trip, the time-parameterized intersection kernel, the compiled
# query predicate against it (entries placed ulps from a region edge),
# every bounding kind's workspace finisher against its slice reference
# (near-optimal's bridge search against the sort-and-scan one), and
# the write-ahead-log frame scanner (arbitrary bytes must never panic
# and torn tails must only ever drop trailing records), and the delete
# locator against the paper's leaf search over op bytes, and the
# /v1/batch line decoder against json.Unmarshal.  Ten seconds
# each is enough to shake out regressions in the properties; leave the
# targets running longer locally when hunting.
fuzz-smoke:
	$(GO) test ./internal/manifest -run '^$$' -fuzz FuzzManifestRoundTrip -fuzztime 10s
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzTrapezoidIntersect -fuzztime 10s
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzCompiledVsIntersects -fuzztime 10s
	$(GO) test ./internal/hull -run '^$$' -fuzz FuzzWorkspaceKinds -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzWALRoundTrip -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz FuzzDualApplySchedule -fuzztime 10s
	$(GO) test ./internal/repl -run '^$$' -fuzz FuzzReplFrameRoundTrip -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLocateVsSearch -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzIngestRecord -fuzztime 10s

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
# enlargement metric and ChooseSubtree over a full internal node, the
# near-optimal TPBR kernel (through the free function on 170 items, and
# through a warm workspace on a full leaf of points at tupd > 0 and a
# full internal node with derived expiries), computeBR with each
# bounding kind and the page encoding of a full leaf and a full
# internal node, the pool's flush of one dirty page among many clean
# ones and its miss that evicts, one steady-state update (delete +
# insert) through the public tree, the same update with each bounding
# kind, the same update per report in batches of 1, 25 and 100, a
# 25-report body acknowledged by a durable tree behind a 16-page pool
# (with its fsyncs and checkpoints per body: a checkpoint comes by log
# volume, not by the pool's budget), the paper's §5.1 stream through
# the default 50-page pool, which misses, writes back and evicts
# (engine_paper's work, in process), and a follower's side of one long
# poll: a 1 000-record tail segment with one repeated id per 100
# records applied to a durable 4-shard replica (ns per record,
# UpdateBatch calls and fsyncs per segment).  -benchmem's allocs/op
# is each path's allocation budget: 0 for a pool miss, since it takes
# the frame its eviction released and the LRU list is threaded through
# the frames (it was 2 objects and 3.7 KB); 0 per report for the
# updates, batched or not and with the pool missing or not, since a
# page is copied into the slab of a reclaimed version, a descriptor is
# reused once no reader holds it, a memory pool lends its store's pages
# and the split's and reinsertion's arrays are the tree's (the paper
# stream read 3 objects and 5.7 KB per report while each miss built a
# frame); the paper's search appends three more per delete.  Prints to
# the terminal; bench/ holds the numbers that count.
bench-update:
	$(GO) test ./internal/geom -run '^$$' -bench 'BenchmarkEnlargement$$' -benchmem
	$(GO) test ./internal/hull -run '^$$' -bench 'BenchmarkNearOptimal$$' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkChooseChild|BenchmarkComputeBR|BenchmarkEncode' -benchmem
	$(GO) test ./internal/storage -run '^$$' -bench 'BenchmarkFlushOneDirty|BenchmarkBufferPoolMissEvict' -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkUpdateThroughput$$|BenchmarkUpdateKinds|BenchmarkUpdateBatch|BenchmarkDurableBatch|BenchmarkPaperStream' -benchmem
	$(GO) test ./internal/repl -run '^$$' -bench 'BenchmarkApplierTail' -benchmem

# The query path from the inside out: the nearest kernel over a warm
# 2 000-object tree read through the buffer pool and over its pinned
# snapshot, the region kernel's time per tested leaf entry per query
# shape over 20 000 objects, and one k = 10 nearest query on a 4-shard
# hash-partitioned index of 20 000 objects of the paper's stream, with
# the nodes it visits across the shards (nodes/op), and one served
# request of each query kind, plain and with ?explain=1, through
# Server.ServeHTTP on such an index.  -benchmem's allocs/op is each
# path's allocation budget.  Prints to the terminal; bench/ holds the
# numbers that count.
bench-query:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkNearestWarm|BenchmarkNearestSnapWarm|BenchmarkSearchSnap' -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkShardedNearest$$' -benchmem
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServedQuery$$' -benchmem

# The served write path: one 100-record /v1/batch body of the paper's
# stream per op, through Server.ServeHTTP on a 4-shard hash-partitioned
# memory index preloaded with 20 000 objects (the in-process request
# and recorder included), and one benchmark line through the record
# decoder.  -benchmem's allocs/op is the budget: about 40 per body and
# 0 per decoded line (1 066 and 10 while every line went through
# json.Unmarshal).  Prints to the terminal; bench/ holds the numbers
# that count.
bench-ingest:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServedBatch|BenchmarkDecodeRecord' -benchmem

# The README "Serving" quickstart as a test: rexpgen -ndjson a workload,
# serve it with rexpd, post it to /v1/batch, query over HTTP, scrape
# /metrics, SIGTERM, assert a clean drain (see cmd/rexpd/main_test.go).
serve-smoke:
	$(GO) test ./cmd/rexpd -run 'TestServeSmoke|TestDrainNoAckedLossAcrossProcess' -count 1 -v

# The replication fault-injection matrix under the race detector:
# follower/leader crashes at every stage of the stream, torn wire
# frames, disconnect storms, retention overruns and concurrent reads
# during tail apply — each must end fingerprint-identical to the leader
# or fail loudly (see internal/repl/e2e_test.go).  The feed's own
# retention tests ride along: a record handed out must survive the
# append that prunes it.
fault-matrix:
	$(GO) test -race ./internal/repl -run 'TestRepl|TestFeed' -count 1
