package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"rexptree"
)

// ladderWarmUI is how far (in update intervals of stream time) the
// ladder's indexes are filled, untimed, before the sample: past
// ExpT = 2·UI, so the sample runs against an index that holds expired
// entries and purges them, like the served window does.
const ladderWarmUI = 2.5

// queriesPerBody is how many queries follow each write body in the
// ladder sample — R's rate relative to W's is about that.
const queriesPerBody = 10

// layers fills the per-layer metrics of a served run: counts from the
// daemons' own /metrics at the window edges, what only the bench can
// see (bytes, process CPU, drain time), and the ladder.
func (s served) layers(e *env, res *result, sz sizes, seed int64, w *windowed) error {
	l, c, e1, e2 := w.l, w.c, w.e1, w.e2
	secs := w.window.Seconds()
	dl, dr := e2.leader.sub(e1.leader), e2.reads.sub(e1.reads)

	res.put("rexpd.bytes_in_per_report", "B", ratio(float64(l.w.bytes), float64(l.w.units)), 0)
	res.put("rexpd.bytes_out_per_result", "B", ratio(float64(l.r.bytes), float64(l.r.units)), 0)
	res.put("rexpd.cpu_s_per_wall_s", "ratio", (e2.cpu-e1.cpu)/secs, 0)
	res.put("rexpd.rss_peak_mb", "MB", e2.rssPeakMB, 0)
	res.put("rexpd.drain_s", "s", w.drain.Seconds(), 0)
	res.put("server.chunks_per_body", "count", ratio(float64(l.w.chunks), float64(len(l.w.latMs))), 0)
	res.put("server.refused_429", "count", float64(l.w.refused+l.r.refused), 0)
	res.put("server.timeout_504", "count", float64(l.w.timeouts+l.r.timeouts), 0)
	res.put("loadgen.cpu_s_per_wall_s", "ratio", (e2.self.cpuSeconds-e1.self.cpuSeconds)/secs, 0)
	res.put("loadgen.gen_us_per_op", "us", ratio(l.st.genTime.Seconds()*1e6, float64(l.st.genOps)), 0)
	if s.durable && !s.follower {
		res.put("tree.recovery_s", "s", w.recovery.Seconds(), 0)
	}

	counterLayers(res, dl, dr, e2.leader, dl[opCount("update_batch")], dl[mBatched], mean(l.w.latMs)/1000, true, s.durable)

	if s.follower {
		res.put("repl.bootstrap_s", "s", c.bootstrap.Seconds(), 0)
		res.put("repl.bootstrap_mb_per_s", "MB/s", ratio(c.snapBytes/(1<<20), c.bootstrap.Seconds()), 0)
		res.put("repl.feed_bytes_per_report", "B", ratio(dl[mFeedBytes], dl[mFeedRecords]), 0)
		res.put("repl.apply_reports_per_s", "1/s", dr[mApplied]/secs, 0)
		res.put("repl.records_per_poll", "count", ratio(dr[mApplied], dl[mTailRequests]), 0)
		res.put("repl.lag_bytes_max", "B", w.lagBytesMax, 0)
		res.put("repl.reconnects", "count", dr[mReconnects], 0)
		res.put("repl.visible_lag_p50_ms", "ms", percentile(l.lagMs, 0.50), len(l.lagMs))
		res.put("repl.visible_lag_p95_ms", "ms", percentile(l.lagMs, 0.95), len(l.lagMs))
	}

	// The ladder: same seed, so the same stream the daemon was fed.
	dir := mkdir(filepath.Join(e.tmp, s.name+"-ladder"))
	defer os.RemoveAll(dir)
	ld, err := servedLadder(s, dir)
	if err != nil {
		return err
	}
	defer ld.shutdown()
	st, err := newStream(seed, sz.objects, math.MaxInt32)
	if err != nil {
		return err
	}
	m := newModel()
	var body []byte
	for st.clock < ladderWarmUI*paperUI {
		reps := st.next(1000, nil)
		body = encodeBody(body, reps)
		ld.warm(body, reps, st.clock)
		m.apply(reps)
	}
	rng := rand.New(rand.NewSource(seed + 3))
	ld.begin()
	op := 0
	for b := 0; b < sz.ladderBodies; b++ {
		reps := st.next(bodySize, nil)
		body = encodeBody(body, reps)
		op++
		ld.write(op, b, body, reps, st.clock)
		m.apply(reps)
		for i := 0; i < queriesPerBody; i++ {
			op++
			ld.query(op, drawQuery(rng, drawKind(rng), st.clock, m.pick), st.clock)
		}
	}
	ladderMetrics(res, ld, rungSocket, bodySize)
	res.put("rexpd.ladder_vs_untraced", "ratio", ratio(ld.med(rungSocket+"/query"), res.Metrics["query_p50_ms"].Value), 0)

	// Allocations, outside the timed sample: further bodies alternate
	// between the handler and the shard rung (the twins need no more
	// writes), then one set of queries runs at three rungs.
	handler, shard, bottom := ld.rungs[1], ld.rungs[2], ld.rungs[4]
	var hw, sw, hq, sq, cq allocs
	for b := 0; b < 40; b++ {
		reps := st.next(bodySize, nil)
		body = encodeBody(body, reps)
		r, acc := handler, &hw
		if b%2 == 1 {
			r, acc = shard, &sw
		}
		acc.measure(func() { r.write(body, reps, st.clock) })
		m.apply(reps)
	}
	for i := 0; i < 200; i++ {
		q := drawQuery(rng, drawKind(rng), st.clock, m.pick)
		hq.measure(func() { handler.ask(q, st.clock) })
		sq.measure(func() { shard.ask(q, st.clock) })
		cq.measure(func() { bottom.ask(q, st.clock) })
	}
	res.put("server.allocs_per_write", "count", hw.mallocsPer()-sw.mallocsPer(), 0)
	res.put("server.alloc_bytes_per_report", "B", (hw.bytesPer()-sw.bytesPer())/bodySize, 0)
	res.put("server.allocs_per_query", "count", hq.mallocsPer()-sq.mallocsPer(), 0)
	res.put("core.allocs_per_query", "count", cq.mallocsPer(), 0)

	leafLayers(res, m, st.clock)
	res.add(&ld.checks)
	return ld.writeTrace(e, s.name)
}

// engineLadder is the traced pass of engine_paper: the whole fixed
// work replayed at two rungs, the rexptree.Tree and a bare core.Tree
// twin (the layers above do nothing on this workload and report nothing).
func engineLadder(e *env, res *result, preload []report, ops []engineOp) error {
	tr, err := rexptree.Open(rexptree.DefaultOptions())
	if err != nil {
		return err
	}
	defer tr.Close()
	twin, err := newCoreTwin(0)
	if err != nil {
		return err
	}
	ld := &ladder{ms: map[string][]float64{}, twin: twin,
		rungs: []rung{indexRung(rungTree, 0, tr, nil), {name: rungCore, group: 1, write: twin.write, ask: twin.ask}}}
	m := newModel()
	for i := range preload {
		ld.warm(nil, preload[i:i+1], preload[i].t)
	}
	m.apply(preload)

	before, err := treeSeries(tr)
	if err != nil {
		return err
	}
	ld.begin()
	var clock float64
	for i, op := range ops {
		clock = op.t
		if op.q != nil {
			ld.query(i+1, *op.q, op.t)
			continue
		}
		ld.write(i+1, 0, nil, []report{op.rep}, op.t)
		m.apply([]report{op.rep})
	}
	after, err := treeSeries(tr)
	if err != nil {
		return err
	}
	d := after.sub(before)
	counterLayers(res, d, d, after, d[opCount("update")], d[opCount("update")], mean(ld.ms[rungTree+"/write"])/1000, false, false)
	ladderMetrics(res, ld, rungTree, 1)

	rng := rand.New(rand.NewSource(res.Seed + 3))
	var cq allocs
	for i := 0; i < 200; i++ {
		q := drawQuery(rng, drawKind(rng), clock, m.pick)
		cq.measure(func() { twin.ask(q, clock) })
	}
	res.Metrics["core.allocs_per_query"] = metric{Value: cq.mallocsPer(), Unit: "count"}

	leafLayers(res, m, clock)
	res.add(&ld.checks)
	return ld.writeTrace(e, wlEnginePaper)
}

// treeSeries reads a tree's metrics through its Prometheus exposition,
// the same text a daemon's /metrics serves, so one set of series names
// covers both.
func treeSeries(tr *rexptree.Tree) (series, error) {
	var buf bytes.Buffer
	if err := tr.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return parseSeries(buf.Bytes()), nil
}

// counterLayers derives the per-layer counts from metric deltas over
// the measured interval: dl from the index that takes the writes, dr
// from the one that answers the queries (the same unless a follower
// reads), end the write side's scrape at the interval's end (gauges).
// writes and reports are the write calls and reports of the interval,
// writeMeanS the mean latency of a write as its caller saw it.  A
// layer the workload bypasses — the shard front end on a single tree
// (sharded false), the WAL and checkpoints in memory (durable false)
// — reports nothing.
func counterLayers(res *result, dl, dr, end series, writes, reports, writeMeanS float64, sharded, durable bool) {
	queries := dr.queries()

	if sharded {
		res.put("shard.visits_per_query", "count", ratio(dr[mShardVisits], queries), 0)
		res.put("shard.pruned_share", "share", ratio(dr[mShardsPruned], dr[mShardVisits]+dr[mShardsPruned]), 0)
		res.put("shard.queue_wait_ms_per_query", "ms", ratio(dr[phaseSum("queue_wait")]*1000, queries), 0)
		res.put("shard.merge_ms_per_query", "ms", ratio(dr[phaseSum("merge")]*1000, queries), 0)
		res.put("shard.reroutes_per_report", "count", ratio(dl[mRerouted], reports), 0)
		var most, total float64
		for i := 0; i < shards; i++ {
			n := end["rexp_shard"+strconv.Itoa(i)+"_leaf_entries"]
			most, total = math.Max(most, n), total+n
		}
		res.put("shard.population_skew", "ratio", ratio(most*shards, total), 0)
	}

	res.put("tree.lock_wait_ms_per_write", "ms", ratio(dl[lockWaitSum("write")]*1000, writes), 0)
	res.put("tree.publishes_per_write", "count", ratio(dl[mPublishes], writes), 0)
	res.put("tree.versions_trimmed_per_report", "count", ratio(dl[mTrimmed], reports), 0)

	if durable {
		res.put("tree.checkpoints", "count", dl[mCheckpoints], 0)
		res.put("tree.checkpoint_ms", "ms", ratio(dl[phaseSum("checkpoint")]*1000, dl[phaseCnt("checkpoint")]), 0)
		res.put("wal.append_us_per_report", "us", ratio(dl[phaseSum("wal_append")]*1e6, reports), 0)
		res.put("wal.fsync_ms", "ms", ratio(dl[phaseSum("wal_fsync")]*1000, dl[phaseCnt("wal_fsync")]), 0)
		res.put("wal.fsyncs_per_write", "count", ratio(dl[mWALFsyncs], writes), 0)
		res.put("wal.bytes_per_report", "B", ratio(dl[mWALBytes], reports), 0)
		res.put("wal.fsync_share_of_write", "share", ratio(ratio(dl[phaseSum("wal_fsync")], writes), writeMeanS), 0)
	}

	res.put("storage.hit_rate", "share", ratio(dl[mHits]+dr[mHits], dl[mHits]+dr[mHits]+dl[mReads]+dr[mReads]), 0)
	res.put("storage.reads_per_report", "count", ratio(dl[mReads], reports), 0)
	res.put("storage.writes_per_report", "count", ratio(dl[mWrites], reports), 0)
	res.put("storage.evictions_per_report", "count", ratio(dl[mEvictions], reports), 0)
}

// ladderMetrics turns the ladder's rung medians into layer self times
// and reads the bottom twin's counters.  top is the highest rung of
// the workload; reportsPerWrite scales a write to one report.
func ladderMetrics(res *result, ld *ladder, top string, reportsPerWrite int) {
	lput := func(name, unit string, v float64, key string) { res.put(name, unit, v, len(ld.ms[key])) }
	if top == rungSocket {
		lput("rexpd.write_self_ms", "ms", ld.self(rungSocket, rungHandler, "write"), rungSocket+"/write")
		lput("rexpd.query_self_ms", "ms", ld.self(rungSocket, rungHandler, "query"), rungSocket+"/query")
		lput("server.write_self_ms", "ms", ld.self(rungHandler, rungShard, "write"), rungHandler+"/write")
		lput("server.query_self_ms", "ms", ld.self(rungHandler, rungShard, "query"), rungHandler+"/query")
		lput("shard.write_ms", "ms", ld.med(rungShard+"/write"), rungShard+"/write")
		lput("shard.query_ms", "ms", ld.med(rungShard+"/query"), rungShard+"/query")
		lput("shard.query_delta_ms", "ms", ld.self(rungShard, rungTree, "query"), rungShard+"/query")
	}
	lput("tree.write_self_ms", "ms", ld.self(rungTree, rungCore, "write"), rungTree+"/write")
	lput("tree.query_self_ms", "ms", ld.self(rungTree, rungCore, "query"), rungTree+"/query")
	lput("core.insert_us", "us", ld.med(rungCore+"/write")*1000/float64(reportsPerWrite), rungCore+"/write")
	lput("core.query_us", "us", ld.med(rungCore+"/query")*1000, rungCore+"/query")

	ld.twin.t.SyncGauges()
	sn := ld.twin.met.Snapshot()
	d := sn.Sub(ld.twinBefore)
	queries := float64(len(ld.ms[rungCore+"/query"]))
	reports := float64(len(ld.ms[rungCore+"/write"]) * reportsPerWrite)
	res.put("core.nodes_per_query", "count", ratio(float64(d.NodeVisits), queries), 0)
	res.put("core.leaf_entries_per_query", "count", ratio(float64(d.LeafScans), queries), 0)
	res.put("core.leaf_entries_per_result", "count", ratio(float64(d.LeafScans), float64(ld.results)), 0)
	res.put("core.choose_descents_per_report", "count", ratio(float64(d.ChooseSubtree), reports), 0)
	res.put("core.splits_per_1k_reports", "count", ratio(float64(d.Splits)*1000, reports), 0)
	res.put("core.reinserts_per_1k_reports", "count", ratio(float64(d.ForcedReinserts)*1000, reports), 0)
	res.put("core.purged_per_report", "count", ratio(float64(d.ExpiredPurged), reports), 0)
	res.put("core.height", "count", float64(sn.Height), 0)
	res.Notes = append(res.Notes, fmt.Sprintf("ladder: query %s-rung median %.4f ms; write %.4f ms", top, ld.med(top+"/query"), ld.med(top+"/write")))
}

// allocs accumulates heap allocation counts around single calls.
type allocs struct {
	calls          int
	mallocs, bytes uint64
}

func (a *allocs) measure(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	a.calls++
	a.mallocs += after.Mallocs - before.Mallocs
	a.bytes += after.TotalAlloc - before.TotalAlloc
}

func (a *allocs) mallocsPer() float64 { return ratio(float64(a.mallocs), float64(a.calls)) }
func (a *allocs) bytesPer() float64   { return ratio(float64(a.bytes), float64(a.calls)) }
