// Benchmarks that regenerate every figure of the paper's evaluation
// (§5, Figures 9-16).  Each benchmark replays the figure's full
// workload grid — every tree configuration at every x value — and
// logs the resulting table; headline numbers are also exposed as
// custom benchmark metrics.
//
// The default scale is 2% of the paper's workload (100k objects, 1M
// insertions), which preserves the comparative shapes at laptop cost.
// Set REXPTREE_BENCH_SCALE to run larger, e.g.:
//
//	REXPTREE_BENCH_SCALE=0.1 go test -bench Fig -benchtime 1x
//
// For the full experience use cmd/rexpbench, which prints progress and
// accepts -scale 1 for the paper's exact setup.
package rexptree

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"rexptree/internal/experiments"
	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
	"rexptree/internal/workload"
)

func benchScale(b *testing.B) float64 {
	if s := os.Getenv("REXPTREE_BENCH_SCALE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			b.Fatalf("bad REXPTREE_BENCH_SCALE %q", s)
		}
		return v
	}
	return 0.02
}

// benchFigure replays one figure per iteration and reports, as custom
// metrics, the first and last series' values at the final x — for the
// comparison figures that is the R^exp-tree versus the scheduled
// TPR-tree.
func benchFigure(b *testing.B, id string) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure(id, scale, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		b.Log("\n" + fig.Render())
		first := fig.Series[0]
		last := fig.Series[len(fig.Series)-1]
		b.ReportMetric(fig.Value(first.Points[len(first.Points)-1]), "series0_"+fig.Metric)
		b.ReportMetric(fig.Value(last.Points[len(last.Points)-1]), "seriesN_"+fig.Metric)
	}
}

// BenchmarkFig09ExpTFlavors — Figure 9: search I/O for varying ExpT
// across the four near-optimal TPBR flavors ({record texp in internal
// entries} x {heuristics honor texp}).
func BenchmarkFig09ExpTFlavors(b *testing.B) { benchFigure(b, "9") }

// BenchmarkFig10UIFlavors — Figure 10: search I/O for varying update
// interval UI across the same four flavors.
func BenchmarkFig10UIFlavors(b *testing.B) { benchFigure(b, "10") }

// BenchmarkFig11UniformBRTypes — Figure 11: search I/O on uniform data
// for varying ExpT across the five bounding-rectangle types.
func BenchmarkFig11UniformBRTypes(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12ExpDBRTypes — Figure 12: search I/O for varying
// expiration distance ExpD across the five bounding-rectangle types.
func BenchmarkFig12ExpDBRTypes(b *testing.B) { benchFigure(b, "12") }

// BenchmarkFig13ExpDComparison — Figure 13: search I/O for varying
// ExpD: R^exp-tree vs TPR-tree vs both with scheduled deletions.
func BenchmarkFig13ExpDComparison(b *testing.B) { benchFigure(b, "13") }

// BenchmarkFig14NewObSearch — Figure 14: search I/O for a varying
// fraction of silently replaced ("turned off") objects.
func BenchmarkFig14NewObSearch(b *testing.B) { benchFigure(b, "14") }

// BenchmarkFig15NewObSize — Figure 15: index size in pages for varying
// NewOb; the TPR-tree grows because dead objects are never removed.
func BenchmarkFig15NewObSize(b *testing.B) { benchFigure(b, "15") }

// BenchmarkFig16NewObUpdate — Figure 16: update I/O for varying NewOb
// (B-tree I/O of the scheduled variants reported separately, as in the
// paper).
func BenchmarkFig16NewObUpdate(b *testing.B) { benchFigure(b, "16") }

// BenchmarkUpdateThroughput measures raw index update cost (one
// delete+insert pair) on a steady-state R^exp-tree — the operation
// mix that dominates the paper's workloads.
func BenchmarkUpdateThroughput(b *testing.B) { benchUpdates(b, DefaultOptions()) }

// paperStream opens DefaultOptions() and loads the first update
// interval of the paper's §5.1 network stream (20 000 objects, UI 60, one
// query per 100 insertions) through Tree.Update.  next fills reps with
// the stream's next reports, its queries skipped.
func paperStream(tb testing.TB) (tree *Tree, next func(reps []Report)) {
	tb.Helper()
	const ui = 60
	tree, err := Open(DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tree.Close() })
	gen, err := workload.NewGenerator(workload.Params{Seed: 1, Objects: 20000, Insertions: 1 << 30, UI: ui, QueriesPerInsertions: 100})
	if err != nil {
		tb.Fatal(err)
	}
	next = func(reps []Report) {
		for i := 0; i < len(reps); {
			op, ok := gen.Next()
			if !ok {
				tb.Fatal("workload stream exhausted")
			}
			if op.Kind != workload.OpInsert {
				continue
			}
			p := Point{Pos: Vec(op.Point.At(op.Time)), Vel: Vec(op.Point.Vel), Time: op.Time}
			if geom.IsFinite(op.Point.TExp) {
				p.Expires = op.Point.TExp
			}
			reps[i] = Report{ID: op.OID, Point: p}
			i++
		}
	}
	reps := make([]Report, 4096)
	for loaded := false; !loaded; {
		next(reps)
		for _, r := range reps {
			if err := tree.Update(r.ID, r.Point, r.Point.Time); err != nil {
				tb.Fatal(err)
			}
			loaded = r.Point.Time >= ui
		}
	}
	return tree, next
}

// BenchmarkPaperStream is the in-process counterpart of the repository
// benchmark's engine_paper workload: the paper's §5.1 network stream
// replayed through Tree.Update into DefaultOptions(), whose 50-page
// buffer pool misses, writes back and evicts as in the paper.  The
// population's first update interval is loaded before the timer starts
// (paperStream); one op is one report after it.  The stream's queries
// are skipped, so allocs/op and B/op are an update's, misses, splits and
// forced reinsertions included.  Reports are generated in chunks with
// the timer stopped.
func BenchmarkPaperStream(b *testing.B) {
	tree, next := paperStream(b)
	reps := make([]Report, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		next(reps)
		b.StartTimer()
		for _, r := range reps[:min(len(reps), b.N-done)] {
			if err := tree.Update(r.ID, r.Point, r.Point.Time); err != nil {
				b.Fatal(err)
			}
			done++
		}
	}
}

// TestPaperStreamAllocs pins what an update of the paper's stream
// allocates in steady state: next to nothing, splits, forced
// reinsertions and condenses included, since a copied page takes the
// slab of a reclaimed version or of a copy its operation freed, and the
// spare list keeps what the largest recent operation needed.
func TestPaperStreamAllocs(t *testing.T) {
	tree, next := paperStream(t)
	reps := make([]Report, 40000)
	next(reps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reps {
		if err := tree.Update(r.ID, r.Point, r.Point.Time); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perReport := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reps))
	t.Logf("%.1f B and %.4f allocations per report", perReport, float64(after.Mallocs-before.Mallocs)/float64(len(reps)))
	if perReport > 16 {
		t.Fatalf("an update of the paper's stream allocates %.1f B, want at most 16", perReport)
	}
}

// BenchmarkUpdateKinds is BenchmarkUpdateThroughput once per bounding
// kind, the rest of the R^exp configuration unchanged.
func BenchmarkUpdateKinds(b *testing.B) {
	for _, k := range []BoundingKind{Conservative, Static, UpdateMinimum, NearOptimal, Optimal} {
		b.Run(hull.Kind(k).String(), func(b *testing.B) {
			o := DefaultOptions()
			o.Bounding = k
			benchUpdates(b, o)
		})
	}
}

// benchUpdates times one steady-state update of a tree opened with o
// and seeded with 5 000 objects.
func benchUpdates(b *testing.B, o Options) {
	tree, err := Open(o)
	if err != nil {
		b.Fatal(err)
	}
	defer tree.Close()
	const n = 5000
	now := 0.0
	for i := 0; i < n; i++ {
		now += 0.01
		seedObj(b, tree, uint32(i), now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.01
		seedObj(b, tree, uint32(i%n), now)
	}
}

// BenchmarkUpdateBatch measures the same steady-state update applied
// through UpdateBatch, per report, at batch sizes from a lone report to
// the served body of 100: what a report costs once the batch is one
// operation for the lock, the publication and the page write-back.
func BenchmarkUpdateBatch(b *testing.B) {
	for _, size := range []int{1, 25, 100} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			tree, err := Open(DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			defer tree.Close()
			const n = 5000
			now := 0.0
			for i := 0; i < n; i++ {
				now += 0.01
				seedObj(b, tree, uint32(i), now)
			}
			batch := make([]Report, 0, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(batch) {
				batch = batch[:0]
				for j := i; j < i+size && j < b.N; j++ {
					now += 0.01
					batch = append(batch, Report{ID: uint32(j % n), Point: seedPoint(uint32(j%n), now)})
				}
				if err := tree.UpdateBatch(batch, now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDurableBatch measures the served write path's body — 25
// reports through UpdateBatch, acknowledged under DurabilityOnCommit —
// against a shard-sized index (5 000 objects) behind a 16-page no-steal
// pool.  The pool's budget does not trigger checkpoints: a commit
// checkpoints once an eighth of the default 4 MiB CheckpointBytes of
// records has been logged since the last, about one body in 240, so
// nearly every commit is its one WAL fsync.  An op is one body;
// fsyncs/op counts the log's (commit or image set, truncation) and the
// page file's.
func BenchmarkDurableBatch(b *testing.B) {
	const size, n = 25, 5000
	b.Run(strconv.Itoa(size), func(b *testing.B) {
		var storeSyncs []string
		o := durableOpts(filepath.Join(b.TempDir(), "bench.rexp"), DurabilityOnCommit)
		o.BufferPages = 16
		o.testWrapStore = func(s storage.Store) storage.Store { return &syncLogStore{s, &storeSyncs} }
		tree, err := Open(o)
		if err != nil {
			b.Fatal(err)
		}
		defer tree.Close()
		now := 0.01
		batch := make([]Report, 0, n)
		for id := uint32(0); id < n; id++ {
			batch = append(batch, Report{ID: id, Point: seedPoint(id, now)})
		}
		if err := tree.UpdateBatch(batch, now); err != nil {
			b.Fatal(err)
		}
		storeSyncs = storeSyncs[:0]
		before := tree.Metrics()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch = batch[:0]
			for j := i * size; j < (i+1)*size; j++ {
				now += 0.01
				batch = append(batch, Report{ID: uint32(j % n), Point: seedPoint(uint32(j%n), now)})
			}
			if err := tree.UpdateBatch(batch, now); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		d := tree.Metrics().Sub(before)
		b.ReportMetric(float64(d.WALFsyncs+uint64(len(storeSyncs)))/float64(b.N), "fsyncs/op")
		b.ReportMetric(float64(d.Checkpoints)/float64(b.N), "checkpoints/op")
	})
}

// BenchmarkTimesliceQuery measures a paper-sized timeslice query
// (0.25% of the space) against a populated R^exp-tree.
func BenchmarkTimesliceQuery(b *testing.B) {
	tree, err := Open(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer tree.Close()
	now := 0.0
	for i := 0; i < 20000; i++ {
		now += 0.002
		seedObj(b, tree, uint32(i), now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i%19) * 50
		r := Rect{Lo: Vec{x, x}, Hi: Vec{x + 50, x + 50}}
		if _, err := tree.Timeslice(r, now+float64(i%30), now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedNearest times one k = 10 nearest query on a 4-shard
// hash-partitioned index holding the paper's network stream (§5.1) at
// 20 000 objects after six update intervals, the size and age of the
// repository benchmark's served index.  Each query is centred on one
// of the stream's own query squares at its own time (up to W = UI/2
// ahead).  It reports the nodes each query visits summed over the
// shards (nodes/op) beside the time and the allocations.
func BenchmarkShardedNearest(b *testing.B) {
	const ui = 60
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	gen, err := workload.NewGenerator(workload.Params{Seed: 1, Objects: 20000, Insertions: 1 << 30, UI: ui})
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		pos   Vec
		ahead float64
	}
	var (
		batch []Report
		qs    []query
		now   float64
	)
	for len(qs) < 256 {
		op, ok := gen.Next()
		if !ok {
			b.Fatal("workload stream exhausted")
		}
		switch {
		case op.Kind == workload.OpInsert && op.Time < 6*ui:
			at := op.Point.At(op.Time)
			p := Point{Pos: Vec(at), Vel: Vec(op.Point.Vel), Time: op.Time}
			if geom.IsFinite(op.Point.TExp) {
				p.Expires = op.Point.TExp
			}
			batch = append(batch, Report{ID: op.OID, Point: p})
			now = op.Time
			if len(batch) == 100 {
				if err := s.UpdateBatch(batch, now); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		case op.Kind == workload.OpQuery && op.Time >= 6*ui:
			qs = append(qs, query{pos: Vec(op.Query.Region.At(op.Query.T1).Center(2)), ahead: op.Query.T1 - op.Time})
		}
	}
	if err := s.UpdateBatch(batch, now); err != nil {
		b.Fatal(err)
	}
	before := s.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := s.Nearest(q.pos, now+q.ahead, 10, now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Metrics().Sub(before).QueryNodeVisits)/float64(b.N), "nodes/op")
}

func seedObj(b *testing.B, tree *Tree, id uint32, now float64) {
	b.Helper()
	if err := tree.Update(id, seedPoint(id, now), now); err != nil {
		b.Fatal(err)
	}
}

// seedPoint is a cheap deterministic pseudo-random report.
func seedPoint(id uint32, now float64) Point {
	h := uint64(id)*2654435761 + uint64(now*100)
	x := float64(h%1000000) / 1000
	y := float64((h/7)%1000000) / 1000
	return Point{
		Pos:     Vec{x, y},
		Vel:     Vec{float64(h%7) - 3, float64(h%5) - 2},
		Time:    now,
		Expires: now + 120,
	}
}
