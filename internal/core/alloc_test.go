package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

// buildQueryTree fills a tree whose pages all fit in the buffer pool,
// so query benchmarks measure the in-memory hot path.
func buildQueryTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	cfg := rexpConfig()
	cfg.BufferPages = 512
	tr, err := New(cfg, storage.NewMemStore())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: math.Inf(1),
		}
		if err := tr.Insert(uint32(i), p, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

var windowQuery = geom.Window(geom.Rect{Lo: geom.Vec{400, 400}, Hi: geom.Vec{600, 600}}, 0, 10)

// TestSearchFuncAllocs pins the zero-allocation contract of the query
// hot path: with a warm buffer pool and a streaming callback, a window
// search must not allocate (the traversal stack is pooled).  The bound
// of 2 leaves room for a pool refill after a GC.
func TestSearchFuncAllocs(t *testing.T) {
	tr := buildQueryTree(t, 2000)
	found := 0
	fn := func(Result) bool { found++; return true }
	if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("warmup query matched nothing; the workload is broken")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("SearchFunc allocates %.1f objects per query, want <= 2", allocs)
	}
}

func BenchmarkWindowSearchFunc(b *testing.B) {
	tr := buildQueryTree(b, 2000)
	fn := func(Result) bool { return true }
	if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.SearchFunc(windowQuery, 0, fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestWarm(b *testing.B) {
	tr := buildQueryTree(b, 2000)
	if _, err := tr.Nearest(geom.Vec{500, 500}, 0, 10, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Nearest(geom.Vec{500, 500}, 0, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestComputeBRAllocs pins the bounding-rectangle kernel at zero
// allocations: it reads the node's entries in place and works in the
// tree's own workspace.
func TestComputeBRAllocs(t *testing.T) {
	tr, leaf, inner := brNodes(t)
	for _, n := range []*vnode{leaf, inner} {
		tr.computeBR(n) // size the workspace
		if allocs := testing.AllocsPerRun(100, func() { sinkBR = tr.computeBR(n) }); allocs != 0 {
			t.Errorf("computeBR of a level-%d node allocates %.1f objects per call, want 0", n.level, allocs)
		}
	}
}

// TestUpdateAllocs pins what a steady-state update (delete + insert,
// published once) allocates, averaged over enough updates to include
// their share of splits and forced reinsertions.  A page an update
// changes is copied into the slab of a version an earlier publication
// reclaimed, the published descriptor is reused the same way, and a
// split's and a forced reinsertion's working arrays and the orphan list
// are tree-owned buffers: the locator update reads 0.0 objects and
// about 24 bytes.  Before those buffers it read 0.1 objects and 240
// bytes; before the slab reuse, 8 objects and 16 KB (two per published
// page); and before the bounding-rectangle kernel stopped allocating,
// 42 objects and 49 KB.  The delete the service runs fills the tree's
// own path scratch, and the insertion's descent fills another; the
// paper's search builds its path one slice per level on the way back
// up, which is the three objects between the two readings (0.0 and
// 3.0) on this two-level tree.  The small-pool case runs the locator
// update under a 16-page pool, a third of the tree, so its sample
// includes misses, write-backs and evictions: the pool recycles the
// evicted frame for the miss and lends the memory store's page as its
// buffer, where each miss used to allocate a frame and 4 KiB (3.9
// objects and 5.6 KB per update).  The ceilings are the readings plus
// 0.05 objects (plus one for the search's path, whose slices a level
// change can add to), and 64 bytes.
func TestUpdateAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		del     func(*Tree, uint32, geom.MovingPoint, float64) (bool, error)
		pool    int
		objects float64
	}{
		{"locator", (*Tree).Delete, 0, 0.05},
		{"search", (*Tree).DeleteBySearch, 0, 3.05},
		{"small-pool", (*Tree).Delete, 16, 0.05},
	} {
		t.Run(c.name, func(t *testing.T) {
			objects, bytes := updateAllocs(t, c.del, c.pool)
			t.Logf("%.2f objects, %.0f bytes per update", objects, bytes)
			if objects > c.objects || bytes > 64 {
				t.Errorf("an update allocates %.2f objects and %.0f bytes, want at most %.2f objects and 64 bytes", objects, bytes, c.objects)
			}
		})
	}
}

// updateAllocs returns the objects and bytes one steady-state update
// allocates with the given delete and buffer pool size (0: the default,
// larger than the tree).
func updateAllocs(t *testing.T, del func(*Tree, uint32, geom.MovingPoint, float64) (bool, error), pool int) (objects, bytes float64) {
	tr, err := New(Config{Dims: 2, ExpireAware: true, BRKind: hull.KindNearOptimal, Seed: 1, BufferPages: pool}, storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	rng := rand.New(rand.NewSource(11))
	objs := make([]geom.MovingPoint, n)
	now := 0.0
	update := func(i int) {
		now += 0.01
		oid := uint32(i % n)
		tr.BeginBatch()
		if i >= n {
			if _, err := del(tr, oid, objs[oid], now); err != nil {
				t.Fatal(err)
			}
		}
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + 60 + rng.Float64()*60,
		}
		if err := tr.Insert(oid, p, now); err != nil {
			t.Fatal(err)
		}
		tr.EndBatch()
		objs[oid] = tr.Stored(p)
	}
	i := 0
	for ; i < 2*n; i++ {
		update(i)
	}
	const updates = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := i + updates; i < end; i++ {
		update(i)
	}
	runtime.ReadMemStats(&after)
	if st := tr.IOStats(); pool > 0 && (st.Evictions == 0 || st.DirtyWritebacks == 0) {
		t.Fatalf("a %d-page pool must evict and write back: %+v", pool, st)
	}
	return float64(after.Mallocs-before.Mallocs) / updates, float64(after.TotalAlloc-before.TotalAlloc) / updates
}

// TestLocateAllocs pins the locator's lookup at zero allocations: the
// path is the tree's own scratch.
func TestLocateAllocs(t *testing.T) {
	tr := buildQueryTree(t, 2000)
	oid := uint32(0)
	allocs := testing.AllocsPerRun(200, func() {
		path, _, err := tr.locate(oid)
		if err != nil || len(path) != tr.Height() {
			t.Fatalf("locate(%d) = path of %d nodes, %v", oid, len(path), err)
		}
		oid = (oid + 7) % 2000
	})
	if allocs != 0 {
		t.Errorf("locate allocates %.1f objects per call, want 0", allocs)
	}
}
