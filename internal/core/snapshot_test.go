package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// checkSnapEquivalence runs a query through both read paths on a
// quiesced tree and requires element-wise identical results: the
// snapshot traversal mirrors the locked one's descent order, so even
// the ordering must agree.
func checkSnapEquivalence(t *testing.T, tr *Tree, q geom.Query, now float64) {
	t.Helper()
	locked, err := tr.Search(q, now)
	if err != nil {
		t.Fatalf("locked search: %v", err)
	}
	snap, err := tr.SearchSnap(q, now)
	if err != nil {
		t.Fatalf("snapshot search: %v", err)
	}
	if len(locked) != len(snap) {
		t.Fatalf("snapshot returned %d results, locked path %d", len(snap), len(locked))
	}
	for i := range locked {
		if locked[i] != snap[i] {
			t.Fatalf("result %d differs: locked %+v, snapshot %+v", i, locked[i], snap[i])
		}
	}
}

func checkNearestEquivalence(t *testing.T, tr *Tree, pos geom.Vec, at float64, k int, now float64) {
	t.Helper()
	locked, err := tr.Nearest(pos, at, k, now)
	if err != nil {
		t.Fatalf("locked nearest: %v", err)
	}
	snap, err := tr.NearestSnap(pos, at, k, now)
	if err != nil {
		t.Fatalf("snapshot nearest: %v", err)
	}
	if len(locked) != len(snap) {
		t.Fatalf("snapshot nearest returned %d results, locked path %d", len(snap), len(locked))
	}
	for i := range locked {
		if locked[i] != snap[i] {
			t.Fatalf("nearest result %d differs: locked %+v, snapshot %+v", i, locked[i], snap[i])
		}
	}
}

// TestSnapshotEquivalence is the property test of the snapshot read
// path: after every burst of random mutations (inserts, deletes, clock
// advances that trigger lazy purging), all four query types must
// return element-wise identical results through SearchSnap/NearestSnap
// and through the legacy in-place traversal.
func TestSnapshotEquivalence(t *testing.T) {
	for name, cfg := range map[string]Config{"rexp": rexpConfig(), "tpr": tprConfig()} {
		t.Run(name, func(t *testing.T) {
			tr := newTestTree(t, cfg)
			rng := rand.New(rand.NewSource(42))
			live := make(map[uint32]geom.MovingPoint)
			now := 0.0
			for round := 0; round < 30; round++ {
				for op := 0; op < 60; op++ {
					id := uint32(rng.Intn(400))
					if old, ok := live[id]; ok {
						removed, err := tr.Delete(id, old, now)
						if err != nil {
							t.Fatal(err)
						}
						delete(live, id)
						if removed && rng.Intn(4) == 0 {
							continue // plain delete, no reinsert
						}
					}
					p := geom.MovingPoint{
						Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
						Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
						TExp: now + rng.Float64()*50,
					}
					if rng.Intn(8) == 0 {
						p.TExp = math.Inf(1)
					}
					if err := tr.Insert(id, p, now); err != nil {
						t.Fatal(err)
					}
					live[id] = tr.Stored(p)
				}
				now += rng.Float64() * 5 // expires some reports

				for q := 0; q < 8; q++ {
					lo := geom.Vec{rng.Float64() * 900, rng.Float64() * 900}
					r := geom.Rect{Lo: lo, Hi: geom.Vec{lo[0] + 120, lo[1] + 120}}
					r2 := geom.Rect{Lo: geom.Vec{lo[0] + 60, lo[1] + 60},
						Hi: geom.Vec{lo[0] + 180, lo[1] + 180}}
					checkSnapEquivalence(t, tr, geom.Timeslice(r, now+rng.Float64()*10), now)
					checkSnapEquivalence(t, tr, geom.Window(r, now, now+10), now)
					checkSnapEquivalence(t, tr, geom.Moving(r, r2, now, now+10, cfg.Dims), now)
					checkNearestEquivalence(t, tr, lo, now+1, 1+rng.Intn(10), now)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotBatchAtomicity checks the batch publication protocol:
// between BeginBatch and EndBatch the snapshot path keeps serving the
// pre-batch tree, so a reader can never observe the delete-without-
// reinsert gap in the middle of an update.
func TestSnapshotBatchAtomicity(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	p := geom.MovingPoint{Pos: geom.Vec{500, 500}, TExp: math.Inf(1)}
	if err := tr.Insert(7, p, 0); err != nil {
		t.Fatal(err)
	}
	stored := tr.Stored(p)
	all := geom.Timeslice(geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}, 0)

	tr.BeginBatch()
	if _, err := tr.Delete(7, stored, 0); err != nil {
		t.Fatal(err)
	}
	mid, err := tr.SearchSnap(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 1 || mid[0].OID != 7 {
		t.Fatalf("mid-batch snapshot = %v, want the pre-batch object", mid)
	}
	p2 := geom.MovingPoint{Pos: geom.Vec{100, 100}, TExp: math.Inf(1)}
	if err := tr.Insert(7, p2, 0); err != nil {
		t.Fatal(err)
	}
	tr.EndBatch()

	after, err := tr.SearchSnap(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0].OID != 7 || after[0].Point.Pos != p2.Pos {
		t.Fatalf("post-batch snapshot = %v, want the moved object", after)
	}
}

// TestSnapshotAfterReopen checks that Open republishes a snapshot for
// the reloaded tree, so the lock-free path works before any mutation.
func TestSnapshotAfterReopen(t *testing.T) {
	store := storage.NewMemStore()
	cfg := rexpConfig()
	tr, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
			TExp: math.Inf(1),
		}
		if err := tr.Insert(uint32(i), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if re.SnapshotSeq() == 0 {
		t.Fatal("reopened tree has no published snapshot")
	}
	checkSnapEquivalence(t, re, geom.Window(geom.Rect{Lo: geom.Vec{200, 200}, Hi: geom.Vec{700, 700}}, 0, 10), 0)
	var st TravStats
	all := geom.Timeslice(geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}, 0)
	if err := re.SearchFuncSnapStats(all, 0, &st, func(Result) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if st.SnapMisses != 0 {
		t.Errorf("reopened tree found no version of %d pages; installSnapshots missed them", st.SnapMisses)
	}
}

// TestSlabReuseUnderPinnedReaders runs a writer that copies every page
// it changes into the slab of a version it reclaimed against two kinds
// of reader: one that holds a single pin across hundreds of
// publications, and one that pins once per query.  Every answer — all
// stored reports, which never expire — must be the brute-force model at
// the sequence the reader pinned, so a slab reused under a reader that
// can still reach it shows up as a wrong answer (and, under -race, as a
// race).
func TestSlabReuseUnderPinnedReaders(t *testing.T) {
	const objects, updates, span = 200, 2000, 200
	type state [objects]geom.MovingPoint
	cfg := rexpConfig()
	cfg.Metrics = obs.New()
	tr := newTestTree(t, cfg)
	setFanout(tr, 8, 6) // dozens of pages, so chains are trimmed all the time
	rng := rand.New(rand.NewSource(21))
	report := func() geom.MovingPoint {
		return geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
			TExp: math.Inf(1),
		}
	}

	// models[seq] is what publication seq stores: the writer records it
	// before it publishes and drops it once no reader can pin it.
	var mu sync.Mutex
	models := map[uint64]*state{}
	var cur state
	publish := func() {
		seq, model := tr.pubSeq+1, cur
		mu.Lock()
		models[seq] = &model
		mu.Unlock()
		if err := tr.EndBatch(); err != nil {
			t.Error(err)
		}
		if got := tr.SnapshotSeq(); got != seq {
			t.Errorf("an update published sequence %d, want %d", got, seq)
		}
		if seq%64 == 0 {
			mu.Lock()
			for s := range models {
				if s < tr.trimMin {
					delete(models, s)
				}
			}
			mu.Unlock()
		}
	}
	tr.BeginBatch()
	for oid := range cur {
		p := report()
		if err := tr.Insert(uint32(oid), p, 0); err != nil {
			t.Fatal(err)
		}
		cur[oid] = tr.Stored(p)
	}
	publish()

	all := geom.Timeslice(geom.Rect{Lo: geom.Vec{-1e12, -1e12}, Hi: geom.Vec{1e12, 1e12}}, 0)
	check := func(p *pubState) bool {
		src := nodeSource{snap: p, root: p.root}
		var got state
		n := 0
		if err := tr.search(&src, all, 0, func(r Result) bool {
			got[r.OID] = r.Point
			n++
			return true
		}); err != nil {
			t.Errorf("snapshot %d: %v", p.seq, err)
			return false
		}
		mu.Lock()
		want := models[p.seq]
		mu.Unlock()
		if want == nil || n != objects || got != *want {
			t.Errorf("snapshot %d: %d results, not the %d reports published then (model known: %v)", p.seq, n, objects, want != nil)
			return false
		}
		return true
	}

	var done atomic.Bool
	var longest atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // one pin held across many publications, then a pause
		defer wg.Done()
		for !done.Load() {
			p, pin := tr.pinSnapshot()
			for !done.Load() && tr.SnapshotSeq() < p.seq+span && check(p) {
				runtime.Gosched()
			}
			if d := tr.SnapshotSeq() - p.seq; d > longest.Load() {
				longest.Store(d)
			}
			pin.Unpin()
			for next := tr.SnapshotSeq() + span/2; !done.Load() && tr.SnapshotSeq() < next; {
				runtime.Gosched()
			}
		}
	}()
	go func() { // one pin per query
		defer wg.Done()
		for !done.Load() {
			p, pin := tr.pinSnapshot()
			ok := check(p)
			pin.Unpin()
			if !ok {
				return
			}
			runtime.Gosched()
		}
	}()

	recycling := 0
	for i := 0; i < updates && !t.Failed(); i++ {
		now := float64(i) / 10
		oid := rng.Intn(objects)
		if len(tr.spares) > 0 {
			recycling++
		}
		tr.BeginBatch()
		if _, err := tr.Delete(uint32(oid), cur[oid], now); err != nil {
			t.Fatal(err)
		}
		p := report()
		if err := tr.Insert(uint32(oid), p, now); err != nil {
			t.Fatal(err)
		}
		cur[oid] = tr.Stored(p)
		publish()
		if i%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.Gosched() // let the readers keep up, so slabs come back
	}
	done.Store(true)
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d updates found a reclaimed slab; the long reader held one pin across %d publications; %d versions trimmed",
		recycling, updates, longest.Load(), cfg.Metrics.Snapshot().SnapVersionsTrimmed)
	if recycling < updates/10 || longest.Load() < span {
		t.Errorf("%d of %d updates found a reclaimed slab to copy into, and the longest pin spanned %d publications; the test exercises too little",
			recycling, updates, longest.Load())
	}
}

// TestSearchFuncSnapAllocs pins the zero-allocation contract of the
// snapshot query hot path, mirroring TestSearchFuncAllocs: with a warm
// version table and a streaming callback, a window search must not
// allocate beyond the pooled traversal stack.
func TestSearchFuncSnapAllocs(t *testing.T) {
	tr := buildQueryTree(t, 2000)
	found := 0
	fn := func(Result) bool { found++; return true }
	if err := tr.SearchFuncSnapStats(windowQuery, 0, nil, fn); err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("warmup query matched nothing; the workload is broken")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.SearchFuncSnapStats(windowQuery, 0, nil, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("SearchFuncSnapStats allocates %.1f objects per query, want <= 2", allocs)
	}
}

func BenchmarkWindowSearchFuncSnap(b *testing.B) {
	tr := buildQueryTree(b, 2000)
	fn := func(Result) bool { return true }
	if err := tr.SearchFuncSnapStats(windowQuery, 0, nil, fn); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.SearchFuncSnapStats(windowQuery, 0, nil, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSnap times the snapshot query kernel per query shape
// over a 20 000-object R^exp-tree in the paper's default configuration,
// with paper-sized queries (a 50 × 50 square, 0.25 % of the space, at
// times up to 30 ahead) and reports the time per tested leaf entry.
func BenchmarkSearchSnap(b *testing.B) {
	tr, err := New(Config{Dims: 2, ExpireAware: true, AlgsUseExp: true, BRKind: hull.KindNearOptimal,
		BufferPages: 1024, Seed: 1}, storage.NewMemStore())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	objs := make([]geom.MovingPoint, 20000)
	now := 0.0
	for i := range objs {
		now += 0.003
		objs[i] = geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + 60 + rng.Float64()*60,
		}
		if err := tr.Insert(uint32(i), objs[i], now); err != nil {
			b.Fatal(err)
		}
	}
	square := func(c geom.Vec) geom.Rect {
		return geom.Rect{Lo: geom.Vec{c[0] - 25, c[1] - 25}, Hi: geom.Vec{c[0] + 25, c[1] + 25}}
	}
	shapes := []struct {
		name string
		draw func() geom.Query
	}{
		{"timeslice", func() geom.Query {
			return geom.Timeslice(square(geom.Vec{25 + rng.Float64()*950, 25 + rng.Float64()*950}), now+rng.Float64()*30)
		}},
		{"window", func() geom.Query {
			t1, t2 := now+rng.Float64()*30, now+rng.Float64()*30
			return geom.Window(square(geom.Vec{25 + rng.Float64()*950, 25 + rng.Float64()*950}), min(t1, t2), max(t1, t2))
		}},
		{"moving", func() geom.Query {
			t1, t2 := now+rng.Float64()*30, now+rng.Float64()*30
			t1, t2 = min(t1, t2), max(t1, t2)+1e-6
			p := objs[rng.Intn(len(objs))]
			return geom.Moving(square(p.At(t1)), square(p.At(t2)), t1, t2, 2)
		}},
	}
	fn := func(Result) bool { return true }
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			qs := make([]geom.Query, 256)
			leaves := make([]uint64, len(qs))
			for i := range qs {
				qs[i] = s.draw()
				var st TravStats
				if err := tr.SearchFuncSnapStats(qs[i], now, &st, fn); err != nil {
					b.Fatal(err)
				}
				leaves[i] = st.Leaves
			}
			var entries uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.SearchFuncSnapStats(qs[i%len(qs)], now, nil, fn); err != nil {
					b.Fatal(err)
				}
				entries += leaves[i%len(qs)]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
		})
	}
}

func BenchmarkNearestSnapWarm(b *testing.B) {
	tr := buildQueryTree(b, 2000)
	if _, err := tr.NearestSnap(geom.Vec{500, 500}, 0, 10, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.NearestSnap(geom.Vec{500, 500}, 0, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}
