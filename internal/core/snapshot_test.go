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

// The slab-reuse tests run a writer that copies every page it changes
// into the slab of a version it reclaimed against two kinds of reader:
// one that holds a single pin across slabSpan publications, and one
// that pins once per query.  Every answer — all stored reports, which
// never expire — must be the brute-force model at the sequence the
// reader pinned, so a slab reused under a reader that can still reach
// it shows up as a wrong answer (and, under -race, as a race).
const slabObjects, slabUpdates, slabSpan = 200, 2000, 200

type slabState [slabObjects]geom.MovingPoint

// slabRig is the writer side of the slab-reuse tests and the readers'
// check.
type slabRig struct {
	t   *testing.T
	tr  *Tree
	rng *rand.Rand
	cur slabState
	// models[seq] is what publication seq stores: the writer records it
	// before it publishes and drops it once no reader can pin it.
	mu     sync.Mutex
	models map[uint64]*slabState
	// recycling counts the updates that found a reclaimed slab.
	recycling int
}

// newSlabRig loads slabObjects reports into a tree of dozens of pages,
// so chains are trimmed all the time, and publishes them.
func newSlabRig(t *testing.T) *slabRig {
	cfg := rexpConfig()
	cfg.Metrics = obs.New()
	r := &slabRig{t: t, tr: newTestTree(t, cfg), rng: rand.New(rand.NewSource(21)), models: map[uint64]*slabState{}}
	setFanout(r.tr, 8, 6)
	r.tr.BeginBatch()
	for oid := range r.cur {
		p := r.report()
		if err := r.tr.Insert(uint32(oid), p, 0); err != nil {
			t.Fatal(err)
		}
		r.cur[oid] = r.tr.Stored(p)
	}
	r.publish()
	return r
}

func (r *slabRig) report() geom.MovingPoint {
	return geom.MovingPoint{
		Pos:  geom.Vec{r.rng.Float64() * 1000, r.rng.Float64() * 1000},
		Vel:  geom.Vec{r.rng.Float64()*2 - 1, r.rng.Float64()*2 - 1},
		TExp: math.Inf(1),
	}
}

func (r *slabRig) publish() {
	tr := r.tr
	seq, model := tr.pubSeq+1, r.cur
	r.mu.Lock()
	r.models[seq] = &model
	r.mu.Unlock()
	if err := tr.EndBatch(); err != nil {
		r.t.Error(err)
	}
	if got := tr.SnapshotSeq(); got != seq {
		r.t.Errorf("an update published sequence %d, want %d", got, seq)
	}
	if seq%64 == 0 {
		r.mu.Lock()
		for s := range r.models {
			if s < tr.trimMin {
				delete(r.models, s)
			}
		}
		r.mu.Unlock()
	}
}

// update moves one object (update i of the run) and publishes it.
func (r *slabRig) update(i int) {
	tr := r.tr
	now := float64(i) / 10
	oid := r.rng.Intn(slabObjects)
	if len(tr.spares) > 0 {
		r.recycling++
	}
	tr.BeginBatch()
	if _, err := tr.Delete(uint32(oid), r.cur[oid], now); err != nil {
		r.t.Fatal(err)
	}
	p := r.report()
	if err := tr.Insert(uint32(oid), p, now); err != nil {
		r.t.Fatal(err)
	}
	r.cur[oid] = tr.Stored(p)
	r.publish()
	if i%500 == 0 {
		if err := tr.CheckInvariants(); err != nil {
			r.t.Fatal(err)
		}
	}
}

var slabAll = geom.Timeslice(geom.Rect{Lo: geom.Vec{-1e12, -1e12}, Hi: geom.Vec{1e12, 1e12}}, 0)

// check is a reader's test of its pinned snapshot p against the model.
func (r *slabRig) check(p *pubState) bool {
	src := nodeSource{snap: p, root: p.root}
	var got slabState
	n := 0
	if err := r.tr.search(&src, slabAll, 0, func(res Result) bool {
		got[res.OID] = res.Point
		n++
		return true
	}); err != nil {
		r.t.Errorf("snapshot %d: %v", p.seq, err)
		return false
	}
	r.mu.Lock()
	want := r.models[p.seq]
	r.mu.Unlock()
	if want == nil || n != slabObjects || got != *want {
		r.t.Errorf("snapshot %d: %d results, not the %d reports published then (model known: %v)", p.seq, n, slabObjects, want != nil)
		return false
	}
	return true
}

// finish checks the tree and the exercise floors: at least a tenth of
// the updates found a reclaimed slab, and a pin spanned slabSpan
// publications.
func (r *slabRig) finish(longest uint64) {
	t := r.t
	if err := r.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d updates found a reclaimed slab; the long reader held one pin across %d publications; %d versions trimmed",
		r.recycling, slabUpdates, longest, r.tr.cfg.Metrics.Snapshot().SnapVersionsTrimmed)
	if r.recycling < slabUpdates/10 || longest < slabSpan {
		t.Errorf("%d of %d updates found a reclaimed slab to copy into, and the longest pin spanned %d publications; the test exercises too little",
			r.recycling, slabUpdates, longest)
	}
}

// TestSlabReuseUnderPinnedReaders runs the readers on the writer's
// schedule, through channels, so its floors hold by construction.  In
// each cycle the long reader pins the latest sequence s; the writer
// publishes slabSpan versions, asking the per-query reader to pin,
// check and unpin after each; the long reader then checks s and unpins.
// A pause of slabSpan/2 publications with no long pin follows.  Every
// long pin spans exactly slabSpan publications, and in a pause every
// update after its first finds a reclaimed slab: with no reader behind,
// each publication reclaims the versions it replaced.
func TestSlabReuseUnderPinnedReaders(t *testing.T) {
	r := newSlabRig(t)
	tr := r.tr
	// Each reply channel holds the one reply a request awaits, so a
	// reader never blocks on a writer that stopped; closing the request
	// channels stops the readers, and the test waits for them.
	pinReq, pinned := make(chan struct{}), make(chan uint64, 1)
	releaseReq, released := make(chan struct{}), make(chan uint64, 1)
	queryReq, queried := make(chan struct{}), make(chan bool, 1)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(queryReq)
	defer close(pinReq)
	defer close(releaseReq)
	wg.Add(2)
	go func() { // the long reader; it reports 0 publications for a wrong answer
		defer wg.Done()
		for range pinReq {
			p, pin := tr.pinSnapshot()
			pinned <- p.seq
			<-releaseReq
			ok := r.check(p)
			spanned := tr.SnapshotSeq() - p.seq
			pin.Unpin()
			if !ok {
				spanned = 0
			}
			released <- spanned
		}
	}()
	go func() { // the per-query reader
		defer wg.Done()
		for range queryReq {
			p, pin := tr.pinSnapshot()
			ok := r.check(p)
			pin.Unpin()
			queried <- ok
		}
	}()
	step := func(i int) {
		r.update(i)
		queryReq <- struct{}{}
		<-queried
	}

	var longest uint64
	i, pauseMisses := 0, 0
	for i+slabSpan <= slabUpdates && !t.Failed() {
		pinReq <- struct{}{}
		if s := <-pinned; s != tr.SnapshotSeq() {
			t.Fatalf("the long reader pinned %d, not the latest sequence %d", s, tr.SnapshotSeq())
		}
		for end := i + slabSpan; i < end; i++ {
			step(i)
		}
		releaseReq <- struct{}{}
		spanned := <-released
		if spanned != slabSpan {
			t.Errorf("a long pin spanned %d publications, want exactly %d", spanned, slabSpan)
		}
		longest = max(longest, spanned)
		for start, end := i, min(i+slabSpan/2, slabUpdates); i < end; i++ {
			before := r.recycling
			step(i)
			if i > start && r.recycling == before {
				pauseMisses++
			}
		}
	}
	if i != slabUpdates && !t.Failed() {
		t.Fatalf("the schedule ran %d updates, want %d", i, slabUpdates)
	}
	if pauseMisses != 0 {
		t.Errorf("%d updates in a pause with no reader behind found no reclaimed slab", pauseMisses)
	}
	r.finish(longest)
}

// TestSlabReuseFreeRunning is the stress run of the same writer and
// readers, scheduled by the runtime: the long reader holds each pin
// until it sees slabSpan publications past it, then pauses for
// slabSpan/2, and the per-query reader pins as fast as it can.  The
// writer yields after each update, and while a reader's pin has spanned
// its limit — slabSpan publications for the long pin, slabSpan/20 for a
// query's — it waits for the reader to let go, so a reader that falls
// behind stalls the writer instead of lengthening its pin, and the
// pauses in which slabs come back keep their length.
func TestSlabReuseFreeRunning(t *testing.T) {
	r := newSlabRig(t)
	tr := r.tr
	var done atomic.Bool
	var longest, longPin, queryPin atomic.Uint64
	behind := func(pin *atomic.Uint64, limit uint64) bool {
		s := pin.Load()
		return s != 0 && tr.SnapshotSeq() >= s+limit
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // one pin held across many publications, then a pause
		defer wg.Done()
		for !done.Load() {
			p, pin := tr.pinSnapshot()
			longPin.Store(p.seq)
			for !done.Load() && tr.SnapshotSeq() < p.seq+slabSpan && r.check(p) {
				runtime.Gosched()
			}
			if d := tr.SnapshotSeq() - p.seq; d > longest.Load() {
				longest.Store(d)
			}
			pin.Unpin()
			longPin.Store(0)
			for next := tr.SnapshotSeq() + slabSpan/2; !done.Load() && tr.SnapshotSeq() < next; {
				runtime.Gosched()
			}
		}
	}()
	go func() { // one pin per query
		defer wg.Done()
		for !done.Load() {
			p, pin := tr.pinSnapshot()
			queryPin.Store(p.seq)
			ok := r.check(p)
			pin.Unpin()
			queryPin.Store(0)
			if !ok {
				return
			}
			runtime.Gosched()
		}
	}()

	for i := 0; i < slabUpdates && !t.Failed(); i++ {
		for (behind(&longPin, slabSpan) || behind(&queryPin, slabSpan/20)) && !t.Failed() {
			runtime.Gosched()
		}
		r.update(i)
		runtime.Gosched() // let the readers keep up, so slabs come back
	}
	done.Store(true)
	wg.Wait()
	r.finish(longest.Load())
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
