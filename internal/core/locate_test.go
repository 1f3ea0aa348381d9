package core

import (
	"math/rand"
	"slices"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
	"rexptree/internal/workload"
)

// setFanout shrinks the tree's node capacities below what a page
// holds, so a few thousand operations reach every structural event:
// forced reinsertion, split, condense, root growth and shrinkage.  Zero
// keeps the page's own capacity.
func setFanout(tr *Tree, leaf, inner int) {
	if leaf > 0 {
		tr.lay.leafCap, tr.lay.leafMin = leaf, int(float64(leaf)*0.4)
	}
	if inner > 0 {
		tr.lay.innerCap, tr.lay.innerMin = inner, int(float64(inner)*0.4)
	}
}

// requireLocateIsSearch asserts that the locator and the §4.3 search
// agree on object oid, last reported as p, at the tree's current time:
// the same leaf, entry index and root-to-leaf path, or both nothing.
func requireLocateIsSearch(tb testing.TB, tr *Tree, oid uint32, p geom.MovingPoint) {
	tb.Helper()
	got, gotIdx, err := tr.locate(oid)
	if err != nil {
		tb.Fatalf("locate(%d): %v", oid, err)
	}
	got = append([]*vnode(nil), got...) // the path is the tree's scratch
	want, wantIdx, err := tr.findLeaf(tr.root, oid, tr.prepare(p).At(tr.Now()))
	if err != nil {
		tb.Fatalf("findLeaf(%d): %v", oid, err)
	}
	if len(got) != len(want) || gotIdx != wantIdx {
		tb.Fatalf("object %d at t=%v: locate finds a path of %d nodes, entry %d; the search a path of %d nodes, entry %d",
			oid, tr.Now(), len(got), gotIdx, len(want), wantIdx)
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("object %d at t=%v: paths part at depth %d: locate reads page %d, the search page %d",
				oid, tr.Now(), i, got[i].id, want[i].id)
		}
	}
}

// shiftPoint moves a report dt into the future: the same position and
// velocity at t+dt that p has at t, expiring dt later.
func shiftPoint(p geom.MovingPoint, dt float64, dims int) geom.MovingPoint {
	for d := 0; d < dims; d++ {
		p.Pos[d] -= p.Vel[d] * dt
	}
	p.TExp += dt
	return p
}

// locateStream is the differential stream: the network scenario with
// reports that expire after 0.58·UI — so objects expire silently and
// are re-reported, leaving a stale copy beside the live entry — and
// half the population turned off without a deletion.
var locateStream = workload.Params{
	Seed: 7, Objects: 1500, Insertions: 9000, UI: 60, ExpT: 35, NewOb: 0.5,
}

// locateRun describes one pass of the differential test.
type locateRun struct {
	name        string
	cfg         Config
	leaf, inner int   // fan-out override (0: the page's own; BulkLoad packs with no other)
	silences    []int // operations after which the clock jumps far ahead
	reopenAt    int   // operation before which the tree is Synced and reopened (0: never)
	bulkAt      int   // operations folded into an initial BulkLoad (0: start empty)
}

// TestLocateMatchesSearch holds the locator to the paper's deletion
// search (§4.3): before every delete of a stream with silent expiry
// and object replacement, behind a 10-page pool, both must name the
// same leaf, entry and path, or both nothing; the locator's bijection
// with the tree (CheckInvariants) is checked every 500 operations.
// Tiny fan-outs and long silences drive the stream through every place
// the side tables are maintained.
func TestLocateMatchesSearch(t *testing.T) {
	rexp := Config{Dims: 2, ExpireAware: true, StoreBRExp: true, AlgsUseExp: true, BRKind: hull.KindNearOptimal, BufferPages: 10, Seed: 1}
	derived := Config{Dims: 2, ExpireAware: true, BRKind: hull.KindNearOptimal, BufferPages: 10, Seed: 1}
	tpr := Config{Dims: 2, BRKind: hull.KindConservative, BufferPages: 10, Seed: 1}
	runs := []locateRun{
		{name: "page-fanout", cfg: rexp, silences: []int{9000}},
		{name: "fanout-8-6", cfg: rexp, leaf: 8, inner: 6, silences: []int{6000, 12000}},
		{name: "fanout-5-5/derived-exp", cfg: derived, leaf: 5, inner: 5, silences: []int{8000}},
		{name: "fanout-6-5/tpr", cfg: tpr, leaf: 6, inner: 5},
		{name: "fanout-8-6/reopen", cfg: rexp, leaf: 8, inner: 6, silences: []int{10000}, reopenAt: 7000},
		{name: "page-fanout/bulkload", cfg: rexp, silences: []int{9000}, bulkAt: 4000},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			ev := runLocateStream(t, r)
			t.Logf("%d deletes compared (%d found), splits %d, forced reinserts %d, condenses %d, purged %d, subtrees freed %d, root grew %d, shrank %d, restarted %d",
				ev.compared, ev.found, ev.st.Splits, ev.st.ForcedReinserts, ev.st.Condenses, ev.st.ExpiredPurged, ev.st.SubtreesFreed, ev.grew, ev.shrank, ev.restarted)
			if ev.found == 0 || (r.cfg.ExpireAware && ev.found == ev.compared) {
				t.Errorf("%d of %d deletes found their entry; the stream must exercise both outcomes", ev.found, ev.compared)
			}
			if ev.st.Splits == 0 || ev.grew == 0 {
				t.Errorf("the stream caused %d splits and grew the root %d times; it must do both", ev.st.Splits, ev.grew)
			}
			if r.leaf == 0 {
				return
			}
			if ev.st.ForcedReinserts == 0 || ev.st.Condenses == 0 {
				t.Errorf("the stream caused %d forced reinserts and %d condenses; a tiny fan-out must exercise both", ev.st.ForcedReinserts, ev.st.Condenses)
			}
			if r.cfg.StoreBRExp && len(r.silences) > 0 && (ev.st.SubtreesFreed == 0 || ev.shrank == 0 || ev.restarted == 0) {
				t.Errorf("the silences freed %d subtrees, shrank the root %d times and restarted it %d times; they must do all three", ev.st.SubtreesFreed, ev.shrank, ev.restarted)
			}
		})
	}
}

// locateEvents is what a differential run saw.
type locateEvents struct {
	compared, found         int
	grew, shrank, restarted int
	st                      obs.Snapshot
}

func runLocateStream(t *testing.T, r locateRun) locateEvents {
	gen, err := workload.NewGenerator(locateStream)
	if err != nil {
		t.Fatal(err)
	}
	dims := r.cfg.Dims
	r.cfg.Metrics = obs.New()
	store := storage.NewMemStore()
	stored := map[uint32]geom.MovingPoint{} // each object's last report, as inserted
	var tr *Tree
	if r.bulkAt == 0 {
		if tr, err = New(r.cfg, store); err != nil {
			t.Fatal(err)
		}
		setFanout(tr, r.leaf, r.inner)
	}
	var ev locateEvents
	shift := 0.0
	for i := 1; ; i++ {
		op, ok := gen.Next()
		if !ok {
			break
		}
		now := op.Time + shift
		if tr == nil {
			// Still collecting the initial population: reports the
			// stream replaced are gone, reports that expired stay (the
			// bulk load stores them like any other).
			switch op.Kind {
			case workload.OpInsert:
				stored[op.OID] = op.Point
			case workload.OpDelete:
				delete(stored, op.OID)
			}
			if i < r.bulkAt {
				continue
			}
			items := make([]BulkItem, 0, len(stored))
			for oid, p := range stored {
				items = append(items, BulkItem{OID: oid, Point: p})
			}
			if tr, err = BulkLoad(r.cfg, store, items, now); err != nil {
				t.Fatal(err)
			}
			for oid, p := range stored {
				stored[oid] = tr.Stored(p)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after BulkLoad: %v", err)
			}
			continue
		}
		if i == r.reopenAt {
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			if tr, err = Open(r.cfg, store); err != nil {
				t.Fatal(err)
			}
			setFanout(tr, r.leaf, r.inner)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after reopen at operation %d: %v", i, err)
			}
		}
		height := tr.height
		switch op.Kind {
		case workload.OpInsert:
			p := shiftPoint(op.Point, shift, dims)
			if err := tr.Insert(op.OID, p, now); err != nil {
				t.Fatalf("operation %d: %v", i, err)
			}
			stored[op.OID] = tr.Stored(p)
		case workload.OpDelete:
			old, ok := stored[op.OID]
			if !ok {
				continue
			}
			if err := ev.delete(t, tr, op.OID, old, now); err != nil {
				t.Fatalf("operation %d: %v", i, err)
			}
			delete(stored, op.OID)
		}
		ev.noteHeight(tr, height)
		if i%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after operation %d: %v", i, err)
			}
		}
		for _, s := range r.silences {
			if i == s {
				shift += 1000
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("at the end of the stream: %v", err)
	}
	// Drain: deleting what is left condenses the tree level by level.
	oids := make([]uint32, 0, len(stored))
	for oid := range stored {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	for i, oid := range oids {
		height := tr.height
		if err := ev.delete(t, tr, oid, stored[oid], tr.Now()); err != nil {
			t.Fatalf("drain of object %d: %v", oid, err)
		}
		ev.noteHeight(tr, height)
		if i%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("draining, after object %d: %v", oid, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("drained: %v", err)
	}
	if live, _, err := tr.EntryStats(); err != nil || live != 0 || len(tr.loc) != 0 {
		t.Fatalf("drained tree holds %d live entries and locates %d objects (%v)", live, len(tr.loc), err)
	}
	ev.st = r.cfg.Metrics.Snapshot()
	return ev
}

// delete compares the locator with the search on the object, then
// deletes it through the locator.
func (ev *locateEvents) delete(tb testing.TB, tr *Tree, oid uint32, old geom.MovingPoint, now float64) error {
	tr.Advance(now)
	requireLocateIsSearch(tb, tr, oid, old)
	found, err := tr.Delete(oid, old, now)
	ev.compared++
	if found {
		ev.found++
	}
	return err
}

// requireLookupIsModel holds Lookup to the model of each object's last
// report as stored (absent once deleted): a report live at the tree
// clock is what Lookup returns, exactly; for any other object Lookup
// returns nothing or a record expired at the tree clock.
func requireLookupIsModel(tb testing.TB, tr *Tree, model map[uint32]geom.MovingPoint, oids uint32) {
	tb.Helper()
	now := tr.Now()
	for oid := uint32(0); oid < oids; oid++ {
		got, ok := tr.Lookup(oid)
		want, known := model[oid]
		switch {
		case known && !want.Expired(now):
			if !ok || got != want {
				tb.Fatalf("Lookup(%d) at t=%v = %+v, %v; want the live report %+v", oid, now, got, ok, want)
			}
		case ok && !got.Expired(now):
			tb.Fatalf("Lookup(%d) at t=%v = %+v, live, for an object whose last report is %+v (known: %v)", oid, now, got, want, known)
		}
	}
}

// TestLookupPrefersLiveTwin builds the state Lookup's choice exists
// for: two entries of one object in one leaf, the expired one and the
// live one.  The service never produces it — a re-report's insert
// purges the leaf it lands in — so the test reports twice without a
// deletion in between, which leaves both entries live, and lets only
// the clock move.  Whichever was inserted last, Lookup returns the
// live entry; once the object is deleted, the expired entry left behind
// is not its report.
func TestLookupPrefersLiveTwin(t *testing.T) {
	short := geom.MovingPoint{Pos: geom.Vec{10, 10}, Vel: geom.Vec{1, 0}, TExp: 5}
	long := geom.MovingPoint{Pos: geom.Vec{11, 10}, Vel: geom.Vec{1, 0}, TExp: 100}
	for _, order := range [][2]geom.MovingPoint{{short, long}, {long, short}} {
		tr, err := New(Config{Dims: 2, ExpireAware: true, BRKind: hull.KindNearOptimal, Seed: 1}, storage.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range order {
			if err := tr.Insert(7, p, 0); err != nil {
				t.Fatal(err)
			}
		}
		tr.Advance(10)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got, ok := tr.Lookup(7); !ok || got != tr.Stored(long) {
			t.Fatalf("inserted TExp %v then %v: Lookup = %+v, %v; want the live entry %+v", order[0].TExp, order[1].TExp, got, ok, tr.Stored(long))
		}
		if removed, err := tr.Delete(7, geom.MovingPoint{}, 10); err != nil || !removed {
			t.Fatalf("Delete = %v, %v", removed, err)
		}
		if got, ok := tr.Lookup(7); ok {
			t.Fatalf("after the delete Lookup returns the expired entry %+v", got)
		}
		if _, ok := tr.Lookup(8); ok {
			t.Fatal("Lookup found an object never reported")
		}
	}
}

// noteHeight classifies a change of height across one operation: the
// root grew, shrank (CT4), or — an insertion that found the whole tree
// expired — was replaced by an empty leaf (CT3.1).
func (ev *locateEvents) noteHeight(tr *Tree, before int) {
	switch {
	case tr.height > before:
		ev.grew++
	case tr.height == 1 && before > 1 && tr.leafEntries == 1:
		ev.restarted++
	case tr.height < before:
		ev.shrank++
	}
}

// FuzzLocateVsSearch drives a tree with a fan-out of four from op
// bytes (see fuzzLocate).
func FuzzLocateVsSearch(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{64, 400, 1200} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(fuzzLocate)
}

// fuzzLocate reads four bytes per op — report (delete + insert, like
// the service), delete, advance the clock, reopen — and holds the
// locator to the search before every delete, Lookup to the model of
// each object's last report after every op, and the locator to its
// bijection with the tree throughout.
func fuzzLocate(t *testing.T, ops []byte) {
	cfg := Config{Dims: 2, ExpireAware: true, StoreBRExp: true, AlgsUseExp: true, BRKind: hull.KindNearOptimal, BufferPages: 10, Seed: 1}
	store := storage.NewMemStore()
	tr, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	setFanout(tr, 4, 4)
	stored := map[uint32]geom.MovingPoint{}
	now := 0.0
	var ev locateEvents
	remove := func(oid uint32) {
		old, ok := stored[oid]
		if !ok {
			return
		}
		if err := ev.delete(t, tr, oid, old, now); err != nil {
			t.Fatal(err)
		}
		delete(stored, oid)
	}
	for i := 0; i+4 <= len(ops); i += 4 {
		kind, oid := ops[i]%16, uint32(ops[i+1]%96)
		switch {
		case kind < 10: // report
			remove(oid)
			p := geom.MovingPoint{
				Pos:  geom.Vec{float64(ops[i+2]) * 4, float64(ops[i+3]) * 4},
				Vel:  geom.Vec{float64(ops[i+2]%7) - 3, float64(ops[i+3]%7) - 3},
				TExp: now + 1 + float64(ops[i]>>4)*2,
			}
			p.Pos = p.Pos.Sub(p.Vel.Scale(now))
			if err := tr.Insert(oid, p, now); err != nil {
				t.Fatal(err)
			}
			stored[oid] = tr.Stored(p)
		case kind < 13:
			remove(oid)
		case kind < 15:
			now += float64(ops[i+2]) / 8
		default:
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			if tr, err = Open(cfg, store); err != nil {
				t.Fatal(err)
			}
			setFanout(tr, 4, 4)
		}
		requireLookupIsModel(t, tr, stored, 96)
		if i%64 == 0 || kind == 15 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after op %d: %v", i/4, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
