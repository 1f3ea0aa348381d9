package core

import (
	"math/rand"
	"sort"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg, storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rexpConfig() Config {
	return Config{Dims: 2, ExpireAware: true, StoreBRExp: true, AlgsUseExp: true,
		BRKind: hull.KindNearOptimal, BufferPages: 20, Seed: 1}
}

func tprConfig() Config {
	return Config{Dims: 2, BRKind: hull.KindConservative, BufferPages: 20, Seed: 1}
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	if tr.Height() != 1 {
		t.Errorf("height = %d", tr.Height())
	}
	if tr.Size() != 2 { // meta page + empty root
		t.Errorf("size = %d pages", tr.Size())
	}
	res, err := tr.Search(geom.Timeslice(geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty tree returned %d results", len(res))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertAndTimeslice(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	pts := []geom.MovingPoint{
		{Pos: geom.Vec{100, 100}, Vel: geom.Vec{1, 0}, TExp: 100},
		{Pos: geom.Vec{500, 500}, Vel: geom.Vec{0, -1}, TExp: 100},
		{Pos: geom.Vec{900, 900}, Vel: geom.Vec{-2, -2}, TExp: 100},
	}
	for i, p := range pts {
		if err := tr.Insert(uint32(i), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	// At t=50, object 0 is at (150,100), object 1 at (500,450),
	// object 2 at (800,800).
	q := geom.Timeslice(geom.Rect{Lo: geom.Vec{140, 90}, Hi: geom.Vec{160, 110}}, 50)
	res, err := tr.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].OID != 0 {
		t.Fatalf("timeslice = %v, want object 0", res)
	}
	// Whole-space query finds everything.
	all, _ := tr.Search(geom.Timeslice(geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}, 50), 10)
	if len(all) != 3 {
		t.Fatalf("whole-space query found %d objects", len(all))
	}
}

func TestSearchSkipsExpired(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	tr.Insert(1, geom.MovingPoint{Pos: geom.Vec{100, 100}, TExp: 10}, 0)
	tr.Insert(2, geom.MovingPoint{Pos: geom.Vec{200, 200}, TExp: 1000}, 0)
	world := geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}
	res, _ := tr.Search(geom.Timeslice(world, 50), 50)
	if len(res) != 1 || res[0].OID != 2 {
		t.Fatalf("expired object visible: %v", res)
	}
	// A query at t beyond object 2's expiry sees nothing.
	res, _ = tr.Search(geom.Timeslice(world, 2000), 2000)
	if len(res) != 0 {
		t.Fatalf("all objects expired, got %v", res)
	}
}

func TestTPRModeIgnoresExpiration(t *testing.T) {
	tr := newTestTree(t, tprConfig())
	tr.Insert(1, geom.MovingPoint{Pos: geom.Vec{100, 100}, TExp: 10}, 0)
	world := geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}
	res, _ := tr.Search(geom.Timeslice(world, 500), 500)
	if len(res) != 1 {
		t.Fatalf("TPR-tree must report expired objects (false drops), got %v", res)
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	p := geom.MovingPoint{Pos: geom.Vec{100, 100}, Vel: geom.Vec{1, 1}, TExp: 1000}
	tr.Insert(1, p, 0)
	found, err := tr.Delete(1, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("live entry not found for deletion")
	}
	res, _ := tr.Search(geom.Timeslice(geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}, 10), 10)
	if len(res) != 0 {
		t.Fatalf("deleted object still visible: %v", res)
	}
	// Deleting again fails gracefully.
	found, err = tr.Delete(1, p, 6)
	if err != nil || found {
		t.Fatalf("second delete: found=%v err=%v", found, err)
	}
}

func TestDeleteExpiredFails(t *testing.T) {
	// §4.3: the deletion search does not see expired entries, so
	// deleting one fails.
	tr := newTestTree(t, rexpConfig())
	p := geom.MovingPoint{Pos: geom.Vec{100, 100}, TExp: 10}
	tr.Insert(1, p, 0)
	found, err := tr.Delete(1, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("delete of an expired entry succeeded")
	}
}

func TestGrowAndShrink(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	rng := rand.New(rand.NewSource(51))
	n := tr.LeafCapacity()*3 + 7
	pts := make([]geom.MovingPoint, n)
	for i := range pts {
		pts[i] = geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: geom.Inf(),
		}
		if err := tr.Insert(uint32(i), pts[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d after %d inserts", tr.Height(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete everything; the tree must shrink back to a single leaf.
	for i := range pts {
		found, err := tr.Delete(uint32(i), quantize(pts[i], 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("object %d lost", i)
		}
	}
	if tr.LeafEntries() != 0 {
		t.Fatalf("leaf entries = %d after deleting all", tr.LeafEntries())
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d after deleting all", tr.Height())
	}
	if tr.Size() != 2 { // meta page + empty root
		t.Fatalf("size = %d pages after deleting all", tr.Size())
	}
}

func TestLazyPurgeKeepsExpiredFractionLow(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	rng := rand.New(rand.NewSource(52))
	const n = 2000
	objs := make(map[uint32]geom.MovingPoint)
	now := 0.0
	for step := 0; step < 6*n; step++ {
		now += 0.01
		oid := uint32(rng.Intn(n))
		if old, ok := objs[oid]; ok {
			tr.Delete(oid, old, now)
		}
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + 5 + rng.Float64()*40,
		}
		if err := tr.Insert(oid, p, now); err != nil {
			t.Fatal(err)
		}
		objs[oid] = quantize(p, 2)
	}
	live, expired, err := tr.EntryStats()
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(expired) / float64(live+expired)
	if frac > 0.05 {
		t.Errorf("expired fraction %.3f exceeds 5%% (live=%d expired=%d)", frac, live, expired)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUIEstimate(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	rng := rand.New(rand.NewSource(53))
	// 1000 objects each updating every ~20 time units.
	const n, ui = 1000, 20.0
	objs := make(map[uint32]geom.MovingPoint)
	now := 0.0
	for round := 0; round < 5; round++ {
		for i := 0; i < n; i++ {
			now += ui / n
			oid := uint32(i)
			if old, ok := objs[oid]; ok {
				tr.Delete(oid, old, now)
			}
			p := geom.MovingPoint{
				Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				TExp: now + 2*ui,
			}
			tr.Insert(oid, p, now)
			objs[oid] = quantize(p, 2)
		}
	}
	got := tr.UI()
	if got < ui/2 || got > ui*2 {
		t.Errorf("UI estimate %v, want about %v", got, ui)
	}
	if w := tr.W(); w != 0.5*got {
		t.Errorf("W = %v, want beta*UI = %v", w, 0.5*got)
	}
}

// runOracleWorkload drives a tree and a brute-force oracle through an
// identical random workload and verifies that every query agrees.
func runOracleWorkload(t *testing.T, cfg Config, seed int64, steps int) {
	t.Helper()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	oracle := make(map[uint32]geom.MovingPoint)
	now := 0.0
	nextOID := uint32(0)
	queries := 0
	for step := 0; step < steps; step++ {
		now += rng.Float64() * 0.2
		switch op := rng.Intn(10); {
		case op < 5: // insert new object
			p := geom.MovingPoint{
				Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
				TExp: now + rng.Float64()*60,
			}
			if rng.Intn(10) == 0 {
				p.TExp = geom.Inf()
			}
			if err := tr.Insert(nextOID, p, now); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			oracle[nextOID] = tr.prepare(p)
			nextOID++
		case op < 7: // delete (possibly expired, possibly absent)
			if len(oracle) == 0 {
				continue
			}
			oid := pickKey(rng, oracle)
			old := oracle[oid]
			found, err := tr.Delete(oid, old, now)
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			wantFound := !cfg.ExpireAware || old.TExp >= now
			if found != wantFound {
				t.Fatalf("step %d delete(%d): found=%v want %v (texp=%v now=%v)",
					step, oid, found, wantFound, old.TExp, now)
			}
			delete(oracle, oid)
		default: // query
			queries++
			q := randQuery(rng, now)
			got, err := tr.Search(q, now)
			if err != nil {
				t.Fatalf("step %d search: %v", step, err)
			}
			var gotIDs, wantIDs []uint32
			for _, r := range got {
				gotIDs = append(gotIDs, r.OID)
			}
			for oid, p := range oracle {
				if cfg.ExpireAware && p.TExp < now {
					continue
				}
				if q.MatchesPoint(p, 2, cfg.ExpireAware) {
					wantIDs = append(wantIDs, oid)
				}
			}
			sortIDs(gotIDs)
			sortIDs(wantIDs)
			if !equalIDs(gotIDs, wantIDs) {
				t.Fatalf("step %d (now=%v): query %+v\n got %v\nwant %v", step, now, q, gotIDs, wantIDs)
			}
		}
		if step%500 == 499 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if queries == 0 {
		t.Fatal("workload executed no queries")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func pickKey(rng *rand.Rand, m map[uint32]geom.MovingPoint) uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortIDs(keys)
	return keys[rng.Intn(len(keys))]
}

func sortIDs(ids []uint32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randQuery(rng *rand.Rand, now float64) geom.Query {
	mk := func() geom.Rect {
		var r geom.Rect
		for i := 0; i < 2; i++ {
			a := rng.Float64() * 950
			r.Lo[i], r.Hi[i] = a, a+50
		}
		return r
	}
	t1 := now + rng.Float64()*10
	t2 := t1 + 0.1 + rng.Float64()*20
	switch rng.Intn(3) {
	case 0:
		return geom.Timeslice(mk(), t1)
	case 1:
		return geom.Window(mk(), t1, t2)
	default:
		return geom.Moving(mk(), mk(), t1, t2, 2)
	}
}

// TestExpiredDuplicateInvisible reproduces the §4.3 corner: an object
// expires before its update, so the deletion fails and the new report
// coexists with the stale one.  Queries must see exactly the live
// report, and the stale copy must eventually be purged.
func TestExpiredDuplicateInvisible(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	rng := rand.New(rand.NewSource(65))
	records := map[uint32]geom.MovingPoint{}
	now := 0.0
	duplicates := 0
	for i := 0; i < 5000; i++ {
		now += 0.05
		oid := uint32(rng.Intn(400))
		if old, ok := records[oid]; ok {
			found, err := tr.Delete(oid, old, now)
			if err != nil {
				t.Fatal(err)
			}
			if !found && old.TExp < now {
				duplicates++ // stale copy may briefly remain
			}
		}
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + 1 + rng.Float64()*30, // frequently expires before the update
		}
		if err := tr.Insert(oid, p, now); err != nil {
			t.Fatal(err)
		}
		records[oid] = tr.prepare(p)

		if i%500 == 499 {
			// Queries return each live object at most once, and only
			// the record matching the oracle.
			world := geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}
			res, err := tr.Search(geom.Timeslice(world, now), now)
			if err != nil {
				t.Fatal(err)
			}
			got := map[uint32]int{}
			for _, r := range res {
				got[r.OID]++
				if r.Point != records[r.OID] {
					t.Fatalf("step %d: object %d returned stale record", i, r.OID)
				}
			}
			for oid, c := range got {
				if c > 1 {
					t.Fatalf("step %d: object %d returned %d times", i, oid, c)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if duplicates == 0 {
		t.Fatal("scenario never produced an expire-before-update; test is vacuous")
	}
}

func TestSearchFuncEarlyStop(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 2000; i++ {
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			TExp: geom.Inf(),
		}
		if err := tr.Insert(uint32(i), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	world := geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}
	got := 0
	err := tr.SearchFunc(geom.Timeslice(world, 1), 1, func(Result) bool {
		got++
		return got < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("early stop delivered %d results, want 5", got)
	}
	// Full streaming agrees with Search.
	full, err := tr.Search(geom.Timeslice(world, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	tr.SearchFunc(geom.Timeslice(world, 1), 1, func(Result) bool { streamed++; return true })
	if streamed != len(full) {
		t.Fatalf("streamed %d, Search returned %d", streamed, len(full))
	}
}

func TestOracleRexpNearOptimal(t *testing.T) {
	runOracleWorkload(t, rexpConfig(), 101, 4000)
}

func TestOracleRexpNoBRExp(t *testing.T) {
	cfg := rexpConfig()
	cfg.StoreBRExp = false
	runOracleWorkload(t, cfg, 102, 3000)
}

func TestOracleRexpAlgsNoExp(t *testing.T) {
	cfg := rexpConfig()
	cfg.AlgsUseExp = false
	runOracleWorkload(t, cfg, 103, 3000)
}

func TestOracleRexpStatic(t *testing.T) {
	cfg := rexpConfig()
	cfg.BRKind = hull.KindStatic
	runOracleWorkload(t, cfg, 104, 3000)
}

func TestOracleRexpUpdateMinimum(t *testing.T) {
	cfg := rexpConfig()
	cfg.BRKind = hull.KindUpdateMinimum
	runOracleWorkload(t, cfg, 105, 3000)
}

func TestOracleRexpOptimal(t *testing.T) {
	cfg := rexpConfig()
	cfg.BRKind = hull.KindOptimal
	runOracleWorkload(t, cfg, 106, 2000)
}

func TestOracleRexpConservative(t *testing.T) {
	cfg := rexpConfig()
	cfg.BRKind = hull.KindConservative
	runOracleWorkload(t, cfg, 107, 3000)
}

func TestOracleTPR(t *testing.T) {
	runOracleWorkload(t, tprConfig(), 108, 4000)
}

func TestOracleNoReinsert(t *testing.T) {
	cfg := rexpConfig()
	cfg.ReinsertFrac = -1 // disable forced reinsertion (ablation knob)
	runOracleWorkload(t, cfg, 109, 3000)
}

func TestOracleOverlapHeuristic(t *testing.T) {
	cfg := rexpConfig()
	cfg.UseOverlapHeuristic = true
	runOracleWorkload(t, cfg, 110, 3000)
}

func TestOracleNoAutoTune(t *testing.T) {
	cfg := rexpConfig()
	cfg.DisableAutoTune = true
	cfg.InitialUI = 10
	tr := newTestTree(t, cfg)
	for i := 0; i < 2*tr.LeafCapacity(); i++ {
		p := geom.MovingPoint{Pos: geom.Vec{float64(i % 100 * 10), 500}, TExp: geom.Inf()}
		if err := tr.Insert(uint32(i), p, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.UI() != 10 {
		t.Errorf("UI = %v with auto-tune disabled, want InitialUI 10", tr.UI())
	}
}

func TestOracle1D(t *testing.T) {
	cfg := rexpConfig()
	cfg.Dims = 1
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(61))
	oracle := map[uint32]geom.MovingPoint{}
	now := 0.0
	for i := 0; i < 1500; i++ {
		now += 0.05
		p := geom.MovingPoint{Pos: geom.Vec{rng.Float64() * 1000}, Vel: geom.Vec{rng.Float64()*6 - 3}, TExp: now + rng.Float64()*50}
		tr.Insert(uint32(i), p, now)
		oracle[uint32(i)] = quantize(p, 1)
	}
	q := geom.Window(geom.Rect{Lo: geom.Vec{200}, Hi: geom.Vec{400}}, now, now+10)
	got, err := tr.Search(q, now)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range oracle {
		if p.TExp >= now && q.MatchesPoint(p, 1, true) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("1-D query: got %d, want %d", len(got), want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPermDimsMatchesRandPerm pins the allocation-free dimension order
// to rand.Perm: same orders, same generator state afterwards, so trees
// built from one seed keep their rectangles.
func TestPermDimsMatchesRandPerm(t *testing.T) {
	for dims := 1; dims <= geom.MaxDims; dims++ {
		cfg := rexpConfig()
		cfg.Dims, cfg.Seed = dims, 9
		tr := newTestTree(t, cfg)
		ref := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			got, want := tr.permDims(), ref.Perm(dims)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("dims %d, draw %d: order %v, rand.Perm gives %v", dims, i, got, want)
				}
			}
		}
	}
}
