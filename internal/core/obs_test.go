package core

import (
	"math/rand"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
)

func obsConfig() (Config, *obs.Metrics) {
	met := obs.New()
	cfg := rexpConfig()
	cfg.Metrics = met
	return cfg, met
}

func randPoint(rng *rand.Rand, texp float64) geom.MovingPoint {
	return geom.MovingPoint{
		Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
		Vel:  geom.Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
		TExp: texp,
	}
}

// TestInsertSplitCounters fills the root leaf to overflow: the
// overflowing insertion must split the root leaf exactly once (the
// root never uses forced reinsertion), condensing and purging nothing,
// and the tree must grow to two levels with every entry kept.
func TestInsertSplitCounters(t *testing.T) {
	cfg, met := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(7))
	cap := tr.LeafCapacity()
	for i := 0; i < cap; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 1e9), 0); err != nil {
			t.Fatal(err)
		}
	}
	if met.Splits.Load() != 0 {
		t.Fatalf("splits = %d before overflow", met.Splits.Load())
	}
	before := met.Snapshot()
	if err := tr.Insert(uint32(cap), randPoint(rng, 1e9), 0); err != nil {
		t.Fatal(err)
	}
	after := met.Snapshot()
	if d := after.Splits - before.Splits; d != 1 {
		t.Fatalf("splits = %d during the overflowing insertion, want 1", d)
	}
	if after.Condenses != before.Condenses || after.ExpiredPurged != before.ExpiredPurged ||
		after.ForcedReinserts != before.ForcedReinserts {
		t.Errorf("root split also counted condenses %d, purges %d, forced reinserts %d",
			after.Condenses-before.Condenses, after.ExpiredPurged-before.ExpiredPurged,
			after.ForcedReinserts-before.ForcedReinserts)
	}
	if tr.Height() != 2 {
		t.Errorf("height = %d after root split, want 2", tr.Height())
	}
	if tr.LeafEntries() != cap+1 {
		t.Errorf("leaf entries = %d after root split, want %d", tr.LeafEntries(), cap+1)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestForcedReinsertCounters grows the tree past one level: overflow
// must be handled by forced reinsertion, whose displaced entries are
// placed back as orphans, and no entry may be lost on the way.
func TestForcedReinsertCounters(t *testing.T) {
	cfg, met := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(8))
	n := 3 * tr.LeafCapacity()
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 1e9), 0); err != nil {
			t.Fatal(err)
		}
	}
	if met.ForcedReinserts.Load() == 0 {
		t.Fatal("no forced reinsertion in an overflowing workload")
	}
	if met.OrphansReinserted.Load() == 0 {
		t.Fatal("no orphans reinserted despite forced reinsertion")
	}
	if tr.LeafEntries() != n {
		t.Errorf("leaf entries = %d after %d insertions", tr.LeafEntries(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteCondenseCounters deletes entries until a leaf underflows:
// the deletion that dissolves it must reinsert the entries it orphaned,
// so the tree holds exactly the entries not yet deleted.
func TestDeleteCondenseCounters(t *testing.T) {
	cfg, met := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(9))
	n := 3 * tr.LeafCapacity()
	pts := make([]geom.MovingPoint, n)
	for i := range pts {
		pts[i] = randPoint(rng, 1e9)
		if err := tr.Insert(uint32(i), pts[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d; need internal nodes to underflow a leaf", tr.Height())
	}
	sawCondense := false
	for i := 0; i < n && !sawCondense; i++ {
		before := met.Snapshot()
		found, err := tr.Delete(uint32(i), pts[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("entry %d not found", i)
		}
		after := met.Snapshot()
		if after.Condenses == before.Condenses {
			continue
		}
		sawCondense = true
		if after.OrphansReinserted == before.OrphansReinserted {
			t.Errorf("delete %d condensed %d node(s) but reinserted no orphan", i, after.Condenses-before.Condenses)
		}
		if want := n - i - 1; tr.LeafEntries() != want {
			t.Errorf("leaf entries = %d after the condensing delete, want %d", tr.LeafEntries(), want)
		}
	}
	if !sawCondense {
		t.Fatal("no condense observed across the deletion sweep")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryCountersAccumulate checks the per-query node-visit and
// leaf-scan counters and the ChooseSubtree descent counter.
func TestQueryCountersAccumulate(t *testing.T) {
	cfg, met := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(10))
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 1e9), 0); err != nil {
			t.Fatal(err)
		}
	}
	if met.ChooseSubtree.Load() == 0 {
		t.Error("no ChooseSubtree descents counted during insertions")
	}
	visits, scans := met.NodeVisits.Load(), met.LeafScans.Load()
	if visits != 0 || scans != 0 {
		t.Fatalf("query counters moved before any query: visits=%d scans=%d", visits, scans)
	}
	world := geom.Rect{Lo: geom.Vec{0, 0}, Hi: geom.Vec{1000, 1000}}
	res, err := tr.Search(geom.Timeslice(world, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("whole-world query found %d of %d", len(res), n)
	}
	if met.NodeVisits.Load() == 0 {
		t.Error("search did not count node visits")
	}
	if met.LeafScans.Load() < n {
		t.Errorf("leaf scans = %d after a whole-world query over %d entries", met.LeafScans.Load(), n)
	}
	// Nearest-neighbor queries share the counters.
	visits = met.NodeVisits.Load()
	if _, err := tr.Nearest(geom.Vec{500, 500}, 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if met.NodeVisits.Load() <= visits {
		t.Error("nearest did not count node visits")
	}
}

// TestPurgeCountersMassExpiry replays the Figure 8 cascade with
// instrumentation attached: lazy purging must account every entry it
// drops, in a purged node or a freed subtree, so the entries stored and
// the entries purged add up to the entries inserted.
func TestPurgeCountersMassExpiry(t *testing.T) {
	cfg, met := obsConfig()
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(11))
	const n, late = 3000, 40
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint32(i), randPoint(rng, 10+rng.Float64()*5), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Everything is dead by t=15; the next insertions purge lazily.
	for i := 0; i < late; i++ {
		if err := tr.Insert(uint32(n+i), randPoint(rng, 200), 100); err != nil {
			t.Fatal(err)
		}
	}
	purged := met.ExpiredPurged.Load()
	if purged == 0 {
		t.Fatal("mass expiry purged nothing")
	}
	if met.SubtreesFreed.Load() == 0 {
		t.Error("mass expiry freed no expired subtree")
	}
	if got := uint64(tr.LeafEntries()) + purged; got != n+late {
		t.Errorf("%d stored + %d purged = %d entries, want the %d inserted", tr.LeafEntries(), purged, got, n+late)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
