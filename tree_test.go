package rexptree

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"rexptree/internal/geom"
)

func TestQuickstartFlow(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// A car at (100, 200) heading east at 1 km/min, report good for 60
	// minutes.
	if err := tr.Update(1, Point{Pos: Vec{100, 200}, Vel: Vec{1, 0}, Time: 0, Expires: 60}, 0); err != nil {
		t.Fatal(err)
	}
	// A pedestrian wandering near (105, 200).
	if err := tr.Update(2, Point{Pos: Vec{105, 200}, Vel: Vec{0.05, 0}, Time: 0, Expires: 60}, 0); err != nil {
		t.Fatal(err)
	}

	// Where will they be at t = 10?  The car at (110, 200).
	res, err := tr.Timeslice(Rect{Lo: Vec{108, 198}, Hi: Vec{112, 202}}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("timeslice = %v", res)
	}
	// Results are positioned at now; predict with At.
	if got := res[0].Point.At(10); math.Abs(got[0]-110) > 1e-3 || math.Abs(got[1]-200) > 1e-3 {
		t.Fatalf("predicted position %v, want ~(110,200)", got)
	}

	// Window query over a region only the pedestrian stays in.
	res, err = tr.Window(Rect{Lo: Vec{104, 199}, Hi: Vec{107, 201}}, 20, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 2 {
		t.Fatalf("window = %v", res)
	}

	// Moving query following the car.
	res, err = tr.Moving(
		Rect{Lo: Vec{104, 195}, Hi: Vec{114, 205}},
		Rect{Lo: Vec{114, 195}, Hi: Vec{124, 205}}, 5, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.ID == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("moving query missed the car: %v", res)
	}
}

func TestExpiryVisibility(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Update(7, Point{Pos: Vec{500, 500}, Time: 0, Expires: 10}, 0)
	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	if res, _ := tr.Timeslice(world, 5, 5); len(res) != 1 {
		t.Fatalf("live object invisible: %v", res)
	}
	if res, _ := tr.Timeslice(world, 20, 20); len(res) != 0 || res == nil {
		t.Fatalf("expired object visible, or no hits gave a nil slice: %#v", res)
	}
	if _, ok := tr.Get(7, 20); ok {
		t.Fatal("Get returned expired object")
	}
	if found, _ := tr.Delete(7, 20); found {
		t.Fatal("deleted expired object")
	}
}

func TestUpdateReplaces(t *testing.T) {
	tr, _ := Open(DefaultOptions())
	defer tr.Close()
	tr.Update(1, Point{Pos: Vec{100, 100}, Time: 0, Expires: NoExpiry()}, 0)
	tr.Update(1, Point{Pos: Vec{900, 900}, Time: 5, Expires: NoExpiry()}, 5)
	if tr.Len() != 1 {
		t.Fatalf("len = %d after update", tr.Len())
	}
	res, _ := tr.Timeslice(Rect{Lo: Vec{850, 850}, Hi: Vec{950, 950}}, 6, 6)
	if len(res) != 1 {
		t.Fatalf("updated position not found: %v", res)
	}
	res, _ = tr.Timeslice(Rect{Lo: Vec{50, 50}, Hi: Vec{150, 150}}, 6, 6)
	if len(res) != 0 {
		t.Fatalf("old position still indexed: %v", res)
	}
}

func TestQueryValidation(t *testing.T) {
	tr, _ := Open(DefaultOptions())
	defer tr.Close()
	r := Rect{Lo: Vec{0, 0}, Hi: Vec{10, 10}}
	if _, err := tr.Timeslice(r, 5, 10); err == nil {
		t.Error("past timeslice accepted")
	}
	if _, err := tr.Window(r, 10, 5, 0); err == nil {
		t.Error("inverted window accepted")
	}
	if _, err := tr.Moving(r, r, 5, 5, 0); err == nil {
		t.Error("zero-length moving query accepted")
	}
}

func TestFileBackedTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	tr, err := Open(func() Options { o := DefaultOptions(); o.Path = path; return o }())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		err := tr.Update(uint32(i), Point{
			Pos:     Vec{float64(i % 100 * 10), float64(i / 100 * 100)},
			Vel:     Vec{1, -1},
			Time:    0,
			Expires: NoExpiry(),
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := tr.Timeslice(Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results from file-backed tree")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index, its clock, and its objects survive.
	re, err := Open(func() Options { o := DefaultOptions(); o.Path = path; return o }())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1000 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	if _, ok := re.Get(42, 1); !ok {
		t.Fatal("object lost on reopen")
	}
	res2, err := re.Timeslice(Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != len(res) {
		t.Fatalf("reopened query: %d results, want %d", len(res2), len(res))
	}
	// Updates keep working after reopen.
	if err := re.Update(42, Point{Pos: Vec{1, 1}, Time: 2, Expires: NoExpiry()}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTPRMode(t *testing.T) {
	tr, err := Open(TPROptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Update(1, Point{Pos: Vec{100, 100}, Time: 0, Expires: 5}, 0)
	// The TPR-tree ignores expiration: the report is a false drop at
	// t = 100.
	res, _ := tr.Timeslice(Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}, 100, 100)
	if len(res) != 1 {
		t.Fatalf("TPR mode dropped the report: %v", res)
	}
}

func TestConcurrentUse(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Preload.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tr.Update(uint32(i), Point{
			Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:     Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
			Expires: NoExpiry(),
		}, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				switch w % 2 {
				case 0:
					tr.Update(uint32(r.Intn(500)), Point{
						Pos:     Vec{r.Float64() * 1000, r.Float64() * 1000},
						Time:    1,
						Expires: NoExpiry(),
					}, 1)
				default:
					a := Vec{r.Float64() * 900, r.Float64() * 900}
					tr.Timeslice(Rect{Lo: a, Hi: Vec{a[0] + 100, a[1] + 100}}, 2, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 500 {
		t.Fatalf("len = %d after concurrent updates", tr.Len())
	}
}

func TestStatsExposed(t *testing.T) {
	tr, _ := Open(DefaultOptions())
	defer tr.Close()
	for i := 0; i < 2000; i++ {
		tr.Update(uint32(i), Point{
			Pos: Vec{float64(i%200) * 5, float64(i/200) * 100}, Expires: NoExpiry(),
		}, 0)
	}
	s := tr.Stats()
	if s.Height < 2 || s.Pages < 2 || s.LeafEntries != 2000 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Writes == 0 {
		t.Fatal("no writes recorded")
	}
	tr.ResetIOStats()
	if s2 := tr.Stats(); s2.Reads != 0 || s2.Writes != 0 {
		t.Fatalf("reset failed: %+v", s2)
	}
}

func TestNearestPublic(t *testing.T) {
	tr, _ := Open(DefaultOptions())
	defer tr.Close()
	tr.Update(1, Point{Pos: Vec{100, 100}, Expires: NoExpiry()}, 0)
	tr.Update(2, Point{Pos: Vec{105, 100}, Expires: 5}, 0)
	tr.Update(3, Point{Pos: Vec{500, 500}, Expires: NoExpiry()}, 0)
	res, err := tr.Nearest(Vec{104, 100}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 2 || res[1].ID != 1 {
		t.Fatalf("nearest = %v", res)
	}
	// After object 2 expires it cannot be a neighbor.
	res, err = tr.Nearest(Vec{104, 100}, 10, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 3 {
		t.Fatalf("nearest after expiry = %v", res)
	}
	if _, err := tr.Nearest(Vec{0, 0}, 5, 1, 10); err == nil {
		t.Error("past nearest query accepted")
	}
}

func TestForEachAndValidate(t *testing.T) {
	tr, _ := Open(DefaultOptions())
	defer tr.Close()
	for i := 0; i < 50; i++ {
		tr.Update(uint32(i), Point{Pos: Vec{float64(i) * 10, 5}, Expires: NoExpiry()}, 0)
	}
	seen := map[uint32]bool{}
	err := tr.ForEach(0, func(r Result) bool {
		seen[r.ID] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("ForEach visited %d of 50", len(seen))
	}
	// Early stop.
	visits := 0
	tr.ForEach(0, func(Result) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Fatalf("early stop visited %d", visits)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPointAt(t *testing.T) {
	p := Point{Pos: Vec{10, 20}, Vel: Vec{1, -2}, Time: 5}
	got := p.At(8)
	if got[0] != 13 || got[1] != 14 {
		t.Fatalf("At = %v", got)
	}
}

// modelIndex is what TestGetMatchesObjectModel drives: both tree types.
type modelIndex interface {
	movingIndex
	ForEach(now float64, fn func(Result) bool) error
	Close() error
	Abandon()
}

// getModelRun is one configuration of TestGetMatchesObjectModel: how
// the index is opened (bulk: preloaded with the initial load, which the
// stream then does not apply) and how it restarts mid-stream (nil: it
// does not).
type getModelRun struct {
	name    string
	bulk    bool
	open    func(t *testing.T, load []BulkObject) modelIndex
	restart func(t *testing.T, ix modelIndex) modelIndex
}

// TestGetMatchesObjectModel holds Get to the per-object table the tree
// kept before its locator became the object directory: each object's
// last report as stored, dropped by any Delete of the object whatever
// the deletion found, visible while it has not expired.  The stream
// expires reports silently and purges them lazily, deletes expired
// reports some of which are still stored, re-reports expired objects
// on their old trajectory (which steers the re-report to the leaf still
// holding its expired twin, whose purge the landing forces), and
// restarts the index mid-stream; after every step Get must answer as
// the table did for every id, at a time at or after the tree clock.
func TestGetMatchesObjectModel(t *testing.T) {
	dir := t.TempDir()
	fileOpts := func(name string, d Durability) Options { return durableOpts(filepath.Join(dir, name), d) }
	reopenTree := func(o Options, abandon bool) func(*testing.T, modelIndex) modelIndex {
		return func(t *testing.T, ix modelIndex) modelIndex {
			if abandon {
				ix.Abandon()
			} else if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			return re
		}
	}
	openTree := func(o Options) func(*testing.T, []BulkObject) modelIndex {
		return func(t *testing.T, _ []BulkObject) modelIndex {
			tr, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}
	file, durable := fileOpts("file.rexp", DurabilityNone), fileOpts("durable.rexp", DurabilityOnCommit)
	so := ShardedOptions{Options: fileOpts("sharded.rexp", DurabilityNone), Shards: 3, Partition: PartitionSpeed, SpeedBands: []float64{0.7, 1.4}}
	openSharded := func(t *testing.T, _ []BulkObject) modelIndex {
		s, err := OpenSharded(so)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	runs := []getModelRun{
		{name: "memory", open: openTree(DefaultOptions())},
		{name: "sync-reopen", open: openTree(file), restart: reopenTree(file, false)},
		{name: "abandon-recover", open: openTree(durable), restart: reopenTree(durable, true)},
		{name: "bulk", bulk: true, open: func(t *testing.T, load []BulkObject) modelIndex {
			tr, err := OpenBulk(DefaultOptions(), load, 0)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{name: "sharded-speed-reopen", open: openSharded, restart: func(t *testing.T, ix modelIndex) modelIndex {
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			return openSharded(t, nil)
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) { runGetModel(t, r) })
	}
}

func runGetModel(t *testing.T, r getModelRun) {
	const objects, ids = 2000, 2020 // ids above objects are never reported
	ref, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rng := rand.New(rand.NewSource(61))
	report := func(now float64, short bool) Point {
		life := 200.0
		if short {
			life = 8 + rng.Float64()*4
		}
		return Point{
			Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:     Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
			Time:    now,
			Expires: now + life,
		}
	}
	short := func(id uint32) bool { return id%4 == 0 }

	model := map[uint32]geom.MovingPoint{} // the old per-object table
	sent := map[uint32]Point{}             // each object's last report as sent
	clock, step := 0.0, 0
	var ix modelIndex
	check := func(what string) {
		t.Helper()
		step++
		for id := uint32(1); id <= ids; id++ {
			got, ok := ix.Get(id, clock)
			mp, known := model[id]
			want := known && !mp.Expired(clock)
			if ok != want {
				t.Fatalf("step %d (%s): Get(%d, %v) found %v, the table %v", step, what, id, clock, ok, want)
			}
			if ok && got != fromInternal(mp, clock, 2) {
				t.Fatalf("step %d (%s): Get(%d, %v) = %+v, the table %+v", step, what, id, clock, got, fromInternal(mp, clock, 2))
			}
		}
	}
	// record is the report as the index stores it (coordinates
	// quantized to the page format).
	record := func(p Point) geom.MovingPoint { return ref.t.Stored(toInternal(p, ref.dims)) }
	update := func(id uint32, p Point, now float64) {
		t.Helper()
		if err := ix.Update(id, p, now); err != nil {
			t.Fatal(err)
		}
		model[id], sent[id], clock = record(p), p, max(clock, now)
		check("update")
	}
	remove := func(id uint32, now float64) {
		t.Helper()
		if _, err := ix.Delete(id, now); err != nil {
			t.Fatal(err)
		}
		delete(model, id)
		clock = max(clock, now)
		check("delete")
	}
	stored := func(id uint32) bool {
		found := false
		if err := ix.ForEach(clock, func(res Result) bool { found = res.ID == id; return !found }); err != nil {
			t.Fatal(err)
		}
		return found
	}

	// The load at t = 0: every fourth report is short-lived.
	load := make([]Report, objects)
	bulk := make([]BulkObject, objects)
	for i := range load {
		id := uint32(i + 1)
		load[i] = Report{ID: id, Point: report(0, short(id))}
		bulk[i] = BulkObject{ID: id, Point: load[i].Point}
	}
	ix = r.open(t, bulk)
	defer func() { ix.Close() }()
	if r.bulk {
		for _, rep := range load {
			model[rep.ID], sent[rep.ID] = record(rep.Point), rep.Point
		}
		check("bulk load")
	} else {
		for i := 0; i < objects; i += 50 {
			if err := ix.UpdateBatch(load[i:i+50], 0); err != nil {
				t.Fatal(err)
			}
			for _, rep := range load[i : i+50] {
				model[rep.ID], sent[rep.ID] = record(rep.Point), rep.Point
			}
			check("batch")
		}
	}

	// Silent expiry, then lazy purge: from t = 20 on every short-lived
	// report has expired, and the updates of long-lived objects purge
	// the expired entries of the leaves they touch.
	now := 20.0
	for i := 0; i < 6; i++ {
		id := uint32(rng.Intn(objects) + 1)
		if short(id) {
			id--
		}
		now += 0.01
		update(id, report(now, false), now)
	}
	if n := ix.Len(); n == objects {
		t.Fatalf("no expired report was purged (%d stored)", n)
	}

	// Deletes: of expired reports, stored or already purged, of a live
	// report, and of an id never reported.
	deletedStored, deletedPurged := 0, 0
	for id := uint32(4); id <= 120; id += 4 {
		if stored(id) {
			deletedStored++
		} else {
			deletedPurged++
		}
		now += 0.01
		remove(id, now)
	}
	if deletedStored == 0 || deletedPurged == 0 {
		t.Fatalf("deleted %d expired reports still stored and %d purged; the stream must do both", deletedStored, deletedPurged)
	}
	for _, id := range []uint32{1, objects + 7} {
		now += 0.01
		remove(id, now)
	}

	// Re-reports on the expired report's own trajectory.
	reReported := 0
	for id := uint32(124); id <= 600; id += 4 {
		old := sent[id]
		if stored(id) {
			reReported++
		}
		now += 0.01
		update(id, Point{Pos: old.At(now), Vel: old.Vel, Time: now, Expires: now + 200}, now)
	}
	if reReported == 0 {
		t.Fatal("every expired report was purged before its re-report")
	}

	// A restart, and a second round of the stream after it.
	if r.restart != nil {
		ix = r.restart(t, ix)
		check("restart")
	}
	for i := 0; i < 120; i++ {
		id := uint32(rng.Intn(ids) + 1)
		now += 0.01
		if i%5 == 0 {
			remove(id, now)
		} else {
			update(id, report(now, i%3 == 0), now)
		}
	}
	t.Logf("%d steps; deleted %d expired reports still stored and %d purged; re-reported %d objects whose expired report was still stored",
		step, deletedStored, deletedPurged, reReported)
}

// TestMemoryPerStoredObject measures the heap an in-memory tree holds
// per stored object — its share of the columnar page versions, locator
// entry and the tree's share of pages — after loading 20 000 objects in
// the serving path's batches.  The ceiling is the reading of the tree
// whose only decoded node form is the columnar version (99 B on go1.24,
// amd64) plus 10 %; with a separate array-of-structs node beside it the
// reading was 218 B, and with a per-object table as well 336 B.
func TestMemoryPerStoredObject(t *testing.T) {
	const n = 20000
	load := testWorkload(n, 53)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < n; i += 100 {
		if err := tr.UpdateBatch(load[i:i+100], 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perObject := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.0f heap bytes per stored object (%d objects on %d pages)", perObject, tr.Len(), tr.Stats().Pages)
	if perObject > 110 {
		t.Errorf("an in-memory tree holds %.0f heap bytes per stored object, want at most 110", perObject)
	}
}
