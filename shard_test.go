package rexptree

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/manifest"
)

// testWorkload builds a deterministic stream of object reports.
func testWorkload(n int, seed int64) []Report {
	rng := rand.New(rand.NewSource(seed))
	batch := make([]Report, n)
	for i := range batch {
		batch[i] = Report{
			ID: uint32(i + 1),
			Point: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*3 - 1.5, rng.Float64()*3 - 1.5},
				Time:    0,
				Expires: 60 + rng.Float64()*120,
			},
		}
	}
	return batch
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
}

// TestShardedDeterminism loads the same workload into a single Tree
// and a ShardedTree and checks every query type returns identical
// results.  Query outputs carry the stored (quantized) reports, which
// do not depend on tree structure, so after normalizing the order the
// result sets must match element for element.
func TestShardedDeterminism(t *testing.T) {
	reports := testWorkload(3000, 42)

	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	for _, r := range reports {
		if err := single.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sharded.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := sharded.Len(), single.Len(); got != want {
		t.Fatalf("sharded Len = %d, single = %d", got, want)
	}

	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 50; q++ {
		lo := Vec{rng.Float64() * 900, rng.Float64() * 900}
		r := Rect{Lo: lo, Hi: Vec{lo[0] + 120, lo[1] + 120}}
		at := rng.Float64() * 40

		sres, err := single.Timeslice(r, at, 0)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := sharded.Timeslice(r, at, 0)
		if err != nil {
			t.Fatal(err)
		}
		sortResults(sres)
		if len(sres) != len(pres) {
			t.Fatalf("timeslice %d: single %d results, sharded %d", q, len(sres), len(pres))
		}
		for i := range sres {
			if sres[i] != pres[i] {
				t.Fatalf("timeslice %d result %d: single %+v, sharded %+v", q, i, sres[i], pres[i])
			}
		}

		swin, err := single.Window(r, at, at+15, 0)
		if err != nil {
			t.Fatal(err)
		}
		pwin, err := sharded.Window(r, at, at+15, 0)
		if err != nil {
			t.Fatal(err)
		}
		sortResults(swin)
		if len(swin) != len(pwin) {
			t.Fatalf("window %d: single %d results, sharded %d", q, len(swin), len(pwin))
		}
		for i := range swin {
			if swin[i] != pwin[i] {
				t.Fatalf("window %d result %d differs", q, i)
			}
		}

		r2 := Rect{Lo: Vec{lo[0] + 40, lo[1] + 40}, Hi: Vec{lo[0] + 160, lo[1] + 160}}
		smov, err := single.Moving(r, r2, at, at+10, 0)
		if err != nil {
			t.Fatal(err)
		}
		pmov, err := sharded.Moving(r, r2, at, at+10, 0)
		if err != nil {
			t.Fatal(err)
		}
		sortResults(smov)
		if len(smov) != len(pmov) {
			t.Fatalf("moving %d: single %d results, sharded %d", q, len(smov), len(pmov))
		}
		for i := range smov {
			if smov[i] != pmov[i] {
				t.Fatalf("moving %d result %d differs", q, i)
			}
		}
	}

	// Nearest: both sides answer in (distance, id) order.
	for q := 0; q < 25; q++ {
		pos := Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		at := rng.Float64() * 30
		const k = 10
		sres, err := single.Nearest(pos, at, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := sharded.Nearest(pos, at, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sres) != len(pres) {
			t.Fatalf("nearest %d: single %d results, sharded %d", q, len(sres), len(pres))
		}
		for i := range sres {
			if sres[i] != pres[i] {
				t.Fatalf("nearest %d result %d: single %+v, sharded %+v", q, i, sres[i], pres[i])
			}
		}
	}
}

// TestUpdateBatchMatchesUpdates checks a batched load leaves the tree
// in the same state as one-by-one updates, and that batch metrics are
// recorded.
func TestUpdateBatchMatchesUpdates(t *testing.T) {
	reports := testWorkload(800, 3)

	one, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	batched, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	for _, r := range reports {
		if err := one.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}

	if one.Len() != batched.Len() {
		t.Fatalf("Len: updates %d, batch %d", one.Len(), batched.Len())
	}
	world := Rect{Hi: Vec{1000, 1000}}
	a, err := one.Timeslice(world, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.Timeslice(world, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	sortResults(a)
	sortResults(b)
	if len(a) != len(b) {
		t.Fatalf("timeslice: updates %d results, batch %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d: updates %+v, batch %+v", i, a[i], b[i])
		}
	}

	m := batched.Metrics()
	if m.BatchedUpdates != uint64(len(reports)) {
		t.Errorf("BatchedUpdates = %d, want %d", m.BatchedUpdates, len(reports))
	}
	if op, ok := m.Op("update_batch"); !ok || op.Count != 1 {
		t.Errorf("update_batch op = %+v, want 1 call", op)
	}
	if err := batched.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardRouting checks the object-keyed operations land on exactly
// one shard and behave like the single tree's.
func TestShardRouting(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := Point{Pos: Vec{10, 20}, Vel: Vec{1, 0}, Expires: NoExpiry()}
	if err := s.Update(77, p, 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(77, 0); !ok || got.Pos != p.Pos {
		t.Fatalf("Get(77) = %+v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// Exactly one shard holds the object.
	holders := 0
	for _, sh := range s.cur.Load().shards {
		if sh.Metrics().LeafEntries == 1 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("object stored on %d shards, want 1", holders)
	}
	if ok, err := s.Delete(77, 1); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after delete = %d, want 0", s.Len())
	}
}

// TestShardedMutationAccounting pins what every sharded mutation
// reports, under both policies with one shard and with four: Delete's
// result, which shard section of the exposition counts each single
// Update and Delete (the owning shard's, as the shard's own update or
// delete; a speed re-route adds a delete on the shard left), that
// rexp_batched_updates_total counts only UpdateBatch's reports, and
// that the front end counts each public call once.
func TestShardedMutationAccounting(t *testing.T) {
	bands := []float64{1, 2, 3}
	for _, c := range []struct {
		policy PartitionPolicy
		k      int
	}{{PartitionHash, 1}, {PartitionHash, 4}, {PartitionSpeed, 1}, {PartitionSpeed, 4}} {
		t.Run(fmt.Sprintf("%v/%d", c.policy, c.k), func(t *testing.T) {
			opts := ShardedOptions{Options: DefaultOptions(), Shards: c.k, Partition: c.policy}
			if c.policy == PartitionSpeed && c.k > 1 {
				opts.SpeedBands = bands
			}
			s, err := OpenSharded(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// The model: the shard each report goes to, where each
			// object lives, and what each shard should have counted.
			route := func(id uint32, p Point) int {
				if c.policy == PartitionHash {
					return manifest.ShardIndex(id, c.k)
				}
				if c.k == 1 {
					return 0
				}
				return manifest.SpeedBandOf(bands, manifest.Speed(p.Vel, 2))
			}
			loc := map[uint32]int{}
			upd := make([]int, c.k)
			del := make([]int, c.k)
			batches := make([]int, c.k)
			batched := make([]int, c.k)
			// point moves at speed band+0.5, inside band's speed band.
			point := func(id uint32, band int) Point {
				return Point{Pos: Vec{float64(id % 100), float64(id / 100)}, Vel: Vec{float64(band) + 0.5, 0}, Expires: NoExpiry()}
			}
			move := func(id uint32, p Point) {
				tgt := route(id, p)
				if old, ok := loc[id]; ok && old != tgt {
					del[old]++
				}
				loc[id] = tgt
			}
			var updates, deletes, batchCalls, batchReports int

			for id := uint32(1); id <= 40; id++ {
				p := point(id, int(id)%4)
				if err := s.Update(id, p, 0); err != nil {
					t.Fatal(err)
				}
				move(id, p)
				upd[loc[id]]++
				updates++
			}
			// Ids 1..8 change speed band: under speed routing with four
			// shards each is re-routed.
			for id := uint32(1); id <= 8; id++ {
				p := point(id, int(id+1)%4)
				if err := s.Update(id, p, 0); err != nil {
					t.Fatal(err)
				}
				move(id, p)
				upd[loc[id]]++
				updates++
			}
			var batch []Report
			for id := uint32(30); id <= 60; id++ {
				batch = append(batch, Report{ID: id, Point: point(id, int(id+2)%4)})
			}
			if err := s.UpdateBatch(batch, 0); err != nil {
				t.Fatal(err)
			}
			touched := make([]bool, c.k)
			for _, r := range batch {
				move(r.ID, r.Point)
				touched[loc[r.ID]] = true
				batched[loc[r.ID]]++
			}
			for i, ok := range touched {
				if ok {
					batches[i]++
				}
			}
			batchCalls++
			batchReports += len(batch)

			// A stored id, an unknown id, and the stored id again.
			for _, d := range []struct {
				id   uint32
				want bool
			}{{5, true}, {999, false}, {5, false}} {
				ok, err := s.Delete(d.id, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ok != d.want {
					t.Errorf("Delete(%d) = %v, want %v", d.id, ok, d.want)
				}
				deletes++
				// A hash shard is asked even for an id it does not
				// hold; speed routing asks only the shard it tracks.
				if c.policy == PartitionHash {
					del[manifest.ShardIndex(d.id, c.k)]++
				} else if i, ok := loc[d.id]; ok {
					del[i]++
				}
				delete(loc, d.id)
			}
			if s.Len() != len(loc) {
				t.Errorf("Len = %d, want %d", s.Len(), len(loc))
			}

			var b strings.Builder
			if err := s.WriteMetrics(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			check := func(series string, want int) {
				t.Helper()
				if got := expositionValue(out, series); got != want {
					t.Errorf("%s = %d, want %d", series, got, want)
				}
			}
			for i := 0; i < c.k; i++ {
				p := fmt.Sprintf("rexp_shard%d_", i)
				check(p+`op_duration_seconds_count{op="update"}`, upd[i])
				check(p+`op_duration_seconds_count{op="delete"}`, del[i])
				check(p+`op_duration_seconds_count{op="update_batch"}`, batches[i])
				check(p+"batched_updates_total", batched[i])
			}
			check(`rexp_op_duration_seconds_count{op="update"}`, updates)
			check(`rexp_op_duration_seconds_count{op="delete"}`, deletes)
			check(`rexp_op_duration_seconds_count{op="update_batch"}`, batchCalls)
			check("rexp_batched_updates_total", batchReports)
		})
	}
}

// expositionValue reads one series' value from Prometheus text output,
// -1 when the series is absent.
func expositionValue(out, series string) int {
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// TestShardedPersistence round-trips a file-backed sharded tree.
func TestShardedPersistence(t *testing.T) {
	base := filepath.Join(t.TempDir(), "idx")
	opts := ShardedOptions{Options: DefaultOptions(), Shards: 2}
	opts.Path = base

	s, err := OpenSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	reports := testWorkload(200, 11)
	if err := s.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(reports) {
		t.Fatalf("reopened Len = %d, want %d", s.Len(), len(reports))
	}
	for _, r := range reports[:20] {
		if _, ok := s.Get(r.ID, 0); !ok {
			t.Fatalf("object %d missing after reopen", r.ID)
		}
	}
}

// TestShardedExposition checks the multi-section Prometheus output:
// the aggregate under rexp_ and one section per shard under
// rexp_shard<i>_.
func TestShardedExposition(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateBatch(testWorkload(100, 5), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Timeslice(Rect{Hi: Vec{1000, 1000}}, 1, 0); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"rexp_leaf_entries 100",
		"rexp_shard0_leaf_entries ",
		"rexp_shard1_leaf_entries ",
		`rexp_op_duration_seconds_count{op="timeslice"} 1`,
		`rexp_lock_wait_seconds_count{mode="write"}`,
		"rexp_shard1_batched_updates_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The aggregate leaf-entry gauge must equal the shard sum.
	agg, shards := s.Metrics(), s.cur.Load().shards
	if agg.LeafEntries != shards[0].Metrics().LeafEntries+shards[1].Metrics().LeafEntries {
		t.Errorf("aggregate LeafEntries %d != shard sum", agg.LeafEntries)
	}
	if agg.BatchedUpdates != 100 {
		t.Errorf("aggregate BatchedUpdates = %d, want 100", agg.BatchedUpdates)
	}
}

// TestShardedQueryLeavesClock: a query whose now lies far ahead reads
// the index at that time but does not move its clock.  The reports it
// saw as expired are live for the next query at the index's own time,
// a later report is visible, and a reopen restores the last write's
// clock, not the query's.
func TestShardedQueryLeavesClock(t *testing.T) {
	base := filepath.Join(t.TempDir(), "clock")
	open := func() *ShardedTree {
		s, err := OpenSharded(ShardedOptions{Options: durableOpts(base, DurabilityOnCommit), Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	all := Rect{Lo: Vec{-1e12, -1e12}, Hi: Vec{1e12, 1e12}}
	count := func(s *ShardedTree, at, now float64) int {
		rs, err := s.Timeslice(all, at, now)
		if err != nil {
			t.Fatal(err)
		}
		return len(rs)
	}
	s := open()
	if err := s.UpdateBatch(testWorkload(200, 7), 0); err != nil {
		t.Fatal(err)
	}
	if n := count(s, 1e9, 1e9); n != 0 {
		t.Fatalf("at 1e9 the query saw %d reports, want none: all expired", n)
	}
	if n := count(s, 1, 0); n != 200 {
		t.Errorf("after a query at 1e9, a query at 0 sees %d of 200 reports", n)
	}
	if err := s.Update(1000, Point{Pos: Vec{500, 500}, Time: 2, Expires: 500}, 2); err != nil {
		t.Fatal(err)
	}
	if n := count(s, 3, 2); n != 201 {
		t.Errorf("a query at 2 sees %d of 201 reports", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	if now := s.Now(); now != 2 {
		t.Errorf("reopened clock = %v, want 2, the last write's", now)
	}
	if n := count(s, 3, 2); n != 201 {
		t.Errorf("after the reopen a query at 2 sees %d of 201 reports", n)
	}
}

// TestShardedNearestMatchesSingle checks Nearest on hash- and
// speed-partitioned indexes of 1, 2, 4 and 7 shards against one tree
// holding the same reports, element by element (ids, points, order), at
// query times that are not dyadic rationals.  Clusters of objects share
// one trajectory, so ties straddle shards.  With each shard bounded by
// the k-th distance of the shards before it, no shard visits more nodes
// than the same search without the bound, and some visit fewer.
func TestShardedNearestMatchesSingle(t *testing.T) {
	reports := testWorkload(3000, 17)
	for i := 0; i < 600; i += 6 { // a cluster of six per hundred objects
		for j := 1; j < 6; j++ {
			reports[i+j].Point = reports[i].Point
		}
	}
	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	type variant struct {
		name string
		ix   *ShardedTree
	}
	var variants []variant
	for _, k := range []int{1, 2, 4, 7} {
		var bands []float64
		for i := 1; i < k; i++ {
			bands = append(bands, 2*float64(i)/float64(k))
		}
		for _, so := range []ShardedOptions{
			{Options: DefaultOptions(), Shards: k},
			{Options: DefaultOptions(), Shards: k, Partition: PartitionSpeed, SpeedBands: bands},
		} {
			ix, err := OpenSharded(so)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			variants = append(variants, variant{fmt.Sprintf("%v/%d", so.Partition, k), ix})
		}
	}
	apply := func(batch []Report, now float64) {
		if err := single.UpdateBatch(batch, now); err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			if err := v.ix.UpdateBatch(batch, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(reports, 0)
	now := 2.5
	moved := make([]Report, 0, 500)
	for _, r := range reports[1000:1500] {
		r.Point.Time, r.Point.Pos[0] = now, r.Point.Pos[0]+r.Point.Vel[0]*now
		moved = append(moved, r)
	}
	apply(moved, now)

	rng := rand.New(rand.NewSource(23))
	var saved uint64
	for q := 0; q < 40; q++ {
		pos := Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		if q%2 == 0 { // on a cluster, so the k-th distance is often tied
			pos = reports[6*rng.Intn(100)].Point.Pos
		}
		at := now + 1.0/3 + rng.Float64()*20
		k := []int{1, 3, 10, 25}[q%4]
		want, err := single.Nearest(pos, at, k, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			got, tc, err := v.ix.Query(Query{Kind: QueryNearest, Pos: pos, At: at, K: k, Explain: true}, now)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("query %d %s (k %d at %v): got %v\nsingle %v", q, v.name, k, at, got, want)
			}
			g := v.ix.pin()
			for i, sh := range g.shards {
				var st core.TravStats
				if _, err := sh.t.NearestSnapStats(geom.Vec(pos), at, k, now, math.Inf(1), &st); err != nil {
					t.Fatal(err)
				}
				if bounded := tc.Shards[i].Nodes; bounded > st.Nodes || i == 0 && bounded != st.Nodes {
					t.Errorf("query %d %s shard %d: %d nodes with the bound, %d without", q, v.name, i, bounded, st.Nodes)
				} else {
					saved += st.Nodes - bounded
				}
			}
			g.unpin()
		}
	}
	if saved == 0 {
		t.Error("the bound never saved a node visit")
	}
	t.Logf("the bound saved %d node visits", saved)
}
