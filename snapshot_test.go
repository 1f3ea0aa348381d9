package rexptree

import (
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"rexptree/internal/geom"
)

// TestSnapshotReadsMatchLockedTraversal drives one tree through an op
// stream (every Update is a delete+insert batch scope) and checks that
// each query type, answered by the public snapshot read path, returns
// element-wise what the paper's §4 traversal — core's pool-charging
// Search and Nearest, called directly under the shared lock — returns on
// the same quiesced tree.
func TestSnapshotReadsMatchLockedTraversal(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	lockedSearch := func(q geom.Query, now float64) ([]Result, error) {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		rs, err := tr.t.Search(q, now)
		return fromResults(rs, now, tr.dims), err
	}
	lockedNearest := func(pos Vec, at float64, k int, now float64) ([]Result, error) {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		rs, err := tr.t.Nearest(geom.Vec(pos), at, k, now)
		return fromResults(rs, now, tr.dims), err
	}

	rng := rand.New(rand.NewSource(11))
	now := 0.0
	for round := 0; round < 10; round++ {
		for op := 0; op < 200; op++ {
			id := uint32(rng.Intn(800) + 1)
			p := Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
				Time:    now,
				Expires: now + rng.Float64()*80,
			}
			if rng.Intn(10) == 0 {
				if _, err := tr.Delete(id, now); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := tr.Update(id, p, now); err != nil {
				t.Fatal(err)
			}
		}
		now += rng.Float64() * 10

		for q := 0; q < 10; q++ {
			lo := Vec{rng.Float64() * 900, rng.Float64() * 900}
			r := Rect{Lo: lo, Hi: Vec{lo[0] + 150, lo[1] + 150}}
			r2 := Rect{Lo: Vec{lo[0] + 75, lo[1] + 75}, Hi: Vec{lo[0] + 225, lo[1] + 225}}

			compare := func(name string, a, b []Result, errA, errB error) {
				t.Helper()
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s errors diverged: %v vs %v", name, errA, errB)
				}
				if len(a) != len(b) {
					t.Fatalf("%s: snapshot %d results, locked %d", name, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s result %d differs: %+v vs %+v", name, i, a[i], b[i])
					}
				}
			}
			a, errA := tr.Timeslice(r, now+5, now)
			b, errB := lockedSearch(geom.Timeslice(toRect(r), now+5), now)
			compare("timeslice", a, b, errA, errB)
			a, errA = tr.Window(r, now, now+10, now)
			b, errB = lockedSearch(geom.Window(toRect(r), now, now+10), now)
			compare("window", a, b, errA, errB)
			a, errA = tr.Moving(r, r2, now, now+10, now)
			b, errB = lockedSearch(geom.Moving(toRect(r), toRect(r2), now, now+10, tr.dims), now)
			compare("moving", a, b, errA, errB)
			a, errA = tr.Nearest(lo, now+1, 8, now)
			b, errB = lockedNearest(lo, now+1, 8, now)
			compare("nearest", a, b, errA, errB)
		}
	}
}

// TestSnapshotReadsDuringBatches races lock-free queries against a
// heavy UpdateBatch stream (run under -race).  Beyond data-race
// freedom it checks batch atomicity from the reader side: batches
// replace reports without changing the live id set, so a whole-space
// timeslice must never observe a partially applied batch as a dip in
// the result count.
func TestSnapshotReadsDuringBatches(t *testing.T) {
	tree, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	const n = 600
	seed := make([]Report, n)
	for i := range seed {
		seed[i] = Report{ID: uint32(i + 1), Point: Point{
			Pos:     Vec{float64(i%25) * 40, float64(i/25) * 40},
			Expires: NoExpiry(),
		}}
	}
	if err := tree.UpdateBatch(seed, 0); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // batch writer: rewrites every report's position
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for b := 0; b < 60; b++ {
			batch := make([]Report, n)
			for i := range batch {
				batch[i] = Report{ID: uint32(i + 1), Point: Point{
					Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
					Vel:     Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
					Expires: NoExpiry(),
				}}
			}
			if err := tree.UpdateBatch(batch, 0); err != nil {
				t.Errorf("batch: %v", err)
				break
			}
		}
		stop.Store(true)
	}()

	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rs, err := tree.Timeslice(world, 0, 0)
				if err != nil {
					t.Errorf("timeslice: %v", err)
					return
				}
				if len(rs) != n {
					t.Errorf("timeslice saw %d objects mid-batch, want %d (non-atomic publication)", len(rs), n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadsDuringCheckpoints races lock-free queries against a
// durable update stream with a tiny checkpoint threshold, so snapshot
// traversals overlap WAL appends, checkpoints (pool flushes) and page
// evictions (run under -race).
func TestSnapshotReadsDuringCheckpoints(t *testing.T) {
	opts := DefaultOptions()
	opts.Path = filepath.Join(t.TempDir(), "ckpt.rexp")
	opts.Durability = DurabilityOnCommit
	opts.CheckpointBytes = 16 << 10 // checkpoint every few batches
	opts.BufferPages = 32           // force evictions during traversals
	tree, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	if err := tree.UpdateBatch(testWorkload(800, 13), 0); err != nil {
		t.Fatal(err)
	}

	var clock atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 1200; i++ {
			now := float64(clock.Load())
			p := Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
				Time:    now,
				Expires: now + 120,
			}
			if err := tree.Update(uint32(rng.Intn(800)+1), p, now); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			if i%150 == 0 {
				clock.Add(1)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				now := float64(clock.Load())
				lo := Vec{rng.Float64() * 900, rng.Float64() * 900}
				r := Rect{Lo: lo, Hi: Vec{lo[0] + 100, lo[1] + 100}}
				if i%2 == 0 {
					if _, err := tree.Window(r, now, now+10, now); err != nil {
						t.Errorf("window: %v", err)
						return
					}
				} else if _, err := tree.Nearest(lo, now+1, 5, now); err != nil {
					t.Errorf("nearest: %v", err)
					return
				}
			}
		}(int64(r + 31))
	}
	wg.Wait()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := tree.Metrics(); m.Checkpoints == 0 {
		t.Skip("no checkpoint fired; raise the update count") // defensive: the race coverage still ran
	}
}

// TestSnapshotReadsDuringReroute races fan-out queries against a
// speed-partitioned sharded tree whose self-tuning kicks in mid-run
// and lazily re-routes objects between shards (run under -race).
func TestSnapshotReadsDuringReroute(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{
		Options:   DefaultOptions(),
		Shards:    3,
		Workers:   2,
		Partition: PartitionSpeed,
		TuneAfter: 500, // retune mid-run, after the seed batch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.UpdateBatch(testWorkload(400, 17), 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // updates that change object speeds, forcing re-routes
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 800; i++ {
			speed := rng.Float64() * 6
			p := Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{speed, 0},
				Expires: NoExpiry(),
			}
			if err := s.Update(uint32(rng.Intn(400)+1), p, 0); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				lo := Vec{rng.Float64() * 900, rng.Float64() * 900}
				rect := Rect{Lo: lo, Hi: Vec{lo[0] + 120, lo[1] + 120}}
				if i%2 == 0 {
					if _, err := s.Timeslice(rect, 1, 0); err != nil {
						t.Errorf("timeslice: %v", err)
						return
					}
				} else if _, err := s.Nearest(lo, 1, 5, 0); err != nil {
					t.Errorf("nearest: %v", err)
					return
				}
			}
		}(int64(r + 41))
	}
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
