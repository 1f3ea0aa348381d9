package rexptree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersDuringUpdates hammers a Tree with a heavy
// update stream while several reader goroutines run every query type.
// Run under -race it checks the reader/writer locking of the public
// tree and the internal synchronization of the clock, the buffer pool
// and the version chains, whose reclaimed slabs the writer reuses.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	tree, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	// Seed with an initial population so readers see a real tree.
	if err := tree.UpdateBatch(testWorkload(1500, 9), 0); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		queries = 150
		updates = 3000
	)
	var clock atomic.Uint64 // integer time the writer advances

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // update stream
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < updates; i++ {
			now := float64(clock.Load())
			id := uint32(rng.Intn(1500) + 1)
			p := Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
				Time:    now,
				Expires: now + 60,
			}
			if err := tree.Update(id, p, now); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			if i%100 == 0 {
				clock.Add(1)
			}
			if i%500 == 0 {
				if _, err := tree.Delete(uint32(rng.Intn(1500)+1), float64(clock.Load())); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queries; i++ {
				// The writer may advance the clock concurrently; using a
				// value read before issuing the query keeps `now` in the
				// past, which the API allows.
				now := float64(clock.Load())
				lo := Vec{rng.Float64() * 900, rng.Float64() * 900}
				rect := Rect{Lo: lo, Hi: Vec{lo[0] + 100, lo[1] + 100}}
				switch i % 4 {
				case 0:
					if _, err := tree.Timeslice(rect, now+5, now); err != nil {
						t.Errorf("timeslice: %v", err)
					}
				case 1:
					if _, err := tree.Window(rect, now, now+10, now); err != nil {
						t.Errorf("window: %v", err)
					}
				case 2:
					r2 := Rect{Lo: Vec{lo[0] + 50, lo[1] + 50}, Hi: Vec{lo[0] + 150, lo[1] + 150}}
					if _, err := tree.Moving(rect, r2, now, now+10, now); err != nil {
						t.Errorf("moving: %v", err)
					}
				case 3:
					if _, err := tree.Nearest(lo, now+1, 5, now); err != nil {
						t.Errorf("nearest: %v", err)
					}
				}
				tree.Get(uint32(rng.Intn(1500)+1), now)
				if i%25 == 0 {
					tree.Metrics() // snapshots race with everything above
				}
			}
		}(int64(r))
	}
	wg.Wait()

	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	m := tree.Metrics()
	if m.LockWaitRead.Count == 0 || m.LockWaitWrite.Count == 0 {
		t.Errorf("lock-wait histograms empty: read %d, write %d",
			m.LockWaitRead.Count, m.LockWaitWrite.Count)
	}
}

// TestShardedConcurrentMixedLoad drives a ShardedTree with concurrent
// updates, batches and fan-out queries from many goroutines (run under
// -race).
func TestShardedConcurrentMixedLoad(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.UpdateBatch(testWorkload(2000, 21), 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // writers: single updates and batches
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				batch := make([]Report, 25)
				for j := range batch {
					batch[j] = Report{
						ID: uint32(rng.Intn(2000) + 1),
						Point: Point{
							Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
							Expires: NoExpiry(),
						},
					}
				}
				if err := s.UpdateBatch(batch, 0); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				if err := s.Update(uint32(rng.Intn(2000)+1),
					Point{Pos: Vec{rng.Float64() * 1000, rng.Float64() * 1000}, Expires: NoExpiry()}, 0); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(int64(w + 100))
	}
	for r := 0; r < 3; r++ { // readers: fan-out queries
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				lo := Vec{rng.Float64() * 900, rng.Float64() * 900}
				rect := Rect{Lo: lo, Hi: Vec{lo[0] + 100, lo[1] + 100}}
				if i%2 == 0 {
					if _, err := s.Timeslice(rect, 1, 0); err != nil {
						t.Errorf("timeslice: %v", err)
					}
				} else {
					if _, err := s.Nearest(lo, 1, 5, 0); err != nil {
						t.Errorf("nearest: %v", err)
					}
				}
				if i%20 == 0 {
					s.Metrics()
				}
			}
		}(int64(r + 200))
	}
	wg.Wait()

	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
