package rexptree

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rexptree/internal/geom"
	"rexptree/internal/manifest"
)

// liveStepBatch builds one step of a mutation stream: re-reports of
// ids 1..n with step-dependent positions and speeds that straddle
// every band boundary (so speed-partitioned generations must
// re-route), all expiring far beyond the test clocks.
func liveStepBatch(n int, seed int64, step int, now float64) []Report {
	rng := rand.New(rand.NewSource(seed + int64(step)*997))
	batch := make([]Report, n)
	for i := range batch {
		sp := rng.Float64() * 2.2
		ang := rng.Float64() * 2 * math.Pi
		batch[i] = Report{
			ID: uint32(i + 1),
			Point: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{sp * math.Cos(ang), sp * math.Sin(ang)},
				Time:    now,
				Expires: now + 500,
			},
		}
	}
	return batch
}

// newLiveRef builds the unresharded single-tree twin.
func newLiveRef(t *testing.T) *Tree {
	t.Helper()
	ref, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	return ref
}

// TestLiveReshardBasic drives two back-to-back live reshards on a
// memory-backed index — hash K=4 → speed K=3, then speed K=3 → hash
// K=5 — with an update stream between them, checking after each
// cutover that the index fingerprints identically to the unresharded
// twin, the generation advanced, and the status went back to idle.
func TestLiveReshardBasic(t *testing.T) {
	so := ShardedOptions{Options: DefaultOptions(), Shards: 4}
	s, err := OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := newLiveRef(t)

	seed := testWorkload(800, 7)
	if err := s.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}

	if err := s.Reshard(ReshardSpec{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{0.8, 1.6}}); err != nil {
		t.Fatalf("hash→speed live reshard: %v", err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation %d after first reshard, want 1", g)
	}
	if p := s.Partition(); p != PartitionSpeed {
		t.Fatalf("partition %s after reshard, want speed", p)
	}
	requireSameFingerprint(t, fingerprintIndex(t, s, 1), fingerprintIndex(t, ref, 1), "after hash→speed reshard")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	applyStream(t, s, []uint32{3, 44, 310}, updatedReports(800, 21, 2), 2)
	applyStream(t, ref, []uint32{3, 44, 310}, updatedReports(800, 21, 2), 2)
	requireSameFingerprint(t, fingerprintIndex(t, s, 2), fingerprintIndex(t, ref, 2), "after post-reshard stream")

	if err := s.Reshard(ReshardSpec{Shards: 5, Policy: PartitionHash}); err != nil {
		t.Fatalf("speed→hash live reshard: %v", err)
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("generation %d after second reshard, want 2", g)
	}
	if n := s.NumShards(); n != 5 {
		t.Fatalf("%d shards after reshard, want 5", n)
	}
	requireSameFingerprint(t, fingerprintIndex(t, s, 2), fingerprintIndex(t, ref, 2), "after speed→hash reshard")

	st := s.ReshardStatus()
	if st.InFlight || st.Phase != "idle" || st.LastError != "" {
		t.Fatalf("status not idle after reshards: %+v", st)
	}
	m := s.Metrics()
	if m.ReshardRuns != 2 {
		t.Fatalf("ReshardRuns = %d, want 2", m.ReshardRuns)
	}
	if m.ReshardBackfilled == 0 {
		t.Fatalf("ReshardBackfilled = 0, want > 0")
	}
}

// TestLiveReshardFileBacked runs a durable live reshard and proves the
// commit is real: the manifest names the new generation, the old
// generation's files are gone, and a fresh process (a reopen with the
// new shape) serves the identical objects.
func TestLiveReshardFileBacked(t *testing.T) {
	base := filepath.Join(t.TempDir(), "ix")
	so := ShardedOptions{Options: fileOpts(base), Shards: 4}
	so.Durability = DurabilityOnCommit
	s, err := OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	ref := newLiveRef(t)

	seed := testWorkload(600, 9)
	if err := s.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}

	if err := s.Reshard(ReshardSpec{Shards: 2, Policy: PartitionSpeed, SpeedBands: []float64{1.1}}); err != nil {
		t.Fatalf("live reshard: %v", err)
	}
	requireSameFingerprint(t, fingerprintIndex(t, s, 1), fingerprintIndex(t, ref, 1), "resharded index")
	if removed, err := manifest.CleanStale(base, s.Generation()); err != nil || len(removed) != 0 {
		t.Fatalf("stale files survived the reshard: %v (err %v)", removed, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ro := so
	ro.Shards = 2
	ro.Partition = PartitionSpeed
	re, err := OpenSharded(ro)
	if err != nil {
		t.Fatalf("reopen after live reshard: %v", err)
	}
	defer re.Close()
	if g := re.Generation(); g != 1 {
		t.Fatalf("reopened generation %d, want 1", g)
	}
	requireSameFingerprint(t, fingerprintIndex(t, re, 1), fingerprintIndex(t, ref, 1), "reopened resharded index")
}

// TestLiveReshardKeepsClock reshards an index that holds no report
// live at its clock: one report expired at 10, another updated and
// deleted at 100.  The backfill is empty, and the new generation must
// still take over the index clock of 100 — in memory, and on a durable
// file-backed index across a reopen after a clean close or a crash.
func TestLiveReshardKeepsClock(t *testing.T) {
	for _, mode := range []string{"memory", "reopen", "crash"} {
		t.Run(mode, func(t *testing.T) {
			so := ShardedOptions{Options: DefaultOptions(), Shards: 2}
			if mode != "memory" {
				so.Options = fileOpts(filepath.Join(t.TempDir(), "ix"))
				so.Durability = DurabilityOnCommit
			}
			s, err := OpenSharded(so)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Update(1, Point{Pos: Vec{10, 10}, Expires: 10}, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.Update(2, Point{Pos: Vec{20, 20}, Time: 100, Expires: 200}, 100); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Delete(2, 100); err != nil {
				t.Fatal(err)
			}
			if now := s.Now(); now != 100 {
				t.Fatalf("clock %v before the reshard, want 100", now)
			}
			if err := s.Reshard(ReshardSpec{Shards: 3, Policy: PartitionHash}); err != nil {
				t.Fatal(err)
			}
			if now := s.Now(); now != 100 {
				t.Fatalf("clock %v after the reshard, want 100", now)
			}
			switch mode {
			case "memory":
				return
			case "crash":
				s.Abandon()
			default:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			ro := so
			ro.Shards = 3
			re, err := OpenSharded(ro)
			if err != nil {
				t.Fatalf("reopen after the reshard: %v", err)
			}
			defer re.Close()
			if now := re.Now(); now != 100 {
				t.Fatalf("clock %v after the reshard and a reopen, want 100", now)
			}
		})
	}
}

// TestLiveReshardBadSpec checks spec validation.
func TestLiveReshardBadSpec(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, spec := range []ReshardSpec{
		{Shards: -1, Policy: PartitionHash},
		{Shards: 2, Policy: PartitionPolicy(9)},
		{Shards: 2, Policy: PartitionHash, SpeedBands: []float64{1}},
		{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{1}},          // wrong count
		{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{2, 1}},       // descending
		{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{-1, 1}},      // negative
		{Shards: 2, Policy: PartitionSpeed, SpeedBands: []float64{math.NaN()}}, // not finite
	} {
		if err := s.Reshard(spec); err == nil {
			t.Fatalf("spec %+v accepted, want error", spec)
		}
	}
	if s.Generation() != 0 {
		t.Fatalf("generation moved on rejected specs")
	}
}

// TestLiveReshardCrashMatrix kills the live reshard at every phase
// boundary — after the scan, after the dual-apply backfill, before the
// verify, just before the manifest rename, and just after it — with an
// acknowledged mutation stream applied inside the dual-apply window.
// After each crash the index is abandoned (no checkpoint) and
// reopened; the surviving generation must fingerprint identically to a
// replay of every acknowledged operation, and a subsequent live
// reshard must succeed and sweep all stale files of the dead run.
func TestLiveReshardCrashMatrix(t *testing.T) {
	deletes := []uint32{5, 41, 77, 300}
	for _, point := range []string{"scan", "dual-apply", "verify", "pre-rename", "post-rename"} {
		t.Run(point, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "ix")
			so := ShardedOptions{Options: fileOpts(base), Shards: 4}
			so.Durability = DurabilityOnCommit
			s, err := OpenSharded(so)
			if err != nil {
				t.Fatal(err)
			}
			ref := newLiveRef(t)

			seed := testWorkload(800, 13)
			if err := s.UpdateBatch(seed, 1); err != nil {
				t.Fatal(err)
			}
			if err := ref.UpdateBatch(seed, 1); err != nil {
				t.Fatal(err)
			}

			// The hook parks the engine right after its snapshot scan so
			// the test can push acknowledged mutations through the open
			// dual-apply window, then crashes it at the selected point.
			hold := make(chan struct{})
			entered := make(chan struct{})
			s.testReshardHook = func(pt string) error {
				if pt == "scan" {
					entered <- struct{}{}
					<-hold
				}
				if pt == point {
					return errLiveBoom
				}
				return nil
			}
			done := make(chan error, 1)
			go func() {
				done <- s.Reshard(ReshardSpec{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{0.8, 1.6}})
			}()
			<-entered
			applyStream(t, s, deletes, updatedReports(800, 29, 2), 2)
			applyStream(t, ref, deletes, updatedReports(800, 29, 2), 2)
			close(hold)
			if err := <-done; !errors.Is(err, errLiveBoom) {
				t.Fatalf("reshard error = %v, want injected crash", err)
			}
			s.Abandon() // crash: nothing checkpointed beyond the WALs

			ro := so
			if point == "post-rename" {
				// The rename committed: the index recovers into the new
				// generation's shape (bands come from the manifest).
				ro.Shards = 3
				ro.Partition = PartitionSpeed
			}
			re, err := OpenSharded(ro)
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", point, err)
			}
			defer re.Close()
			wantGen := 0
			if point == "post-rename" {
				wantGen = 1
			}
			if g := re.Generation(); g != wantGen {
				t.Fatalf("recovered generation %d after crash at %s, want %d", g, point, wantGen)
			}
			requireSameFingerprint(t, fingerprintIndex(t, re, 2), fingerprintIndex(t, ref, 2),
				"recovered index after crash at "+point)

			// Recovery sweep: the next live reshard must clear the dead
			// run's leftovers and commit.
			if err := re.Reshard(ReshardSpec{Shards: 2, Policy: PartitionHash}); err != nil {
				t.Fatalf("reshard after crash at %s: %v", point, err)
			}
			requireSameFingerprint(t, fingerprintIndex(t, re, 2), fingerprintIndex(t, ref, 2),
				"re-resharded index after crash at "+point)
			if removed, err := manifest.CleanStale(base, re.Generation()); err != nil || len(removed) != 0 {
				t.Fatalf("stale files survived recovery reshard after crash at %s: %v (err %v)", point, removed, err)
			}
		})
	}
}

// TestLiveReshardConcurrentStress hammers all four query types (and
// their traced variants) plus a mixed update/delete stream while two
// live reshards run, fingerprinting the index against its unresharded
// twin after every step.  Run under -race this is the data-race proof
// for the generation-pointer swap and the dual-apply window.
func TestLiveReshardConcurrentStress(t *testing.T) {
	so := ShardedOptions{
		Options:    DefaultOptions(),
		Shards:     4,
		Partition:  PartitionSpeed,
		SpeedBands: []float64{0.5, 1.0, 1.8},
	}
	s, err := OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := newLiveRef(t)

	var clockBits atomic.Uint64
	clockBits.Store(math.Float64bits(1))
	now := func() float64 { return math.Float64frombits(clockBits.Load()) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var qerr atomic.Value
	fail := func(err error) {
		// A query that sampled the clock just before a step advanced it
		// is still answered at the time it sampled: every error is a
		// real failure.
		if err != nil {
			qerr.CompareAndSwap(nil, err)
		}
	}
	inner := Rect{Lo: Vec{120, 90}, Hi: Vec{460, 430}}
	mid := Rect{Lo: Vec{310, 260}, Hi: Vec{720, 650}}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := now()
				var err error
				switch q {
				case 0:
					if i%2 == 0 {
						_, err = s.Timeslice(inner, c, c)
					} else {
						_, _, err = s.TraceTimeslice(inner, c, c)
					}
				case 1:
					if i%2 == 0 {
						_, err = s.Window(mid, c, c+10, c)
					} else {
						_, _, err = s.TraceWindow(mid, c, c+10, c)
					}
				case 2:
					if i%2 == 0 {
						_, err = s.Moving(inner, mid, c+1, c+8, c)
					} else {
						_, _, err = s.TraceMoving(inner, mid, c+1, c+8, c)
					}
				default:
					if i%2 == 0 {
						_, err = s.Nearest(Vec{500, 500}, c, 10, c)
					} else {
						_, _, err = s.TraceNearest(Vec{500, 500}, c, 10, c)
					}
				}
				fail(err)
			}
		}(q)
	}

	const steps = 14
	for i := 0; i < steps; i++ {
		c := 1 + float64(i)*0.5
		clockBits.Store(math.Float64bits(c))
		batch := liveStepBatch(300, 17, i, c)
		if err := s.UpdateBatch(batch, c); err != nil {
			t.Fatal(err)
		}
		if err := ref.UpdateBatch(batch, c); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 5; d++ {
			id := uint32((i*53+d*29)%300 + 1)
			if _, err := s.Delete(id, c); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Delete(id, c); err != nil {
				t.Fatal(err)
			}
			p := Point{Pos: Vec{float64(id), float64(id)}, Vel: Vec{0.1, -0.1}, Time: c, Expires: c + 500}
			if err := s.Update(id, p, c); err != nil {
				t.Fatal(err)
			}
			if err := ref.Update(id, p, c); err != nil {
				t.Fatal(err)
			}
		}
		switch i {
		case 3:
			if err := s.StartReshard(ReshardSpec{Shards: 3, Policy: PartitionHash}); err != nil {
				t.Fatal(err)
			}
		case 9:
			// A second reshard back to speed; if the first is somehow
			// still running this reports in-flight, which is fine.
			if err := s.StartReshard(ReshardSpec{Shards: 4, Policy: PartitionSpeed, SpeedBands: []float64{0.4, 0.9, 1.6}}); err != nil && !errors.Is(err, ErrReshardInFlight) {
				t.Fatal(err)
			}
		}
		requireSameFingerprint(t, fingerprintIndex(t, s, c), fingerprintIndex(t, ref, c),
			"stress step vs unresharded twin")
	}
	close(stop)
	wg.Wait()
	if err, _ := qerr.Load().(error); err != nil {
		t.Fatalf("concurrent query failed: %v", err)
	}
	waitReshardIdle(t, s, 10*time.Second)
	if st := s.ReshardStatus(); st.LastError != "" {
		t.Fatalf("background reshard failed: %s", st.LastError)
	}
	c := 1 + float64(steps-1)*0.5
	requireSameFingerprint(t, fingerprintIndex(t, s, c), fingerprintIndex(t, ref, c), "final state")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func waitReshardIdle(t *testing.T, s *ShardedTree, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for s.ReshardStatus().InFlight {
		if time.Now().After(deadline) {
			t.Fatalf("reshard still in flight after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// runDualApplySchedule is the shared harness of the dual-apply
// ordering property test and the fuzz target: it opens the dual-apply
// window (parking the engine between backfill and cutover), replays a
// byte-decoded schedule of interleaved UpdateBatch/Update/Delete
// operations over a small id set — every one acknowledged — and then
// lets the reshard cut over.  The engine's own verify phase proves the
// old and new generations identical object-for-object; the fingerprint
// proves both equal the unresharded replay.
func runDualApplySchedule(t *testing.T, data []byte) {
	so := ShardedOptions{Options: DefaultOptions(), Shards: 2, Partition: PartitionSpeed, SpeedBands: []float64{1.0}}
	s, err := OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := newLiveRef(t)

	const ids = 16
	seed := make([]Report, ids)
	for i := range seed {
		sp := 0.3 + float64(i%4)*0.5 // speeds straddle the 1.0 boundary
		seed[i] = Report{
			ID:    uint32(i + 1),
			Point: Point{Pos: Vec{float64(i) * 50, 500}, Vel: Vec{sp, 0}, Time: 1, Expires: 600},
		}
	}
	if err := s.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	entered := make(chan struct{})
	s.testReshardHook = func(pt string) error {
		if pt == "dual-apply" {
			entered <- struct{}{}
			<-hold
		}
		return nil
	}
	done := make(chan error, 1)
	go func() {
		done <- s.Reshard(ReshardSpec{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{0.6, 1.3}})
	}()
	<-entered

	// Replay the schedule inside the window: each 2-byte pair is one
	// operation on ids 1..16, with same-id updates and deletes freely
	// interleaved and batches overwriting several ids at once.
	now := 2.0
	apply := func(ix movingIndex) error {
		n := now
		for i := 0; i+1 < len(data); i += 2 {
			kind, pick := data[i]%4, uint32(data[i+1]%ids)+1
			n += 0.01
			sp := 0.2 + float64(data[i]%5)*0.45
			p := Point{Pos: Vec{float64(pick) * 37, float64(i)}, Vel: Vec{sp, 0}, Time: n, Expires: n + 600}
			switch kind {
			case 0, 1:
				if err := ix.Update(pick, p, n); err != nil {
					return err
				}
			case 2:
				if _, err := ix.Delete(pick, n); err != nil {
					return err
				}
			default:
				batch := make([]Report, 0, 4)
				for j := uint32(0); j < 4; j++ {
					q := p
					q.Vel[0] = sp + float64(j)*0.3
					batch = append(batch, Report{ID: (pick+j-1)%ids + 1, Point: q})
				}
				if err := ix.UpdateBatch(batch, n); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := apply(s); err != nil {
		t.Fatal(err)
	}
	if err := apply(ref); err != nil {
		t.Fatal(err)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("reshard after schedule %x: %v", data, err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation %d, want 1", g)
	}
	final := now + 0.01*float64(len(data)/2) + 1
	requireSameFingerprint(t, fingerprintIndex(t, s, final), fingerprintIndex(t, ref, final),
		"dual-apply schedule vs unresharded replay")
}

// TestDualApplyOrdering replays a spread of random interleavings of
// same-id updates, deletes and batches through the dual-apply window.
func TestDualApplyOrdering(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 48)
		rng.Read(data)
		runDualApplySchedule(t, data)
	}
}

// FuzzDualApplySchedule lets the fuzzer search for an interleaving of
// mutations during the dual-apply window that makes the resharded
// generation diverge from its source (the engine's verify phase fails
// the reshard) or from an unresharded replay (the fingerprint check).
func FuzzDualApplySchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 3, 1}) // update, delete, batch on one id
	f.Add([]byte{2, 5, 0, 5, 2, 5, 0, 5})
	f.Add([]byte{3, 0, 3, 4, 3, 8, 3, 12})
	rng := rand.New(rand.NewSource(42))
	long := make([]byte, 40)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		runDualApplySchedule(t, data)
	})
}

// TestLiveReshardStatusAndCancel covers the control surface: in-flight
// status with phase and progress, the single-flight guarantee, and
// cancellation rolling everything back.
func TestLiveReshardStatusAndCancel(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := newLiveRef(t)
	seed := testWorkload(400, 3)
	if err := s.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateBatch(seed, 1); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	entered := make(chan struct{})
	s.testReshardHook = func(pt string) error {
		if pt == "scan" {
			entered <- struct{}{}
			<-hold
		}
		return nil
	}
	spec := ReshardSpec{Shards: 2, Policy: PartitionSpeed, SpeedBands: []float64{1.0}}
	if err := s.StartReshard(spec); err != nil {
		t.Fatal(err)
	}
	<-entered
	st := s.ReshardStatus()
	if !st.InFlight || st.Phase != "scan" || st.Shards != 2 || st.Policy != "speed" {
		t.Fatalf("in-flight status = %+v", st)
	}
	if st.Scanned == 0 {
		t.Fatalf("scanned = 0 at the scan boundary")
	}
	if err := s.StartReshard(spec); !errors.Is(err, ErrReshardInFlight) {
		t.Fatalf("second StartReshard = %v, want ErrReshardInFlight", err)
	}
	if err := s.Reshard(spec); !errors.Is(err, ErrReshardInFlight) {
		t.Fatalf("concurrent Reshard = %v, want ErrReshardInFlight", err)
	}
	if !s.CancelReshard() {
		t.Fatalf("CancelReshard found nothing in flight")
	}
	close(hold)
	waitReshardIdle(t, s, 10*time.Second)
	st = s.ReshardStatus()
	if !strings.Contains(st.LastError, "canceled") {
		t.Fatalf("LastError = %q, want cancellation", st.LastError)
	}
	if g := s.Generation(); g != 0 {
		t.Fatalf("generation %d after canceled reshard, want 0", g)
	}
	requireSameFingerprint(t, fingerprintIndex(t, s, 1), fingerprintIndex(t, ref, 1), "after canceled reshard")
	if s.CancelReshard() {
		t.Fatalf("CancelReshard reported an in-flight reshard while idle")
	}
}

// TestStartReshardIsVisibleAtOnce pins the admission contract: once
// StartReshard has returned nil, the run is what ReshardStatus and
// CancelReshard see — never "idle" on the old generation — until it
// has finished, at which point the outcome (a new generation or an
// error) is visible with it.
func TestStartReshardIsVisibleAtOnce(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateBatch(testWorkload(200, 5), 1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		gen := s.Generation()
		if err := s.StartReshard(ReshardSpec{Shards: 2 + round%2, Policy: PartitionHash}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cancel := round%4 == 3
		if cancel {
			if !s.CancelReshard() && s.Generation() == gen {
				t.Fatalf("round %d: CancelReshard found nothing in flight right after StartReshard", round)
			}
		} else if st := s.ReshardStatus(); !st.InFlight && st.Generation == gen && st.LastError == "" {
			t.Fatalf("round %d: status right after StartReshard = %+v", round, st)
		}
		waitReshardIdle(t, s, 10*time.Second)
		st := s.ReshardStatus()
		switch {
		case st.Generation == gen+1 && st.LastError == "":
		case cancel && st.Generation == gen && strings.Contains(st.LastError, "canceled"):
		default:
			t.Fatalf("round %d (cancel=%v): terminal status %+v, generation before %d", round, cancel, st, gen)
		}
	}
}

// errLiveBoom is the injected crash of the live-reshard matrix.
var errLiveBoom = errors.New("live boom")

// TestLiveReshardVerifyReadsTheTrees corrupts the target generation's
// indexes between the backfill and the verify step, behind every public
// method's back.  The verify compares what the two generations' trees
// hold, so an entry lost from a target shard, or an object stored in
// two of them, must fail the cutover, and the index keeps serving the
// current generation.
func TestLiveReshardVerifyReadsTheTrees(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(target []*Tree) error
		want    string
	}{
		{"lost-entry", func(target []*Tree) error {
			for _, sh := range target {
				if removed, err := sh.t.Delete(42, geom.MovingPoint{}, sh.t.Now()); removed || err != nil {
					return err
				}
			}
			return errors.New("object 42 is in no target shard")
		}, "object 42 missing from target generation"},
		{"stored-twice", func(target []*Tree) error {
			p := geom.MovingPoint{Pos: geom.Vec{500, 500}, TExp: 1000}
			for _, sh := range target[:2] {
				if err := sh.t.Insert(9999, p, sh.t.Now()); err != nil {
					return err
				}
			}
			return nil
		}, "object 9999 has two live records in the target generation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.UpdateBatch(testWorkload(300, 9), 1); err != nil {
				t.Fatal(err)
			}
			s.testReshardHook = func(pt string) error {
				if pt != "verify" {
					return nil
				}
				target := s.lr.Load().target.shards
				for _, sh := range target {
					sh.lock()
					defer sh.mu.Unlock()
				}
				return c.corrupt(target)
			}
			err = s.Reshard(ReshardSpec{Shards: 3, Policy: PartitionHash})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Reshard = %v, want the verify to fail with %q", err, c.want)
			}
			if g := s.Generation(); g != 0 {
				t.Fatalf("generation %d after a failed verify, want 0", g)
			}
			if _, ok := s.Get(42, 1); !ok {
				t.Fatal("the current generation lost object 42")
			}
		})
	}
}
