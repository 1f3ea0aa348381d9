package rexptree

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rexptree/internal/manifest"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// The crash matrix.  Every test here drives the same deterministic op
// stream against a durable file-backed Tree, kills it at a chosen
// injection point (a WAL lifecycle hook, an injected storage fault, or
// Abandon between operations), reopens the file, and requires the
// recovered index to fingerprint identically to an in-memory reference
// replayed to exactly the prefix of operations that was durable at the
// crash.  The fingerprint battery (reshard_test.go) covers all four
// query types, point lookups and the stored-report count.

// The op stream: each operation carries a unique, strictly increasing
// timestamp, so the clock of a recovered tree identifies exactly how
// many operations survived (recoveredOpCount).
const (
	crashOpsN   = 600
	crashOpBase = 1.0
	crashOpStep = 0.01
)

func crashFinalNow() float64 { return crashOpBase + float64(crashOpsN-1)*crashOpStep }

type crashOp struct {
	del bool
	id  uint32
	p   Point
	now float64
}

// crashOps builds a deterministic stream of updates (re-reports over
// ~300 objects) interleaved with deletions of currently-live objects.
// Expiration times are far in the future so expiry never perturbs the
// prefix equivalence (TestDurableRecoveryDropsExpired covers expiry).
func crashOps(n int, seed int64) []crashOp { return crashOpsOver(n, seed, 300) }

// crashOpsOver is crashOps over a population of the given size: enough
// objects make an index larger than a small buffer pool.
func crashOpsOver(n int, seed int64, objects int) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	var live []uint32
	pos := map[uint32]int{} // id -> index in live, -1 when absent
	ops := make([]crashOp, 0, n)
	for i := 0; i < n; i++ {
		now := crashOpBase + float64(i)*crashOpStep
		if len(live) > 20 && i%13 == 5 {
			j := rng.Intn(len(live))
			id := live[j]
			last := len(live) - 1
			live[j] = live[last]
			pos[live[j]] = j
			live = live[:last]
			pos[id] = -1
			ops = append(ops, crashOp{del: true, id: id, now: now})
			continue
		}
		id := uint32(rng.Intn(objects) + 1)
		if j, ok := pos[id]; !ok || j < 0 {
			pos[id] = len(live)
			live = append(live, id)
		}
		ops = append(ops, crashOp{
			id: id,
			p: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*20 - 10, rng.Float64()*20 - 10},
				Time:    now,
				Expires: now + 1000,
			},
			now: now,
		})
	}
	return ops
}

func applyOps(t *testing.T, ix movingIndex, ops []crashOp) {
	t.Helper()
	for _, o := range ops {
		if o.del {
			if _, err := ix.Delete(o.id, o.now); err != nil {
				t.Fatal(err)
			}
		} else if err := ix.Update(o.id, o.p, o.now); err != nil {
			t.Fatal(err)
		}
	}
}

// memReference replays the prefix into a fresh in-memory tree — the
// ground truth a recovered file must match.
func memReference(t *testing.T, ops []crashOp) *Tree {
	t.Helper()
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	applyOps(t, tr, ops)
	return tr
}

// recoveredOpCount derives how many ops of the stream survived from
// the recovered tree's clock (every op has a unique timestamp).
func recoveredOpCount(tr *Tree) int {
	clk := tr.t.Now()
	if clk < crashOpBase {
		return 0
	}
	return int(math.Round((clk-crashOpBase)/crashOpStep)) + 1
}

func durableOpts(path string, d Durability) Options {
	o := DefaultOptions()
	o.Path = path
	o.Durability = d
	return o
}

// requireRecovered reopens the index durably, checks that exactly
// wantOps operations survived, and fingerprints it against the
// reference prefix.  The recovered tree is returned open.
func requireRecovered(t *testing.T, path string, ops []crashOp, wantOps int) *Tree {
	t.Helper()
	re, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	if k := recoveredOpCount(re); k != wantOps {
		t.Fatalf("recovered %d ops, want %d", k, wantOps)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}
	ref := memReference(t, ops[:wantOps])
	now := max(crashFinalNow(), ops[len(ops)-1].now) // streams longer than crashOpsN end later
	requireSameFingerprint(t, fingerprintIndex(t, re, now), fingerprintIndex(t, ref, now), "recovered index")
	return re
}

// flipPageByte flips one payload bit of page id in a v2 index file.
func flipPageByte(t *testing.T, path string, id int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(storage.PageSize) + int64(id)*int64(storage.PageSize+8) + 8 + 100
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// pageFileCount derives the page count of a v2 index file from its size.
func pageFileCount(t *testing.T, path string) int {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int((st.Size() - int64(storage.PageSize)) / int64(storage.PageSize+8))
}

// walHookCtl arms a WAL lifecycle failure: after arm, the (skip+1)-th
// occurrence of the event — and every later one, like a disk that
// stays dead — fails with err.  Before arm the hook is inert.
type walHookCtl struct {
	event string
	skip  int
	err   error
}

func (c *walHookCtl) hook(event string) error {
	if c.err == nil || event != c.event {
		return nil
	}
	if c.skip > 0 {
		c.skip--
		return nil
	}
	return c.err
}

func (c *walHookCtl) arm(event string, skip int, err error) {
	c.event, c.skip, c.err = event, skip, err
}

// TestDurableRecoverMidStream kills a durable tree between operations
// (Abandon: buffered WAL bytes are genuinely lost) at several points of
// the stream and requires recovery to restore every acknowledged
// operation — under DurabilityOnCommit that is the full prefix.  The
// small-checkpoint variant forces many checkpoints mid-stream, so
// recovery starts from a checkpointed base and replays only the tail.
func TestDurableRecoverMidStream(t *testing.T) {
	ops := crashOps(crashOpsN, 3)
	cases := []struct {
		name      string
		abandonAt int
		ckptBytes int64
	}{
		{"no-ops", 0, 0},
		{"one-op", 1, 0},
		{"mid", 257, 0},
		{"full", len(ops), 0},
		{"mid-many-checkpoints", 500, 8 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mid.rexp")
			o := durableOpts(path, DurabilityOnCommit)
			o.CheckpointBytes = tc.ckptBytes
			tr, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			applyOps(t, tr, ops[:tc.abandonAt])
			tr.Abandon()
			re := requireRecovered(t, path, ops, tc.abandonAt)

			// A clean close must leave the file reopenable without any
			// durability policy, with the identical contents (the durable
			// and legacy formats are the same page file).
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			legacy, err := Open(fileOpts(path))
			if err != nil {
				t.Fatalf("legacy reopen after clean close: %v", err)
			}
			defer legacy.Close()
			ref := memReference(t, ops[:tc.abandonAt])
			now := crashFinalNow()
			requireSameFingerprint(t, fingerprintIndex(t, legacy, now), fingerprintIndex(t, ref, now), "legacy reopen")
		})
	}
}

// TestDurableRecoverTornWALTail damages the WAL tail after a crash —
// truncation and a flipped bit, the two shapes a torn append leaves —
// and requires recovery to come back as a consistent prefix of the
// stream: everything before the damage, nothing after it, and never an
// error or a mixed state.
func TestDurableRecoverTornWALTail(t *testing.T) {
	ops := crashOps(crashOpsN, 7)
	cases := []struct {
		name   string
		mangle func(t *testing.T, walPath string)
	}{
		{"truncated", func(t *testing.T, walPath string) {
			st, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(walPath, st.Size()*2/3); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip", func(t *testing.T, walPath string) {
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.rexp")
			o := durableOpts(path, DurabilityBatched)
			o.SyncEvery = time.Hour // no timed fsync: the tail is only OS-flushed
			tr, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			applyOps(t, tr, ops)
			tr.Abandon()
			tc.mangle(t, WALPath(path))

			re, err := Open(durableOpts(path, DurabilityBatched))
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer re.Close()
			k := recoveredOpCount(re)
			if k <= 0 || k >= len(ops) {
				t.Fatalf("recovered %d ops, want a strict prefix of %d", k, len(ops))
			}
			if err := re.Validate(); err != nil {
				t.Fatalf("recovered tree invalid: %v", err)
			}
			ref := memReference(t, ops[:k])
			now := crashFinalNow()
			requireSameFingerprint(t, fingerprintIndex(t, re, now), fingerprintIndex(t, ref, now), "torn-tail recovery")
		})
	}
}

// TestDurableCloseFaultRecovery fails Close at every step of the
// checkpoint protocol — appending the page images, fsyncing the WAL,
// writing the page file (torn and erroring), fsyncing the page file,
// and truncating the WAL — and requires: Close reports the error, a
// second Close repeats it (idempotence), and reopening recovers the
// full acknowledged state.
func TestDurableCloseFaultRecovery(t *testing.T) {
	ops := crashOps(crashOpsN, 11)
	errWAL := errors.New("injected wal fault")
	cases := []struct {
		name string
		wrap bool // install a FaultStore under the tree
		prep func(ctl *walHookCtl, fault *storage.FaultStore)
	}{
		// Crash mid-checkpoint, before the images are durable: the WAL
		// keeps an incomplete image set (ignored) plus the logical tail.
		{"ckpt-image-append", false, func(ctl *walHookCtl, _ *storage.FaultStore) {
			ctl.arm("append", 1, errWAL)
		}},
		// Crash between the image writes and their fsync.
		{"wal-sync", false, func(ctl *walHookCtl, _ *storage.FaultStore) {
			ctl.arm("sync", 0, errWAL)
		}},
		// Torn page write while flushing the pool: the images are already
		// durable and must win over the half-written page.
		{"torn-page-write", true, func(_ *walHookCtl, f *storage.FaultStore) {
			f.FailWrites = true
			f.Kind = storage.FaultTornWrite
			f.TornBytes = 512
			f.Arm(1)
		}},
		// Plain write error during the pool flush.
		{"page-write-error", true, func(_ *walHookCtl, f *storage.FaultStore) {
			f.FailWrites = true
			f.Arm(1)
		}},
		// The page file's fsync fails after the flush.
		{"page-sync", true, func(_ *walHookCtl, f *storage.FaultStore) {
			f.FailSyncs = true
			f.Arm(1)
		}},
		// Crash mid-WAL-truncate: the page file already holds the state,
		// the WAL still holds the full image set; re-applying it is
		// idempotent.
		{"wal-reset", false, func(ctl *walHookCtl, _ *storage.FaultStore) {
			ctl.arm("reset", 0, errWAL)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "close.rexp")
			o := durableOpts(path, DurabilityOnCommit)
			ctl := &walHookCtl{}
			o.testWALHook = ctl.hook
			var fault *storage.FaultStore
			if tc.wrap {
				o.testWrapStore = func(s storage.Store) storage.Store {
					fault = &storage.FaultStore{Inner: s}
					return fault
				}
			}
			tr, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			applyOps(t, tr, ops)
			tc.prep(ctl, fault)

			first := tr.Close()
			if first == nil {
				t.Fatal("Close succeeded with the fault armed")
			}
			if second := tr.Close(); second != first {
				t.Fatalf("second Close returned %v, want the first call's %v", second, first)
			}

			requireRecovered(t, path, ops, len(ops))
		})
	}
}

// TestDurableInDoubtOpProbed crashes in the middle of an operation —
// after its WAL append, during the commit fsync — so the caller saw an
// error but the record may still be durable.  Recovery must land on
// one of the two consistent outcomes (op absent or op fully applied),
// never in between.
func TestDurableInDoubtOpProbed(t *testing.T) {
	ops := crashOps(crashOpsN, 13)
	m := 120
	for ops[m].del { // the in-doubt op is an update, so Get can probe it
		m++
	}
	path := filepath.Join(t.TempDir(), "doubt.rexp")
	o := durableOpts(path, DurabilityOnCommit)
	ctl := &walHookCtl{}
	o.testWALHook = ctl.hook
	errWAL := errors.New("injected wal fault")
	tr, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, tr, ops[:m])
	ctl.arm("sync", 0, errWAL)
	if err := tr.Update(ops[m].id, ops[m].p, ops[m].now); !errors.Is(err, errWAL) {
		t.Fatalf("update with failing commit returned %v, want %v", err, errWAL)
	}
	tr.Abandon()

	re, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	k := recoveredOpCount(re)
	if k != m && k != m+1 {
		t.Fatalf("recovered %d ops, want %d (op lost) or %d (op durable)", k, m, m+1)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := memReference(t, ops[:k])
	now := crashFinalNow()
	requireSameFingerprint(t, fingerprintIndex(t, re, now), fingerprintIndex(t, ref, now), "in-doubt recovery")
}

// TestDurableFreshCreateCrashReinitializes fabricates what a crash
// during a fresh tree's very first checkpoint leaves behind — a dirty
// page file without tree metadata and an empty WAL — and requires Open
// to recreate the index from scratch (nothing was ever acknowledged).
func TestDurableFreshCreateCrashReinitializes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.rexp")
	fs, err := storage.CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MarkDirty(); err != nil {
		t.Fatal(err)
	}
	if err := fs.CloseKeepDirty(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(WALPath(path), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	tr, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("open after first-checkpoint crash: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("reinitialized tree has %d reports, want 0", tr.Len())
	}
	p := Point{Pos: Vec{10, 20}, Vel: Vec{1, 1}, Time: 1, Expires: 100}
	if err := tr.Update(42, p, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Get(42, 1); !ok {
		t.Fatal("report written after reinitialization did not survive")
	}
}

// TestDurableChecksumFailureNeverSilent flips a bit in a cold page and
// requires every open path — crash recovery and the legacy clean-file
// open — to fail with storage.ErrChecksum rather than answer queries
// from the corrupt page.
func TestDurableChecksumFailureNeverSilent(t *testing.T) {
	ops := crashOps(crashOpsN, 17)

	t.Run("unclean", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.rexp")
		tr, err := Open(durableOpts(path, DurabilityOnCommit))
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, tr, ops)
		tr.Abandon()
		// Flip a bit in every data page: whichever pages recovery walks
		// (metadata aside), the corruption must surface.
		for id := 1; id < pageFileCount(t, path); id++ {
			flipPageByte(t, path, id)
		}
		_, err = Open(durableOpts(path, DurabilityOnCommit))
		if !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("recovery of corrupt file returned %v, want %v", err, storage.ErrChecksum)
		}
	})

	t.Run("clean", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.rexp")
		tr, err := Open(durableOpts(path, DurabilityOnCommit))
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, tr, ops[:100])
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		for id := 1; id < pageFileCount(t, path); id++ {
			flipPageByte(t, path, id)
		}
		if _, err := Open(fileOpts(path)); !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("legacy open of corrupt file returned %v, want %v", err, storage.ErrChecksum)
		}
		if _, err := Open(durableOpts(path, DurabilityOnCommit)); !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("durable open of corrupt file returned %v, want %v", err, storage.ErrChecksum)
		}
	})
}

// TestDurabilityNoneRefusesDirtyFile: a file left dirty by a crashed
// durable session must not be silently opened against its stale base.
func TestDurabilityNoneRefusesDirtyFile(t *testing.T) {
	ops := crashOps(60, 19)
	path := filepath.Join(t.TempDir(), "dirty.rexp")
	tr, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, tr, ops)
	tr.Abandon()

	if _, err := Open(fileOpts(path)); !errors.Is(err, errNotDurable) {
		t.Fatalf("non-durable open of dirty file returned %v, want %v", err, errNotDurable)
	}

	// Recover durably and close cleanly; then the legacy open works.
	re := requireRecovered(t, path, ops, len(ops))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	legacy, err := Open(fileOpts(path))
	if err != nil {
		t.Fatalf("legacy open after clean close: %v", err)
	}
	legacy.Close()
}

// TestDurableDoubleClose: Close is idempotent on the success path too.
func TestDurableDoubleClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dc.rexp")
	tr, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, tr, crashOps(40, 23))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close returned %v, want nil", err)
	}
}

// TestDurableRecoveryDropsExpired: replaying the WAL tail skips
// reports that expired before the recovered clock — they are invisible
// to queries and would only be purged again — and counts them.
func TestDurableRecoveryDropsExpired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.rexp")
	tr, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatal(err)
	}
	now := 1.0
	for id := uint32(1); id <= 50; id++ {
		p := Point{Pos: Vec{float64(id), float64(id)}, Vel: Vec{1, 0}, Time: now, Expires: now + 0.4}
		if err := tr.Update(id, p, now); err != nil {
			t.Fatal(err)
		}
		now += 0.001
	}
	now = 5.0
	for id := uint32(101); id <= 160; id++ {
		p := Point{Pos: Vec{float64(id), 500}, Vel: Vec{0, 1}, Time: now, Expires: now + 1000}
		if err := tr.Update(id, p, now); err != nil {
			t.Fatal(err)
		}
		now += 0.001
	}
	final := now
	tr.Abandon()

	re, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	m := re.Metrics()
	if m.RecoveryDroppedExpired != 50 {
		t.Fatalf("RecoveryDroppedExpired = %d, want 50", m.RecoveryDroppedExpired)
	}
	if got := re.Len(); got != 60 {
		t.Fatalf("recovered %d reports, want the 60 live ones", got)
	}
	if _, ok := re.Get(1, final); ok {
		t.Fatal("expired report resurfaced after recovery")
	}
	if _, ok := re.Get(101, final); !ok {
		t.Fatal("live report missing after recovery")
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveryKeepsReportExpiringAtClock: a report whose
// expiration time rounds, in the page's float32, to the clock of the
// crash is alive to the live index (stored t_exp < now is false), so it
// must be alive after recovery too — the replay applies the same rule
// to the same stored value, not to the unrounded time from the log.
func TestDurableRecoveryKeepsReportExpiringAtClock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ulp.rexp")
	tr, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatal(err)
	}
	const clock = 100.0
	// Strictly before the clock, yet within half a float32 ulp of it.
	expires := clock - 1e-7
	if float64(float32(expires)) != clock {
		t.Fatalf("test premise: float32(%v) = %v, want %v", expires, float32(expires), clock)
	}
	p := Point{Pos: Vec{500, 500}, Vel: Vec{1, 0}, Time: 99, Expires: expires}
	if err := tr.Update(7, p, 99); err != nil {
		t.Fatal(err)
	}
	// A later report moves the clock to exactly the rounded expiry.
	other := Point{Pos: Vec{10, 10}, Time: clock, Expires: clock + 1000}
	if err := tr.Update(8, other, clock); err != nil {
		t.Fatal(err)
	}
	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	visible := func(tr *Tree) bool {
		res, err := tr.Timeslice(world, clock, clock)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.ID == 7 {
				return true
			}
		}
		return false
	}
	if _, ok := tr.Get(7, clock); !ok || !visible(tr) {
		t.Fatal("test premise: the report must be visible at the clock before the crash")
	}
	tr.Abandon()

	re, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	if n := re.Metrics().RecoveryDroppedExpired; n != 0 {
		t.Errorf("RecoveryDroppedExpired = %d, want 0", n)
	}
	if _, ok := re.Get(7, clock); !ok || !visible(re) {
		t.Fatal("a report visible before the crash is gone after recovery")
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableDoubleCrashTornTail drills the double-crash combination:
// the first crash leaves a torn WAL tail (garbage after the valid
// frames), then recovery itself crashes after its checkpoint's images
// and page flush are durable but before the WAL is truncated.  The
// recovery checkpoint must be reachable by the next scan — recovery
// cuts the torn tail before appending — or the final open would replay
// the old records over a page file the first recovery already rewrote.
func TestDurableDoubleCrashTornTail(t *testing.T) {
	ops := crashOps(crashOpsN, 37)
	path := filepath.Join(t.TempDir(), "double.rexp")
	tr, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, tr, ops)
	tr.Abandon()

	// Torn tail: garbage bytes after the valid frames, as a crash
	// mid-append leaves them.
	f, err := os.OpenFile(WALPath(path), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 64)
	for i := range garbage {
		garbage[i] = 0xAB
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// First recovery attempt dies between the checkpoint's image fsync
	// and the WAL truncation: the pool flush and page-file sync already
	// ran, so the page file holds the recovered state.
	o := durableOpts(path, DurabilityOnCommit)
	ctl := &walHookCtl{}
	ctl.arm("reset", 0, errors.New("injected crash"))
	o.testWALHook = ctl.hook
	if _, err := Open(o); err == nil {
		t.Fatal("recovery with a failing WAL truncate should fail")
	}

	// The recovery checkpoint must now be the log's last complete one.
	a, err := wal.Analyze(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if a.Torn {
		t.Fatal("WAL still ends in a torn tail after a recovery attempt")
	}
	if a.Images == nil {
		t.Fatal("recovery checkpoint unreachable: no complete image set after the torn tail")
	}
	if len(a.Tail) != 0 {
		t.Fatalf("%d logical records survive past the recovery checkpoint, want 0", len(a.Tail))
	}

	requireRecovered(t, path, ops, len(ops))
}

// TestDurableFailedMutationRolledBack: a mutation that fails after its
// WAL record was appended must roll the record back — otherwise a later
// successful operation's commit fsync makes it durable and recovery
// replays an operation whose caller observed an error.
func TestDurableFailedMutationRolledBack(t *testing.T) {
	ops := crashOps(crashOpsN, 41)
	path := filepath.Join(t.TempDir(), "rollback.rexp")
	o := durableOpts(path, DurabilityOnCommit)
	var fault *storage.FaultStore
	o.testWrapStore = func(s storage.Store) storage.Store {
		fault = &storage.FaultStore{Inner: s}
		return fault
	}
	tr, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	m := 200
	applyOps(t, tr, ops[:m])

	// Arm every storage operation: the next op that touches the store
	// (a split's allocation, an evicted page's read) fails mid-mutation,
	// after its record was appended.
	fault.FailReads, fault.FailWrites = true, true
	fault.Arm(1)
	failedAt := -1
	for i := m; i < len(ops); i++ {
		prev := tr.wal.Size()
		op := ops[i]
		var err error
		if op.del {
			_, err = tr.Delete(op.id, op.now)
		} else {
			err = tr.Update(op.id, op.p, op.now)
		}
		if err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("op %d failed with %v, want the injected fault", i, err)
			}
			if got := tr.wal.Size(); got != prev {
				t.Fatalf("WAL is %d bytes after the failed op, want rollback to %d", got, prev)
			}
			failedAt = i
			break
		}
	}
	if failedAt < 0 {
		t.Fatal("no operation tripped the armed fault")
	}
	fault.Disarm()

	// One more acknowledged operation: its commit fsync is the moment
	// the orphaned record would have become durable.
	lastNow := crashFinalNow() + 1
	last := crashOp{id: 9000, p: Point{
		Pos: Vec{5, 5}, Vel: Vec{1, 1}, Time: lastNow, Expires: lastNow + 1000,
	}, now: lastNow}
	if err := tr.Update(last.id, last.p, last.now); err != nil {
		t.Fatal(err)
	}
	tr.Abandon()

	// The recovered index must hold every acknowledged op and nothing
	// of the failed one.
	re, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	if err := re.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}
	refOps := append(append([]crashOp{}, ops[:failedAt]...), last)
	ref := memReference(t, refOps)
	requireSameFingerprint(t, fingerprintIndex(t, re, lastNow), fingerprintIndex(t, ref, lastNow), "rollback recovery")
}

// TestFailedDeleteKeepsObject: a Delete whose leaf lookup hits a read
// fault removed nothing, so the object table must still know the object
// — otherwise the next Update of it inserts a second live entry.  With
// and without a WAL the table, the tree and the log must agree after the
// failure (Validate green, the record rolled back), the object must
// still be served, and a retry must succeed.
func TestFailedDeleteKeepsObject(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			o := DefaultOptions()
			if durable {
				o = durableOpts(filepath.Join(t.TempDir(), "del.rexp"), DurabilityOnCommit)
			}
			o.BufferPages = 4 // a delete's leaf is rarely resident
			var fault *storage.FaultStore
			o.testWrapStore = func(s storage.Store) storage.Store {
				fault = &storage.FaultStore{Inner: s, FailReads: true}
				return fault
			}
			tr, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { tr.Close() }()
			rng := rand.New(rand.NewSource(17))
			now := 1.0
			load := make([]Report, 3000)
			for i := range load {
				load[i] = randomReport(rng, uint32(i), now)
			}
			if err := tr.UpdateBatch(load, now); err != nil {
				t.Fatal(err)
			}
			if durable {
				// The no-steal pool kept every page of the load; a reopened
				// one holds the last four its recovery walked.
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				if tr, err = Open(o); err != nil {
					t.Fatal(err)
				}
			}
			now += 0.5
			world := Rect{Lo: Vec{-1e6, -1e6}, Hi: Vec{1e6, 1e6}}
			entriesOf := func(id uint32) int {
				res, err := tr.Timeslice(world, now, now)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, r := range res {
					if r.ID == id {
						n++
					}
				}
				return n
			}

			failed := -1
			for id := uint32(0); id < 50 && failed < 0; id++ {
				var logged int64
				if durable {
					logged = tr.wal.Size()
				}
				fault.Arm(1)
				_, err := tr.Delete(id, now)
				fault.Disarm()
				switch {
				case err == nil: // its path was resident
				case !errors.Is(err, storage.ErrInjected):
					t.Fatalf("Delete(%d) = %v, want the injected read fault", id, err)
				default:
					failed = int(id)
					if durable && tr.wal.Size() != logged {
						t.Fatalf("the log is %d bytes after the failed delete, want it rolled back to %d", tr.wal.Size(), logged)
					}
				}
			}
			if failed < 0 {
				t.Fatal("no delete tripped the armed read fault")
			}
			id := uint32(failed)
			if _, ok := tr.Get(id, now); !ok {
				t.Fatalf("object %d is gone from the table though its delete failed", id)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("after the failed delete: %v", err)
			}
			// The report that used to become a second live entry.
			again := randomReport(rng, id, now)
			if err := tr.Update(id, again.Point, now); err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("after re-reporting object %d: %v", id, err)
			}
			if n := entriesOf(id); n != 1 {
				t.Fatalf("object %d has %d live entries after its re-report, want 1", id, n)
			}
			if removed, err := tr.Delete(id, now); err != nil || !removed {
				t.Fatalf("retried Delete(%d) = %v, %v; want it removed", id, removed, err)
			}
			if _, ok := tr.Get(id, now); ok || entriesOf(id) != 0 {
				t.Fatalf("object %d is still served after its delete", id)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if !durable {
				return
			}
			want := fingerprintIndex(t, tr, now)
			tr.Abandon()
			re, err := Open(durableOpts(o.Path, DurabilityOnCommit))
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer re.Close()
			if err := re.Validate(); err != nil {
				t.Fatalf("recovered tree invalid: %v", err)
			}
			requireSameFingerprint(t, fingerprintIndex(t, re, now), want, "recovery after a failed and a retried delete")
		})
	}
}

// TestShardedDurableCrashRecovery kills every shard of a durable
// sharded index mid-stream and requires OpenSharded to recover all of
// them (concurrently) back to the single-tree reference, with the
// durability policy recorded in the manifest.
func TestShardedDurableCrashRecovery(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s.rexp")
	o := durableOpts(base, DurabilityOnCommit)
	so := ShardedOptions{Options: o, Shards: 3}
	s, err := OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	batch := testWorkload(400, 29)
	for _, ix := range []movingIndex{s, ref} {
		if err := ix.UpdateBatch(batch, 1); err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint32{3, 77, 190, 301} {
			if _, err := ix.Delete(id, 1.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	now := 2.0
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		now += 0.01
		id := uint32(rng.Intn(400) + 1)
		p := Point{
			Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:     Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
			Time:    now,
			Expires: now + 500,
		}
		if err := s.Update(id, p, now); err != nil {
			t.Fatal(err)
		}
		if err := ref.Update(id, p, now); err != nil {
			t.Fatal(err)
		}
	}
	s.Abandon()

	re, err := OpenSharded(so)
	if err != nil {
		t.Fatalf("sharded recovery open: %v", err)
	}
	defer re.Close()
	requireSameFingerprint(t, fingerprintIndex(t, re, now), fingerprintIndex(t, ref, now), "recovered sharded index")
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}

	man, found, err := manifest.Read(manifest.Path(base))
	if err != nil || !found {
		t.Fatalf("manifest read: found=%v err=%v", found, err)
	}
	if man.Durability != "on-commit" {
		t.Fatalf("manifest durability %q, want on-commit", man.Durability)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("second sharded Close returned %v, want nil", err)
	}
}
