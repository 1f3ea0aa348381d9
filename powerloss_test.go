package rexptree

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rexptree/internal/storage"
)

// The crash matrix kills the process and keeps the OS page cache
// (Abandon), so a page-file write that was never fsynced "survives"
// every test in it.  A checkpoint fsyncs only its image set in the log;
// the page file is fsynced by the checkpoint that truncates the log.
// This file tests what the matrix cannot see: a power loss that drops or
// tears any of the page-file writes since that fsync, and every log byte
// since the log's last one.

// pageSlot is the on-disk size of one page of a v2 file (8-byte header).
const pageSlot = storage.PageSize + 8

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// powerLossRig follows a running durable tree through its WAL hook and
// keeps what a power loss would leave of its files.
type powerLossRig struct {
	t    *testing.T
	path string
	tr   *Tree
	op   int // index of the operation in progress, -1 outside the stream

	durable   []byte // the page file as last fsynced
	syncedWAL int64  // log bytes covered by the log's last fsync
	syncedOps int    // operations whose records those bytes hold
	emptyAt   uint64 // the tree's checkpoint count when the log was last empty
}

func (r *powerLossRig) hook(event string) error {
	switch event {
	case "sync": // after the flush, before the fsync: the file is what becomes durable
		st, err := os.Stat(WALPath(r.path))
		if err != nil {
			return err
		}
		r.syncedWAL, r.syncedOps = st.Size(), r.op+1
	case "reset": // the instant after the page file's fsync
		r.durable = mustReadFile(r.t, r.path)
		r.syncedWAL = 0
		if r.tr != nil {
			r.emptyAt = r.tr.m.Checkpoints.Load() + 1 // the one in progress is counted at its end
		}
	}
	return nil
}

// imageSets is the number of complete image sets the log holds.
func (r *powerLossRig) imageSets() int { return int(r.tr.m.Checkpoints.Load() - r.emptyAt) }

// cut writes, under dir, files a power loss at this instant could leave:
// the log up to its last fsync, and the page file as last fsynced plus a
// random third of the slots written since, another third torn mid-slot.
// It returns the index path and how many operations those files hold.
func (r *powerLossRig) cut(dir string, rng *rand.Rand) (path string, ops int) {
	r.t.Helper()
	now := mustReadFile(r.t, r.path)
	img := make([]byte, len(now))
	copy(img, r.durable)
	dropped := 0
	for off := storage.PageSize; off < len(now); off += pageSlot {
		end := min(off+pageSlot, len(now))
		if bytes.Equal(now[off:end], img[off:end]) {
			continue
		}
		switch rng.Intn(3) {
		case 0: // the write reached the device
			copy(img[off:end], now[off:end])
		case 1: // lost
			dropped++
		case 2: // torn
			copy(img[off:off+1+rng.Intn(end-off-1)], now[off:])
			dropped++
		}
	}
	if dropped == 0 {
		r.t.Fatalf("test premise: no page-file write since the last fsync to lose")
	}
	path = filepath.Join(dir, "pl.rexp")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		r.t.Fatal(err)
	}
	if err := os.WriteFile(WALPath(path), mustReadFile(r.t, WALPath(r.path))[:r.syncedWAL], 0o644); err != nil {
		r.t.Fatal(err)
	}
	return path, r.syncedOps
}

// TestDurablePowerLoss drives an index larger than its 16-page pool, so
// that most checkpoints are pool overflows that leave the page file
// un-fsynced and the log un-truncated, and cuts the power with 3, 9 and
// 15 image sets in the log and at the end of the stream.  Whatever
// subset of the page-file writes since the last fsync survives, recovery
// must rebuild exactly the operations the log's last fsync covered: all
// of them under DurabilityOnCommit, those up to the last checkpoint under
// DurabilityBatched with no timed fsync.  The last cut is recovered once
// more with a second crash: the first recovery dies after it re-applied
// the images, at the fsync of its own checkpoint.
func TestDurablePowerLoss(t *testing.T) {
	ops := crashOpsOver(10000, 43, 10000)
	for _, tc := range []struct {
		name       string
		durability Durability
	}{
		{"on-commit", DurabilityOnCommit},
		{"batched", DurabilityBatched},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := &powerLossRig{t: t, path: filepath.Join(t.TempDir(), "live.rexp"), op: -1}
			o := durableOpts(rig.path, tc.durability)
			o.BufferPages = 16
			o.CheckpointBytes = 2 << 20
			o.SyncEvery = time.Hour
			o.testWALHook = rig.hook
			tr, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Abandon()
			rig.tr = tr
			rig.durable = mustReadFile(t, rig.path) // Open's last step fsyncs the dirty flag
			rig.emptyAt = tr.m.Checkpoints.Load()

			rng := rand.New(rand.NewSource(47))
			check := func(secondCrash bool) {
				t.Helper()
				path, want := rig.cut(t.TempDir(), rng)
				if tc.durability == DurabilityOnCommit && want != rig.op+1 {
					t.Fatalf("the log's last fsync covers %d operations, %d were acknowledged", want, rig.op+1)
				}
				if secondCrash {
					co := durableOpts(path, DurabilityOnCommit)
					ctl := &walHookCtl{}
					ctl.arm("sync", 0, errors.New("injected crash"))
					co.testWALHook = ctl.hook
					if _, err := Open(co); err == nil {
						t.Fatal("recovery with a failing checkpoint fsync should fail")
					}
				}
				if err := requireRecovered(t, path, ops, want).Close(); err != nil {
					t.Fatal(err)
				}
			}
			targets := []int{3, 9, 15}
			for i, op := range ops {
				rig.op = i
				applyOps(t, tr, []crashOp{op})
				if len(targets) > 0 && rig.imageSets() == targets[0] {
					targets = targets[1:]
					check(false)
				}
			}
			if len(targets) > 0 {
				t.Fatalf("test premise: the log never held %d image sets", targets[0])
			}
			if rig.imageSets() < 2 {
				t.Fatalf("test premise: the stream ends with %d image sets in the log", rig.imageSets())
			}
			check(false)
			check(true)
		})
	}
}
