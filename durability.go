package rexptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// This file holds the crash-safety machinery of a file-backed Tree:
// write-ahead logging of mutations, the checkpoint protocol, and the
// recovery that Open runs after an unclean shutdown.
//
// The invariant everything rests on: the page file holds the state of
// the last truncation (the last checkpoint that fsynced it and emptied
// the log) plus un-synced writes of later checkpoints, and the log holds
// every page image needed to rebuild the last complete checkpoint over
// it.  The buffer pool runs no-steal (dirty pages are never written back
// outside a checkpoint), frees are deferred (no chain links are written
// and no page freed since the last checkpoint is reused), and the only
// other writes that reach the file are zero-fills of pages that are free
// in the checkpointed state.  A checkpoint first images every dirty page
// into the WAL and fsyncs it; only then does it touch the page file — so
// a crash at any instant leaves either a replayable base or complete
// image sets, never a half-written state that matters.  That one fsync
// is the checkpointing operation's commit point too; the page file's own
// fsync and the log truncation that must follow it are paid once per
// CheckpointBytes of log, not per checkpoint.
//
// When a checkpoint runs is a function of the log alone: one is due once
// the logical records appended since the last reach CheckpointBytes /
// imageSetsPerSettle, and the one that finds the log at CheckpointBytes
// settles it.  So the log holds several image sets between truncations,
// and recovery replays at most CheckpointBytes/imageSetsPerSettle of
// logical records after the last of them.  The buffer budget plays no
// part: every node's decoded version lives in memory anyway, so under
// no-steal a dirty frame stays resident past BufferPages until the next
// checkpoint — bounded by the pages dirtied in that much log, at most the
// index — and clean frames are trimmed back to the budget on the next
// miss.

// imageSetsPerSettle is how many checkpoints' worth of logical records
// fit in CheckpointBytes of log: a checkpoint is due every
// CheckpointBytes/imageSetsPerSettle of them.
const imageSetsPerSettle = 8

// WALPath returns the write-ahead-log path used for the index file at
// path.
func WALPath(path string) string { return path + ".wal" }

// errNotDurable marks open failures that refuse a dirty file under
// DurabilityNone.
var errNotDurable = errors.New("rexptree: file was not closed cleanly; reopen with Options.Durability set to recover")

// initWAL attaches the write-ahead log to a freshly created durable
// tree (existing files go through recoverDurable, which wires its
// own).  It runs the initial checkpoint before marking the file dirty
// so the page file is a valid (empty) base before any logical record
// is appended.
func (tr *Tree) initWAL(opts Options) error {
	w, err := wal.Create(tr.walPath)
	if err != nil {
		return err
	}
	w.SetMetrics(tr.m)
	w.Hook = opts.testWALHook
	tr.wal = w
	tr.fs.SetDeferFrees(true)
	if err := tr.checkpointLocked(true); err != nil {
		return err
	}
	return tr.fs.MarkDirty()
}

// walRollback drops the record appended at offset prev after the
// mutation it logged failed: the caller observed an error, so the
// record must never reach a commit point — a later successful
// operation's fsync would otherwise make the failed operation durable
// and recovery would replay it.  If the log cannot be rewound the tree
// is poisoned: every further mutation (and the final checkpoint) is
// refused, the file stays dirty, and the next open recovers from the
// last durable state instead.
func (tr *Tree) walRollback(prev int64, cause error) {
	tr.snapEpoch.Add(1) // the rewind invalidates any WAL tail being streamed
	if err := tr.wal.Unwind(prev); err != nil {
		tr.walPoison = fmt.Errorf("rexptree: write-ahead log holds the record of a failed operation (%v) and could not be rewound: %w", cause, err)
	}
}

// walLog appends the logical record of the update r (the deletion of
// r.ID when del is set); called before the mutation is applied
// (write-ahead ordering).
func (tr *Tree) walLog(r *Report, del bool, now float64) error {
	if del {
		tr.walBuf = wal.EncodeDelete(tr.walBuf[:0], wal.Delete{ID: r.ID, Now: now})
	} else {
		tr.walBuf = wal.EncodeUpdate(tr.walBuf[:0], walUpdate(r, now))
	}
	if err := tr.wal.Append(tr.walBuf); err != nil {
		return err
	}
	tr.m.WALAppends.Inc()
	return nil
}

// walCommit makes the operation durable per the configured policy, or
// checkpoints when a checkpoint is due: the logical records since the
// last one have reached CheckpointBytes/imageSetsPerSettle, or the log
// CheckpointBytes.  The checkpoint's image-set fsync covers the
// operation's records, which precede it in the log, so no separate
// commit fsync is paid.  It is the tail of every mutating public
// operation in WAL mode; the exclusive lock must be held.
func (tr *Tree) walCommit(tc *QueryTrace) error {
	// A backup stream in flight (ckptHold > 0) defers checkpoints: the
	// page file must not change while it is being copied, so the WAL
	// keeps growing instead — that growth is the retained-segment
	// guarantee the stream depends on.
	if size := tr.wal.Size(); tr.ckptHold.Load() == 0 &&
		(size >= tr.ckptBytes || size-tr.ckptEnd >= tr.ckptBytes/imageSetsPerSettle) {
		ci := tc.begin(-1, "checkpoint", -1)
		err := tr.checkpointLocked(false)
		tc.endAt(ci)
		return err
	}
	switch tr.durability {
	case DurabilityOnCommit:
		fi := tc.begin(-1, "wal-fsync", -1)
		err := tr.wal.Sync()
		tc.endAt(fi)
		if err != nil {
			return err
		}
	case DurabilityBatched:
		if err := tr.wal.Flush(); err != nil {
			return err
		}
		if time.Since(tr.lastWALSync) >= tr.syncEvery {
			fi := tc.begin(-1, "wal-fsync", -1)
			err := tr.wal.Sync()
			tc.endAt(fi)
			if err != nil {
				return err
			}
			tr.lastWALSync = time.Now()
		}
	}
	return nil
}

// checkpointLocked runs the checkpoint protocol:
//
//  1. Stage the tree metadata into its buffered page.
//  2. Image every dirty pool page into the WAL (CkptBegin, CkptPage...,
//     CkptCommit) and fsync — the images, and every logical record
//     before them, are now durable.  Since the last checkpoint the
//     mutations wrote decoded nodes only; each page's bytes are encoded
//     here, as DirtyPages hands them out.
//  3. Flush the pool into the page file without fsync, so clean frames
//     can be evicted and re-read, and let the frees quarantined since
//     the last checkpoint be reused: they are free in the state the log
//     now rebuilds.
//  4. When the log has reached CheckpointBytes, or the caller needs an
//     empty log (full: open, recovery, close, the start of a backup
//     stream), settle: sync the store (free chain, superblock, fsync),
//     then truncate the WAL — in that order.
//
// A crash before the image fsync leaves the state of the previous
// checkpoint plus a replayable logical tail (the incomplete image set is
// ignored); a crash after it leaves complete image sets that recovery
// merges and re-applies idempotently, however many page-file writes
// since the last store fsync were lost or torn.
func (tr *Tree) checkpointLocked(full bool) error {
	start := time.Now()
	tr.snapEpoch.Add(1) // checkpointing rewrites the page file under any stream
	if err := tr.t.StageMeta(); err != nil {
		return err
	}
	if err := tr.wal.Append([]byte{byte(wal.CkptBegin)}); err != nil {
		return err
	}
	err := tr.t.DirtyPages(func(id storage.PageID, data []byte) error {
		tr.walBuf = append(tr.walBuf[:0], byte(wal.CkptPage))
		tr.walBuf = binary.LittleEndian.AppendUint32(tr.walBuf, uint32(id))
		tr.walBuf = append(tr.walBuf, data...)
		return tr.wal.Append(tr.walBuf)
	})
	if err != nil {
		return err
	}
	tr.walBuf = append(tr.walBuf[:0], byte(wal.CkptCommit))
	tr.walBuf = binary.LittleEndian.AppendUint32(tr.walBuf, uint32(tr.fs.PageCount()))
	if err := tr.wal.Append(tr.walBuf); err != nil {
		return err
	}
	if err := tr.wal.Sync(); err != nil {
		return err
	}
	tr.lastWALSync = time.Now()
	if err := tr.t.FlushPool(); err != nil {
		return err
	}
	tr.fs.ReleaseFrees()
	if full || tr.wal.Size() >= tr.ckptBytes {
		if err := storage.SyncStore(tr.store); err != nil {
			return err
		}
		if err := tr.wal.Reset(); err != nil {
			return err
		}
	}
	tr.ckptEnd = tr.wal.Size()
	tr.m.Checkpoints.Inc()
	tr.m.ObservePhase(obs.PhaseCheckpoint, time.Since(start))
	return nil
}

// recoverDurable rebuilds the tree from the page file and the WAL
// after an unclean shutdown.  fs is the raw file store (for image
// application), store the wrapped store the tree will run on.  The
// returned bool asks the caller to reinitialize from scratch: the
// crash happened during the very first checkpoint of a fresh tree, so
// no acknowledged state exists.
func recoverDurable(opts Options, fs *storage.FileStore, store storage.Store, cfg core.Config, tr *Tree, tc *QueryTrace) (retry bool, err error) {
	start := time.Now()
	si := tc.begin(-1, "analyze", -1)
	a, err := wal.Analyze(tr.walPath)
	tc.endAt(si)
	if err != nil {
		return false, err
	}

	// Cut off a torn tail before anything is appended: frames written
	// after unscannable garbage would be invisible to every later Scan,
	// so if this recovery crashed after its checkpoint the next open
	// would miss that checkpoint and replay the old records over a page
	// file the checkpoint already rewrote.  Only invalid bytes are
	// dropped; the analyzed records all precede ValidPrefix.
	if a.Torn {
		ti := tc.begin(-1, "truncate-tail", -1)
		err := wal.TruncateTail(tr.walPath, a.ValidPrefix)
		tc.endAt(ti)
		if err != nil {
			return false, fmt.Errorf("rexptree: recovery failed truncating the WAL's torn tail: %w", err)
		}
	}

	// Re-apply the page images of every complete checkpoint since the
	// last truncation (merged, the later image of a page winning) and
	// make them durable: the page file then holds the state of the last
	// complete checkpoint, whatever became of the un-synced writes of the
	// checkpoints in between.  Idempotent: however often recovery itself
	// is interrupted, the images win.  The fsync matters: the recovery
	// checkpoint below images only the pages the replay dirties, so
	// these patches must already be on disk before that checkpoint's
	// truncation drops the records they came from.
	if a.Images != nil {
		ii := tc.begin(-1, "reapply-images", -1)
		if a.Pages > fs.PageCount() {
			fs.SetPageCount(a.Pages)
		}
		for id, img := range a.Images {
			if err := fs.WriteImage(id, img); err != nil {
				return false, err
			}
		}
		if err := fs.Sync(); err != nil {
			return false, err
		}
		tc.endAt(ii)
	}

	oi := tc.begin(-1, "open-base", -1)
	t, err := core.Open(cfg, store)
	tc.endAt(oi)
	if err != nil {
		if a.Images == nil && len(a.Tail) == 0 && !errors.Is(err, storage.ErrChecksum) {
			// The file was never checkpointed (crash during the fresh
			// tree's first checkpoint): nothing was acknowledged, so
			// recreate from scratch.  A checksum failure is never that
			// case — it is corruption and must surface.
			return true, nil
		}
		return false, fmt.Errorf("rexptree: recovery cannot open the checkpointed base: %w", err)
	}
	tr.t = t
	tr.dims = t.Config().Dims

	// Rebuild the free list from reachability: the on-disk chain is
	// stale on a dirty file.  The walk reads — and checksum-verifies —
	// every live page, so cold corruption fails recovery here instead
	// of surfacing as a wrong answer later.
	live, err := t.LivePages()
	if err != nil {
		return false, fmt.Errorf("rexptree: recovery failed verifying reachable pages: %w", err)
	}
	// Deferred frees must be on before the replay mutates anything:
	// pages the replay frees are live in the checkpointed base, and
	// reusing one would clobber the base this very recovery would need
	// were it interrupted.
	fs.SetDeferFrees(true)
	fs.ResetFreeList(live)

	// Replay the logical tail through the mutation envelope, before the
	// WAL writer is attached: nothing is logged again.  The recovered
	// clock is the latest timestamp in the log; any replayed report that
	// has expired by it is dead on arrival — queries would never see it
	// and a later update would purge it — so it replays as a deletion
	// (the update's delete half without its insert).  Expired means what
	// it means to the live index (core.isExpired): the expiration time as
	// stored, rounded to the page's float32, lies before the clock.
	ri := tc.begin(-1, "replay", -1)
	clock := t.Now()
	for _, rec := range a.Tail {
		switch rec.Kind {
		case wal.RecUpdate:
			if rec.Update.Now > clock {
				clock = rec.Update.Now
			}
		case wal.RecDelete:
			if rec.Delete.Now > clock {
				clock = rec.Delete.Now
			}
		}
	}
	for _, rec := range a.Tail {
		var (
			op  = obs.OpDelete
			r   Report
			now float64
		)
		switch rec.Kind {
		case wal.RecUpdate:
			u := &rec.Update
			r, now = Report{ID: u.ID, Point: Point{Pos: u.Pos, Vel: u.Vel, Time: u.Time, Expires: u.Expires}}, u.Now
			if cfg.ExpireAware && t.Stored(toInternal(r.Point, tr.dims)).TExp < clock {
				// Short-lived data: the report expired before the crash
				// was recovered; replaying it would only be purged again.
				tr.m.RecoveryDroppedExpired.Inc()
			} else {
				op = obs.OpUpdate
				tr.m.RecoveryReplayed.Inc()
			}
		case wal.RecDelete:
			r, now = Report{ID: rec.Delete.ID}, rec.Delete.Now
			tr.m.RecoveryReplayed.Inc()
		default:
			continue
		}
		if _, err := tr.apply(op, []Report{r}, now, nil); err != nil {
			return false, err
		}
	}
	tc.endAt(ri)

	// Attach the WAL writer, appending directly after the valid prefix
	// (the torn tail, if any, was truncated above): if this recovery is
	// itself interrupted before its checkpoint commits, the old records
	// stay replayable; once it commits, a later Scan reaches it and the
	// old records are superseded.  Then checkpoint the recovered state,
	// truncate the log, and stay dirty for the ongoing session.
	w, err := wal.Create(tr.walPath)
	if err != nil {
		return false, err
	}
	w.SetMetrics(tr.m)
	w.Hook = opts.testWALHook
	tr.wal = w
	ci := tc.begin(-1, "checkpoint", -1)
	err = tr.checkpointLocked(true)
	tc.endAt(ci)
	if err != nil {
		return false, fmt.Errorf("rexptree: recovery checkpoint failed: %w", err)
	}
	if err := fs.MarkDirty(); err != nil {
		return false, err
	}
	tr.m.RecoveryDuration.Observe(time.Since(start))
	return false, nil
}

// closeDurable runs the durable half of Close: final checkpoint, then
// a clean superblock.  On checkpoint failure the file keeps its dirty
// flag so the next open recovers instead of trusting a half-flushed
// base.
func (tr *Tree) closeDurable() error {
	if tr.walPoison != nil {
		// The log may hold the record of a failed operation; syncing or
		// checkpointing could make it durable.  Abort the WAL unflushed
		// and keep the dirty flag: the next open recovers the last
		// consistent state.
		tr.wal.Abort()
		tr.fs.CloseKeepDirty()
		return tr.walPoison
	}
	if err := tr.checkpointLocked(true); err != nil {
		tr.wal.Close()
		tr.fs.CloseKeepDirty()
		return err
	}
	err := tr.wal.Close()
	// store.Close clears the dirty flag, persists the free chain and
	// superblock, and fsyncs; its error must surface.
	if cerr := tr.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// takeClock moves the tree's clock forward to now — a live reshard's
// target takes over the index clock this way — and, under a WAL,
// checkpoints, so the clock survives a crash even if no record is ever
// logged in this tree.
func (tr *Tree) takeClock(now float64) error {
	tr.lock()
	defer tr.mu.Unlock()
	tr.t.Advance(now)
	if tr.wal == nil {
		return nil
	}
	return tr.checkpointLocked(false)
}

// Abandon drops the tree without checkpointing, flushing, or clearing
// the dirty flag: the files are left exactly as a crash at this
// instant would leave them (WAL bytes still buffered in memory are
// lost).  It exists so crash-recovery tests and drills can produce a
// genuine post-crash state in-process; every other caller wants Close.
// Abandoning a non-durable tree just closes the store.  The tree must
// not be used afterwards.
func (tr *Tree) Abandon() {
	tr.lock()
	defer tr.mu.Unlock()
	if tr.closed {
		return
	}
	tr.closed = true
	tr.closeErr = errors.New("rexptree: tree was abandoned")
	if tr.wal != nil {
		tr.wal.Abort()
		tr.fs.CloseKeepDirty()
		return
	}
	tr.store.Close()
}

// RemoveIndex deletes the index file at path together with its
// write-ahead log (if any).  It is a convenience for tooling and
// tests; a missing file is not an error.
func RemoveIndex(path string) error {
	err := os.Remove(path)
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	werr := os.Remove(WALPath(path))
	if errors.Is(werr, os.ErrNotExist) {
		werr = nil
	}
	if err == nil {
		err = werr
	}
	return err
}
