package rexptree

import (
	"fmt"
	"os"

	"rexptree/internal/core"
	"rexptree/internal/hull"
	"rexptree/internal/manifest"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// ReplSink observes every mutation a tree applies, in apply order.  A
// sharded index calls the sink under the owning shard's exclusive lock
// immediately after the mutation succeeds (and, in WAL mode, before
// the commit fsync), so the sink sees exactly the applied history: a
// failed mutation is never emitted, and two mutations of one object
// arrive in their apply order.  internal/repl's Feed implements this
// to build the leader's replication log.
//
// Implementations must be fast and must not call back into the index.
type ReplSink interface {
	ReplUpdate(u wal.Update)
	ReplDelete(d wal.Delete)
}

// StoredOptions reads the layout-affecting configuration recorded in a
// shard page file's metadata (dimensions, bounding-rectangle kind,
// expiration flags) and returns Options that open the file faithfully,
// with every non-layout field at its DefaultOptions value.  A follower
// uses it to open a replica streamed from a leader whose tree
// configuration it was never told.
func StoredOptions(pagePath string) (Options, error) {
	fs, err := storage.OpenFileStoreReadOnly(pagePath)
	if err != nil {
		return Options{}, err
	}
	defer fs.Close()
	cfg, err := core.MetaConfig(fs)
	if err != nil {
		return Options{}, err
	}
	opts := DefaultOptions()
	opts.Dims = cfg.Dims
	opts.ExpireAware = cfg.ExpireAware
	opts.StoreBRExpiration = cfg.StoreBRExp
	// Expiration-aware heuristics follow the expire-aware layout flag:
	// that pairing is how both stock configurations are built.
	opts.HeuristicsUseExpiration = cfg.ExpireAware
	switch cfg.BRKind {
	case hull.KindStatic:
		opts.Bounding = Static
	case hull.KindUpdateMinimum:
		opts.Bounding = UpdateMinimum
	case hull.KindNearOptimal:
		opts.Bounding = NearOptimal
	case hull.KindOptimal:
		opts.Bounding = Optimal
	default:
		opts.Bounding = Conservative
	}
	return opts, nil
}

// replNote forwards an applied update (the deletion of r.ID when del
// is set) to the sink, if any.  Called under mu after the apply
// succeeded.
func (tr *Tree) replNote(r *Report, del bool, now float64) {
	switch {
	case tr.replSink == nil:
	case del:
		tr.replSink.ReplDelete(wal.Delete{ID: r.ID, Now: now})
	default:
		tr.replSink.ReplUpdate(walUpdate(r, now))
	}
}

// walUpdate is the logical record of the update r applied at now.
func walUpdate(r *Report, now float64) wal.Update {
	p := &r.Point
	return wal.Update{ID: r.ID, Now: now, Time: p.Time, Expires: p.Expires, Pos: p.Pos, Vel: p.Vel}
}

// SetReplSink attaches sink to every current shard (nil detaches).  A
// live-reshard cutover carries the sink over to the new generation, so
// emission never pauses across a reshard; during the dual-apply window
// only the current generation emits, so no mutation is ever emitted
// twice.
func (s *ShardedTree) SetReplSink(sink ReplSink) {
	s.rerouteMu.Lock()
	defer s.rerouteMu.Unlock()
	s.replSink = sink
	for _, t := range s.cur.Load().shards {
		t.mu.Lock()
		t.replSink = sink
		t.mu.Unlock()
	}
}

// beginStream freezes this tree's on-disk image for a backup stream:
// it defers checkpoints (ckptHold), so the page file changes only by
// zero-fills of free pages while it is copied and the WAL only grows —
// the retained-segment guarantee.  Taking the exclusive lock once is
// the barrier against a checkpoint already in flight.  The first hold
// settles the shard under that lock, so the WAL prefix it hands out
// starts empty instead of carrying up to CheckpointBytes of older image
// sets; a later hold must not (it would invalidate the stream already
// running) and flushes only, which makes every applied record visible
// in the file.  It returns the WAL length to stream and the snapshot
// epoch to validate against; callers must endStream exactly once.
func (tr *Tree) beginStream() (walLen int64, epoch uint64, err error) {
	tr.ckptHold.Add(1)
	tr.lock()
	defer tr.mu.Unlock()
	if tr.closed || tr.wal == nil || tr.walPoison != nil {
		tr.ckptHold.Add(-1)
		if tr.walPoison != nil {
			return 0, 0, tr.walPoison
		}
		return 0, 0, fmt.Errorf("rexptree: tree is not streamable (closed or not durable)")
	}
	if tr.ckptHold.Load() == 1 && tr.wal.Size() > 0 {
		err = tr.checkpointLocked(true)
	} else {
		err = tr.wal.Flush()
	}
	if err != nil {
		tr.ckptHold.Add(-1)
		return 0, 0, err
	}
	return tr.wal.Size(), tr.snapEpoch.Load(), nil
}

// endStream releases the checkpoint hold taken by beginStream.
func (tr *Tree) endStream() { tr.ckptHold.Add(-1) }

// Backup is a consistent, pinned view of a sharded index for a hot
// backup: the generation pin keeps the shard files on disk (a reshard
// retiring this generation waits for the pin), and each shard is
// streamed under its own checkpoint hold.  Close releases the pin;
// always call it.
type Backup struct {
	s    *ShardedTree
	g    *generation
	done bool
}

// BeginBackup pins the current generation for streaming.  It requires
// a file-backed, durable index: only the WAL + checkpoint machinery
// makes the on-disk files a crash-consistent image.
func (s *ShardedTree) BeginBackup() (*Backup, error) {
	if s.basePath == "" || s.durability == DurabilityNone {
		return nil, fmt.Errorf("rexptree: hot backup requires a file-backed index with a durability policy")
	}
	return &Backup{s: s, g: s.pin()}, nil
}

// Shards returns the pinned generation's shard count.
func (b *Backup) Shards() int { return len(b.g.shards) }

// Generation returns the pinned generation's shard-file generation
// number, as recorded in the manifest.
func (b *Backup) Generation() int { return b.g.gen }

// ManifestBytes returns the manifest file's raw contents, after
// checking the pinned generation is still current — a reshard that cut
// over since BeginBackup has rewritten the manifest for a different
// shard set, so the stream must abort rather than mix the two.
func (b *Backup) ManifestBytes() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return os.ReadFile(manifest.Path(b.s.basePath))
}

// Validate reports whether the pinned generation is still the current
// one.  Stream producers call it before declaring the stream complete;
// a failure must abort the stream loudly.
func (b *Backup) Validate() error {
	if b.s.cur.Load() != b.g {
		return fmt.Errorf("rexptree: backup invalidated: the index resharded while streaming")
	}
	return nil
}

// Close releases the generation pin.  Idempotent.
func (b *Backup) Close() {
	if !b.done {
		b.done = true
		b.g.unpin()
	}
}

// BackupShard is one shard frozen for streaming: read PageBytes bytes
// of PagePath and WALBytes bytes of WALPath (both prefixes are stable
// while the shard's checkpoint hold is in place), call Validate, then
// End.  The WAL prefix holds the image sets of the checkpoints since
// the log was last truncated (none when this stream was the shard's
// only one at its start) and the logical records after them; recovery
// of the copy rebuilds the shard's state from both.  Concurrent
// zero-fills of free pages may tear inside the page prefix; recovery
// never reads free pages, so the image stays crash-consistent.
type BackupShard struct {
	PagePath  string
	WALPath   string
	PageBytes int64
	WALBytes  int64

	tr    *Tree
	epoch uint64
}

// BeginShard freezes shard i for streaming.  Callers must End the
// returned shard exactly once.
func (b *Backup) BeginShard(i int) (*BackupShard, error) {
	if i < 0 || i >= len(b.g.shards) {
		return nil, fmt.Errorf("rexptree: backup shard %d out of range [0,%d)", i, len(b.g.shards))
	}
	tr := b.g.shards[i]
	walLen, epoch, err := tr.beginStream()
	if err != nil {
		return nil, err
	}
	base := manifest.ShardPath(b.s.basePath, b.g.gen, i)
	fi, err := os.Stat(base)
	if err != nil {
		tr.endStream()
		return nil, err
	}
	return &BackupShard{
		PagePath:  base,
		WALPath:   WALPath(base),
		PageBytes: fi.Size(),
		WALBytes:  walLen,
		tr:        tr,
		epoch:     epoch,
	}, nil
}

// Validate reports whether the streamed prefixes are still the frozen
// image: a checkpoint or WAL rewind since BeginShard (a manual
// checkpoint, a close, a failed mutation's rollback) bumps the shard's
// snapshot epoch and invalidates the bytes already sent.
func (bs *BackupShard) Validate() error {
	if bs.tr.snapEpoch.Load() != bs.epoch {
		return fmt.Errorf("rexptree: backup shard invalidated: the shard checkpointed or rewound its WAL while streaming")
	}
	return nil
}

// End releases the shard's checkpoint hold.
func (bs *BackupShard) End() { bs.tr.endStream() }
