package rexptree

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rexptree/internal/storage"
)

// syncLogStore records the page store's fsyncs in the same event log the
// WAL hook writes to, so a test can count them and see their order.
type syncLogStore struct {
	storage.Store
	events *[]string
}

func (s *syncLogStore) Sync() error {
	*s.events = append(*s.events, "store-sync")
	return storage.SyncStore(s.Store)
}

// randomBatch is n reports at now over objects 0..7999, the population
// the tests of this file load.
func randomBatch(rng *rand.Rand, n int, now float64) []Report {
	batch := make([]Report, n)
	for i := range batch {
		batch[i] = randomReport(rng, uint32(rng.Intn(8000)), now)
	}
	return batch
}

// overflowingTree opens a durable tree with a 16-page pool and loads it
// with an index several times that size, so a 25-report batch usually
// overflows the pool.  events receives every WAL fsync ("sync"), page
// store fsync ("store-sync") and log truncation ("reset") from then on.
func overflowingTree(t *testing.T, d Durability, ckptBytes int64, events *[]string) (*Tree, *rand.Rand) {
	t.Helper()
	o := durableOpts(filepath.Join(t.TempDir(), "ckpt.rexp"), d)
	o.BufferPages = 16
	o.CheckpointBytes = ckptBytes
	o.SyncEvery = time.Hour
	o.testWALHook = func(event string) error {
		if event == "sync" || event == "reset" {
			*events = append(*events, event)
		}
		return nil
	}
	o.testWrapStore = func(s storage.Store) storage.Store { return &syncLogStore{s, events} }
	tr, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	rng := rand.New(rand.NewSource(53))
	load := make([]Report, 8000)
	for i := range load {
		load[i] = randomReport(rng, uint32(i), 1)
	}
	if err := tr.UpdateBatch(load, 1); err != nil {
		t.Fatal(err)
	}
	return tr, rng
}

// TestCheckpointFsyncAccounting: a commit costs one WAL fsync whether or
// not it checkpoints — the image set's fsync is the commit point — and
// no page-store fsync; only the commit that finds the log at
// CheckpointBytes also fsyncs the store and then truncates the log, in
// that order.
func TestCheckpointFsyncAccounting(t *testing.T) {
	var events []string
	tr, rng := overflowingTree(t, DurabilityOnCommit, 1<<20, &events)
	var plain, lazy, settled int
	now := 1.0
	for round := 0; round < 60; round++ {
		// A 25-report body, then a 1-report one that finds the pool
		// freshly flushed.
		for _, n := range []int{25, 1} {
			now += 0.01
			events = events[:0]
			before := tr.Metrics()
			if err := tr.UpdateBatch(randomBatch(rng, n, now), now); err != nil {
				t.Fatal(err)
			}
			d := tr.Metrics().Sub(before)
			want, fsyncs := []string{"sync"}, uint64(1)
			switch {
			case d.Checkpoints == 0:
				plain++
			case tr.wal.Size() > 0:
				lazy++
			default:
				settled++
				want, fsyncs = []string{"sync", "store-sync", "reset"}, 2 // the truncation is fsynced too
			}
			if d.Checkpoints > 1 || !slices.Equal(events, want) || d.WALFsyncs != fsyncs {
				t.Fatalf("round %d, %d reports: %d checkpoints, events %v, %d WAL fsyncs; want at most 1, %v, %d",
					round, n, d.Checkpoints, events, d.WALFsyncs, want, fsyncs)
			}
		}
	}
	if plain < 10 || lazy < 10 || settled < 2 {
		t.Fatalf("test premise: %d commits without a checkpoint, %d with one, %d that truncated the log", plain, lazy, settled)
	}
}

// TestBatchedCheckpointRefreshesSyncTimer: under DurabilityBatched a
// checkpoint's fsync covers every record before it; it must restart the
// SyncEvery timer, or the next commit pays the timed fsync again.
func TestBatchedCheckpointRefreshesSyncTimer(t *testing.T) {
	var events []string
	tr, rng := overflowingTree(t, DurabilityBatched, 64<<20, &events)
	checkpointed := 0
	for round := 0; round < 20; round++ {
		overdue := time.Now().Add(-2 * time.Hour)
		tr.lastWALSync = overdue
		now := 2 + float64(round)
		before := tr.Metrics()
		if err := tr.UpdateBatch(randomBatch(rng, 25, now), now); err != nil {
			t.Fatal(err)
		}
		d := tr.Metrics().Sub(before)
		if d.WALFsyncs != 1 || tr.lastWALSync.Equal(overdue) {
			t.Fatalf("round %d: a commit with the timed fsync overdue ran %d checkpoints and %d WAL fsyncs, timer restarted: %v; want 1 fsync that restarts it",
				round, d.Checkpoints, d.WALFsyncs, !tr.lastWALSync.Equal(overdue))
		}
		checkpointed += int(d.Checkpoints)
	}
	if checkpointed < 5 {
		t.Fatalf("test premise: %d of 20 commits checkpointed", checkpointed)
	}
}

// TestBackupStartsFromTruncatedLog: between two truncations the log
// holds the image set of every checkpoint, up to CheckpointBytes of
// them.  A backup must not ship those: the first stream of a shard
// settles it, a second concurrent one must leave the first valid, and
// the copied prefixes recover to the shard's state.
func TestBackupStartsFromTruncatedLog(t *testing.T) {
	base := filepath.Join(t.TempDir(), "b.rexp")
	o := durableOpts(base, DurabilityBatched)
	o.SyncEvery = time.Hour
	o.CheckpointBytes = 64 << 20
	o.BufferPages = 16
	resets := 0
	o.testWALHook = func(event string) error {
		if event == "reset" {
			resets++
		}
		return nil
	}
	s, err := OpenSharded(ShardedOptions{Options: o, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rng := rand.New(rand.NewSource(59))
	now := 1.0
	write := func(n int) {
		t.Helper()
		now += 0.01
		batch := randomBatch(rng, n, now)
		for _, ix := range []movingIndex{s, ref} {
			if err := ix.UpdateBatch(batch, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 120; i++ {
		write(100)
	}
	shard := s.cur.Load().shards[0]
	resets = 0
	before := shard.m.Checkpoints.Load()
	for i := 0; i < 40; i++ {
		write(25)
	}
	if n := shard.m.Checkpoints.Load() - before; n < 20 || resets != 0 {
		t.Fatalf("test premise: %d checkpoints and %d truncations, want at least 20 and none", n, resets)
	}
	if shard.wal.Size() < 20*16*storage.PageSize {
		t.Fatalf("test premise: the log holds %d bytes, less than 20 image sets", shard.wal.Size())
	}

	b, err := s.BeginBackup()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	first, err := b.BeginShard(0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.End()
	if first.WALBytes >= storage.PageSize || resets != 1 {
		t.Fatalf("the stream starts with %d log bytes after %d truncations, want less than one page image after 1", first.WALBytes, resets)
	}
	copyPrefix := func(dst, src string, n int64) {
		t.Helper()
		in, err := os.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		out, err := os.Create(dst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyN(out, in, n); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	copyPath := filepath.Join(t.TempDir(), "copy.rexp")
	copyPrefix(copyPath, first.PagePath, first.PageBytes)
	copyPrefix(WALPath(copyPath), first.WALPath, first.WALBytes)
	want := fingerprintIndex(t, ref, now)
	copiedAt := now

	// Writes under the hold only grow the log; a second stream of the
	// shard ships that log as it is.
	for i := 0; i < 10; i++ {
		write(25)
	}
	second, err := b.BeginShard(0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.End()
	if resets != 1 || second.WALBytes == 0 {
		t.Fatalf("the second stream starts with %d log bytes after %d truncations, want the retained log after 1", second.WALBytes, resets)
	}
	for _, bs := range []*BackupShard{first, second} {
		if err := bs.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(durableOpts(copyPath, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("opening the copied shard: %v", err)
	}
	defer re.Close()
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	requireSameFingerprint(t, fingerprintIndex(t, re, copiedAt), want, "copied shard")
}
