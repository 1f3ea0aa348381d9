package rexptree

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// An operation — one Update, one whole UpdateBatch — writes each page
// it dirtied once, at its end, and a checkpoint images the pages as
// they are at that moment.  The core package tests the mechanism; these
// tests hold the public operations to it.

// pageWrites wraps the page store and records the id of every write.
type pageWrites struct {
	storage.Store
	ids []storage.PageID
}

func (s *pageWrites) WritePage(id storage.PageID, buf []byte) error {
	s.ids = append(s.ids, id)
	return s.Store.WritePage(id, buf)
}

func randomReport(rng *rand.Rand, id uint32, now float64) Report {
	return Report{ID: id, Point: Point{
		Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
		Vel:     Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
		Time:    now,
		Expires: now + 120,
	}}
}

func TestOperationWritesEachDirtyPageOnce(t *testing.T) {
	var log *pageWrites
	o := DefaultOptions()
	o.BufferPages = 4096 // nothing is evicted: every write is a write-back at an operation's end
	o.testWrapStore = func(s storage.Store) storage.Store {
		log = &pageWrites{Store: s}
		return log
	}
	tr, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(31))
	const objects = 5000
	now := 0.0
	for id := 0; id < objects; id += 100 {
		now += 0.5
		batch := make([]Report, 100)
		for i := range batch {
			batch[i] = randomReport(rng, uint32(id+i), now)
		}
		if err := tr.UpdateBatch(batch, now); err != nil {
			t.Fatal(err)
		}
	}

	// written runs one operation and returns the pages it wrote, having
	// checked that none was written twice and that Stats agrees.
	written := func(what string, op func() error) int {
		t.Helper()
		before := tr.Stats()
		log.ids = log.ids[:0]
		if err := op(); err != nil {
			t.Fatal(err)
		}
		ids := slices.Clone(log.ids)
		slices.Sort(ids)
		if distinct := len(slices.Compact(ids)); distinct != len(log.ids) {
			t.Fatalf("%s wrote %d pages, only %d of them distinct", what, len(log.ids), distinct)
		}
		after := tr.Stats()
		if got := after.Writes - before.Writes; got != uint64(len(log.ids)) || after.Reads != before.Reads {
			t.Fatalf("%s: Stats counts %d writes and %d reads, the store saw %d writes", what, got, after.Reads-before.Reads, len(log.ids))
		}
		return len(log.ids)
	}

	now += 0.5
	batch := make([]Report, 100)
	for i := range batch {
		batch[i] = randomReport(rng, uint32(rng.Intn(objects)), now)
	}
	// 100 delete + insert pairs touch the root and, mostly, two leaves
	// each; written one by one that was several hundred page writes.
	if n := written("a 100-report UpdateBatch", func() error { return tr.UpdateBatch(batch, now) }); n < 20 || n > tr.Stats().Pages {
		t.Fatalf("a 100-report UpdateBatch wrote %d pages of %d", n, tr.Stats().Pages)
	}
	for i := 0; i < 20; i++ {
		now += 0.01
		r := randomReport(rng, uint32(rng.Intn(objects)), now)
		// The delete and the insert both rewrite the root; the pair
		// writes it once.
		if n := written("an Update", func() error { return tr.Update(r.ID, r.Point, now) }); n < 2 || n > 4 {
			t.Fatalf("an Update wrote %d pages, want the root and one or two leaves", n)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointImagesAreCurrent: in WAL mode a page's bytes are first
// needed when a checkpoint images it.  An UpdateBatch whose commit
// triggers a checkpoint must log images that are the pages the
// checkpoint then writes, and that state — WAL empty, page file alone —
// must be the index as of that batch.
func TestCheckpointImagesAreCurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.rexp")
	o := durableOpts(path, DurabilityOnCommit)
	o.CheckpointBytes = 6 << 10 // under one 100-report batch's log records
	var tr *Tree
	checked := 0
	o.testWALHook = func(event string) error {
		// "reset" fires after the image set is durable and the pool is
		// flushed, right before the log is truncated.
		if event != "reset" || tr == nil {
			return nil
		}
		a, err := wal.Analyze(tr.walPath)
		if err != nil {
			return err
		}
		page := make([]byte, storage.PageSize)
		for id, img := range a.Images {
			if err := tr.store.ReadPage(id, page); err != nil {
				return err
			}
			if !bytes.Equal(img, page) {
				return errors.New("a checkpoint image differs from the page the checkpoint wrote")
			}
			checked++
		}
		return nil
	}
	var err error
	if tr, err = Open(o); err != nil {
		t.Fatal(err)
	}
	ref, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rng := rand.New(rand.NewSource(37))
	now := 0.0
	for round := 0; round < 12; round++ {
		now += 0.5
		batch := make([]Report, 100)
		for i := range batch {
			batch[i] = randomReport(rng, uint32(rng.Intn(1500)), now)
		}
		for _, ix := range []*Tree{tr, ref} {
			if err := ix.UpdateBatch(batch, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := tr.Metrics().Checkpoints; got < 12 || checked < 12*3 {
		t.Fatalf("%d checkpoints imaged %d pages; every batch must trigger one", got, checked)
	}
	if tr.wal.Size() != 0 {
		t.Fatalf("the WAL holds %d bytes after the last batch's checkpoint", tr.wal.Size())
	}
	tr.Abandon()

	re, err := Open(durableOpts(path, DurabilityOnCommit))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	requireSameFingerprint(t, fingerprintIndex(t, re, now), fingerprintIndex(t, ref, now), "checkpointed page file")
}

// TestFailedWriteBackIsRetried: without a WAL the write-back at the end
// of an operation can fail.  The operation then reports the error with
// its reports applied in memory, the pages stay owed, and the end of
// the next operation writes them: the closed file holds both.
func TestFailedWriteBackIsRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "retry.rexp")
	var fault *storage.FaultStore
	o := fileOpts(path)
	o.BufferPages = 4096
	o.testWrapStore = func(s storage.Store) storage.Store {
		fault = &storage.FaultStore{Inner: s, FailWrites: true}
		return fault
	}
	tr, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rng := rand.New(rand.NewSource(41))
	now := 1.0
	load := make([]Report, 1500) // a root over a dozen leaves
	for i := range load {
		load[i] = randomReport(rng, uint32(i), now)
	}
	now += 0.5
	batch := make([]Report, 100)
	for i := range batch {
		batch[i] = randomReport(rng, uint32(rng.Intn(len(load))), now)
	}
	last := randomReport(rng, 5000, now+0.5)
	for _, ix := range []*Tree{tr, ref} {
		if err := ix.UpdateBatch(load, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	fault.Arm(2) // the batch's second page write fails, and every later one
	if err := tr.UpdateBatch(batch, now); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("UpdateBatch error = %v, want the injected write fault", err)
	}
	fault.Disarm()
	before := tr.Stats().Writes
	if err := tr.Update(last.ID, last.Point, now+0.5); err != nil {
		t.Fatal(err)
	}
	// An Update of its own writes two to four pages.
	if wrote := tr.Stats().Writes - before; wrote <= 4 {
		t.Fatalf("the next operation wrote %d pages; it must also write what the failed batch left owed", wrote)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.UpdateBatch(batch, now); err != nil {
		t.Fatal(err)
	}
	now += 0.5
	if err := ref.Update(last.ID, last.Point, now); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fileOpts(path))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	requireSameFingerprint(t, fingerprintIndex(t, re, now), fingerprintIndex(t, ref, now), "file after a retried write-back")
}
