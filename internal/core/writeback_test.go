package core

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
	"rexptree/internal/workload"
)

// A mutation writes the decoded node only; the page's bytes are renewed
// when they leave the pool.  These tests cover the window in between:
// pages stolen while their image is stale, images taken for a
// checkpoint, and what each kind of operation writes.

// batchStream drives a tree the way the serving path does: objects
// re-report in batches, every batch one BeginBatch/EndBatch scope of
// delete + insert pairs.  Reports live for 40 time units and an object
// re-reports every ~50, so some expire before their next report: the
// deletion then fails and the entry is purged lazily.
type batchStream struct {
	rng   *rand.Rand
	now   float64
	known map[uint32]geom.MovingPoint
}

func newBatchStream(seed int64) *batchStream {
	return &batchStream{rng: rand.New(rand.NewSource(seed)), known: map[uint32]geom.MovingPoint{}}
}

// report replaces the object's report with a fresh random one.
func (s *batchStream) report(t *testing.T, tr *Tree, oid uint32) {
	t.Helper()
	if old, ok := s.known[oid]; ok {
		if _, err := tr.Delete(oid, old, s.now); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.MovingPoint{
		Pos:  geom.Vec{s.rng.Float64() * 1000, s.rng.Float64() * 1000},
		Vel:  geom.Vec{s.rng.Float64()*6 - 3, s.rng.Float64()*6 - 3},
		TExp: s.now + 40,
	}
	if err := tr.Insert(oid, p, s.now); err != nil {
		t.Fatal(err)
	}
	s.known[oid] = tr.Stored(p)
}

// batch applies size reports of random objects among the first objects
// ids as one operation.
func (s *batchStream) batch(t *testing.T, tr *Tree, objects, size int) {
	t.Helper()
	s.now += 50 * float64(size) / float64(objects)
	tr.BeginBatch()
	for i := 0; i < size; i++ {
		s.report(t, tr, uint32(s.rng.Intn(objects)))
	}
	if err := tr.EndBatch(); err != nil {
		t.Fatal(err)
	}
}

type storedRecord struct {
	oid uint32
	p   geom.MovingPoint
}

func storedRecords(t *testing.T, tr *Tree) []storedRecord {
	t.Helper()
	var out []storedRecord
	err := tr.Records(func(oid uint32, p geom.MovingPoint) error {
		out = append(out, storedRecord{oid, p})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStaleImagesSurviveStealing runs the batched stream over a pool of
// four pages, so dirty pages are stolen all the time while their image
// is stale, and requires the store — synced and reopened — to hold the
// same tree, record for record in walk order, as a twin run whose pool
// never evicts.
func TestStaleImagesSurviveStealing(t *testing.T) {
	const objects, batchSize, batches = 5000, 25, 600
	run := func(t *testing.T, store storage.Store, pool int) *Tree {
		cfg := rexpConfig()
		cfg.BufferPages = pool
		tr, err := New(cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		s := newBatchStream(17)
		for i := 0; i < batches; i++ {
			s.batch(t, tr, objects, batchSize)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	twin := run(t, storage.NewMemStore(), 4096)
	if st := twin.IOStats(); st.Evictions != 0 {
		t.Fatalf("the twin's pool evicted %d pages; it must hold the whole tree", st.Evictions)
	}
	want := storedRecords(t, twin)

	stores := map[string]func(t *testing.T) (store storage.Store, reopen func() storage.Store){
		"mem": func(t *testing.T) (storage.Store, func() storage.Store) {
			s := storage.NewMemStore()
			return s, func() storage.Store { return s }
		},
		"file": func(t *testing.T) (storage.Store, func() storage.Store) {
			path := filepath.Join(t.TempDir(), "idx.db")
			s, err := storage.CreateFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			return s, func() storage.Store {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := storage.OpenFileStore(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { re.Close() })
				return re
			}
		},
	}
	for name, mk := range stores {
		t.Run(name, func(t *testing.T) {
			store, reopen := mk(t)
			tr := run(t, store, 4)
			if st := tr.IOStats(); st.DirtyWritebacks == 0 {
				t.Fatal("no dirty page was stolen; the pool is too large for the test")
			}
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			cfg := tr.Config()
			re, err := Open(cfg, reopen())
			if err != nil {
				t.Fatal(err)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := storedRecords(t, re); !slices.Equal(got, want) {
				t.Fatalf("the reopened tree holds %d records, the twin %d, or they differ", len(got), len(want))
			}
			if re.Height() != twin.Height() || re.Size() != twin.Size() || re.LeafEntries() != twin.LeafEntries() {
				t.Fatalf("reopened height/pages/entries %d/%d/%d, twin %d/%d/%d",
					re.Height(), re.Size(), re.LeafEntries(), twin.Height(), twin.Size(), twin.LeafEntries())
			}
		})
	}
}

// TestMemoryTreeRendersImagesAtSync pins "I/O is counted, bytes are
// rendered at Sync": a tree over a MemStore has no page encoder, so its
// pool moves stale bytes, while a FileStore twin encodes at every
// write-back.  Fed the golden stream on a 10-page pool, the two must
// charge the same I/O throughout, hold the same page bytes after Sync,
// and the memory store must reopen to the tree that wrote it.
func TestMemoryTreeRendersImagesAtSync(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the 30 000-operation golden stream twice")
	}
	cfg := goldenTrees[3].cfg // near-optimal
	cfg.Dims, cfg.Seed, cfg.BufferPages = 2, 1, 10
	mem := storage.NewMemStore()
	file, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "twin.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var trees [2]*Tree
	for i, store := range []storage.Store{mem, file} {
		if trees[i], err = New(cfg, store); err != nil {
			t.Fatal(err)
		}
	}
	tr, twin := trees[0], trees[1]
	if !tr.imagesAtSync || twin.imagesAtSync {
		t.Fatalf("imagesAtSync: memory tree %v, file tree %v", tr.imagesAtSync, twin.imagesAtSync)
	}
	gen, err := workload.NewGenerator(goldenParams)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenOps; i++ {
		op, ok := gen.Next()
		if !ok {
			t.Fatalf("stream ended after %d operations", i)
		}
		for _, x := range trees {
			switch op.Kind {
			case workload.OpInsert:
				err = x.Insert(op.OID, op.Point, op.Time)
			case workload.OpDelete:
				_, err = x.Delete(op.OID, op.Point, op.Time)
			case workload.OpQuery:
				_, err = x.Search(op.Query, op.Time)
			}
			if err != nil {
				t.Fatalf("operation %d: %v", i, err)
			}
		}
		if (i+1)%1000 == 0 {
			if a, b := tr.IOStats(), twin.IOStats(); a != b {
				t.Fatalf("after %d operations the memory tree charged %+v, the file tree %+v", i+1, a, b)
			}
		}
	}
	if st := tr.IOStats(); st.DirtyWritebacks == 0 {
		t.Fatal("no dirty page was written back; the pool is too large for the test")
	}
	stale := 0
	for _, n := range tr.cache {
		if n.stale {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no node is waiting for its image; Sync has nothing to render")
	}
	for _, x := range trees {
		if err := x.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := tr.IOStats(), twin.IOStats(); a != b {
		t.Fatalf("after Sync the memory tree charged %+v, the file tree %+v", a, b)
	}
	got, want := make([]byte, storage.PageSize), make([]byte, storage.PageSize)
	for id := storage.PageID(0); ; id++ {
		gerr, werr := mem.ReadPage(id, got), file.ReadPage(id, want)
		if errors.Is(gerr, storage.ErrPageRange) && errors.Is(werr, storage.ErrPageRange) {
			break
		}
		if (gerr == nil) != (werr == nil) || (gerr == nil && !bytes.Equal(got, want)) {
			t.Fatalf("page %d: the memory store holds %v (%v), the file store %v (%v)", id, got[:16], gerr, want[:16], werr)
		}
	}

	re, err := Open(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := storedRecords(t, re), storedRecords(t, tr); !slices.Equal(got, want) {
		t.Fatalf("the reopened tree holds %d records, the live tree %d, or they differ", len(got), len(want))
	}
	if re.Height() != tr.Height() || re.Size() != tr.Size() {
		t.Fatalf("reopened height/pages %d/%d, live %d/%d", re.Height(), re.Size(), tr.Height(), tr.Size())
	}
}

// A page can be stolen in the middle of an insertion that has just
// overfilled its node.  Such a node has no page image; the page keeps
// the older one until the insertion has split or thinned the node and
// written it again.
func TestEncodePageSkipsOverfullNode(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	for i := 0; i < 10; i++ {
		p := geom.MovingPoint{Pos: geom.Vec{float64(i), 1}, TExp: geom.Inf()}
		if err := tr.Insert(uint32(i), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	kept := n.entries
	for len(n.entries) <= tr.lay.leafCap {
		n.entries = append(n.entries, kept[0])
	}
	n.stale = true
	buf := make([]byte, storage.PageSize)
	buf[0], buf[storage.PageSize-1] = 0xAA, 0xBB
	tr.encodePage(n.id, buf)
	if buf[0] != 0xAA || buf[storage.PageSize-1] != 0xBB || !n.stale {
		t.Fatal("an overfull node was encoded")
	}
	n.entries = kept
	tr.encodePage(n.id, buf)
	got, err := tr.lay.decode(n.id, buf)
	if err != nil || n.stale || !slices.Equal(got.entries, kept) {
		t.Fatalf("after thinning: stale %v, decoded %d entries (err %v), want %d", n.stale, len(got.entries), err, len(kept))
	}
}

// TestDirtyPageImagesAreCurrent is the checkpoint's view: under
// DeferFlush nothing is written between checkpoints, and the images
// DirtyPages hands out must decode to the nodes as they are now —
// every node written since the last checkpoint among them.
func TestDirtyPageImagesAreCurrent(t *testing.T) {
	cfg := rexpConfig()
	cfg.DeferFlush = true
	tr := newTestTree(t, cfg)
	s := newBatchStream(23)
	for round := 0; round < 4; round++ {
		for i := 0; i < 20; i++ {
			s.batch(t, tr, 3000, 100)
		}
		if w := tr.IOStats().Writes; round == 0 && w != 0 {
			t.Fatalf("%d pages written before the first checkpoint", w)
		}
		stale := map[storage.PageID]bool{}
		for id, n := range tr.cache {
			if n.stale {
				stale[id] = true
			}
		}
		if len(stale) == 0 {
			t.Fatal("no node is waiting for its image; the test exercises nothing")
		}
		if err := tr.StageMeta(); err != nil {
			t.Fatal(err)
		}
		images := 0
		err := tr.DirtyPages(func(id storage.PageID, data []byte) error {
			images++
			if id == metaPage {
				return nil
			}
			got, err := tr.lay.decode(id, data)
			if err != nil {
				return err
			}
			n := tr.cache[id]
			if n == nil || n.stale || n.level != got.level || !slices.Equal(n.entries, got.entries) {
				t.Errorf("round %d: the image of page %d does not decode to the node's current entries", round, id)
			}
			delete(stale, id)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(stale) != 0 {
			t.Fatalf("round %d: %d written nodes were not imaged", round, len(stale))
		}
		before := tr.IOStats().Writes
		if err := tr.FlushPool(); err != nil {
			t.Fatal(err)
		}
		if wrote := tr.IOStats().Writes - before; wrote != uint64(images) {
			t.Fatalf("round %d: the checkpoint imaged %d pages and wrote %d", round, images, wrote)
		}
	}
}

// TestBatchWritesEachDirtyPageOnce: inside a scope nothing reaches the
// store (the pool holds the whole tree, so nothing is stolen either);
// closing the scope writes every page the batch dirtied exactly once.
func TestBatchWritesEachDirtyPageOnce(t *testing.T) {
	cfg := rexpConfig()
	cfg.BufferPages = 4096
	tr := newTestTree(t, cfg)
	s := newBatchStream(29)
	for i := 0; i < 100; i++ {
		s.batch(t, tr, 5000, 100)
	}
	before := tr.IOStats()
	s.now += 1
	tr.BeginBatch()
	for i := 0; i < 100; i++ {
		s.report(t, tr, uint32(s.rng.Intn(5000)))
	}
	if got := tr.IOStats().Sub(before); got.Writes != 0 {
		t.Fatalf("%d pages written inside the scope", got.Writes)
	}
	dirty := 0
	if err := tr.DirtyPages(func(storage.PageID, []byte) error { dirty++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tr.EndBatch(); err != nil {
		t.Fatal(err)
	}
	got := tr.IOStats().Sub(before)
	if dirty < 20 || got.Writes != uint64(dirty) || got.Reads != 0 {
		t.Fatalf("a 100-report batch dirtied %d pages and cost %d writes, %d reads; want one write per dirty page (>= 20) and no read", dirty, got.Writes, got.Reads)
	}
	// Nothing is owed after the scope.
	if err := tr.FlushPool(); err != nil {
		t.Fatal(err)
	}
	if again := tr.IOStats().Sub(before).Writes; again != got.Writes {
		t.Fatalf("a flush after the scope wrote %d more pages", again-got.Writes)
	}
}

// TestUnscopedIOPinned replays a fixed stream of core calls outside any
// batch scope — what internal/experiments and every paper figure do —
// and pins the pool's counters to what they were when every writeNode
// still encoded its page and Flush ranged over all frames: each call
// flushes at its end, and hits, misses, evictions and write-backs are
// charged exactly as before.
func TestUnscopedIOPinned(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Params{
		Seed: 9, Objects: 3000, Insertions: 12000, UI: 60, ExpT: 35, NewOb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rexpConfig()
	cfg.BufferPages = 10
	tr := newTestTree(t, cfg)
	for i := 0; i < 12000; i++ {
		op, ok := gen.Next()
		if !ok {
			t.Fatalf("stream ended after %d operations", i)
		}
		switch op.Kind {
		case workload.OpInsert:
			err = tr.Insert(op.OID, op.Point, op.Time)
		case workload.OpDelete:
			_, err = tr.DeleteBySearch(op.OID, op.Point, op.Time)
		case workload.OpQuery:
			_, err = tr.Search(op.Query, op.Time)
		}
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	want := storage.Stats{Reads: 7685, Writes: 24088, Hits: 82862, Evictions: 7724, DirtyWritebacks: 22}
	if got := tr.IOStats(); got != want {
		t.Fatalf("pool counters %+v, want %+v", got, want)
	}
}
