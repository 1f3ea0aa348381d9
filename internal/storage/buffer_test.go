package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rexptree/internal/obs"
)

func TestBufferPoolReadYourWrites(t *testing.T) {
	bp := NewBufferPool(NewMemStore(), 4)
	id, data, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 42
	if err := bp.MarkDirty(id); err != nil {
		t.Fatal(err)
	}
	got, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatal("buffered write not visible")
	}
	if bp.Stats().Reads != 0 {
		t.Errorf("reads = %d, want 0 (allocation and hit only)", bp.Stats().Reads)
	}
}

// poolStores are the two ways a pool holds its pages: over a bare
// MemStore it lends the store's own pages as frames, over any other
// store (here a FileStore) it copies each page into a recycled frame.
// The pool tests that check page bytes run over both.
var poolStores = []struct {
	name string
	open func(t *testing.T) Store
}{
	{"lent", func(*testing.T) Store { return NewMemStore() }},
	{"copied", func(t *testing.T) Store {
		fs, err := CreateFileStore(t.TempDir() + "/pool.db")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs
	}},
}

func TestBufferPoolEvictionWritesBackDirty(t *testing.T) {
	for _, ps := range poolStores {
		open := ps.open
		t.Run(ps.name, func(t *testing.T) {
			bp := NewBufferPool(open(t), 2)
			a, dataA, _ := bp.Allocate()
			dataA[0] = 1
			bp.MarkDirty(a)
			b, dataB, _ := bp.Allocate()
			dataB[0] = 2
			bp.MarkDirty(b)
			// Third allocation evicts the LRU page (a).
			c, _, _ := bp.Allocate()
			_ = c
			if bp.Resident() != 2 {
				t.Fatalf("resident = %d", bp.Resident())
			}
			if bp.Stats().Writes != 1 {
				t.Fatalf("writes = %d, want 1 (evicted dirty page)", bp.Stats().Writes)
			}
			// Re-reading a must come from the store with the written content.
			got, err := bp.Get(a)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != 1 {
				t.Fatal("dirty page lost on eviction")
			}
			if bp.Stats().Reads != 1 {
				t.Errorf("reads = %d, want 1 (miss on a)", bp.Stats().Reads)
			}
		})
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	store := NewMemStore()
	// Pre-create pages directly in the store.
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := store.Allocate()
		ids = append(ids, id)
	}
	bp := NewBufferPool(store, 2)
	bp.Get(ids[0])
	bp.Get(ids[1])
	bp.Get(ids[0]) // 0 is now MRU; 1 is LRU
	bp.Get(ids[2]) // evicts 1
	if _, ok := bp.frames[ids[1]]; ok {
		t.Fatal("LRU page 1 not evicted")
	}
	if _, ok := bp.frames[ids[0]]; !ok {
		t.Fatal("MRU page 0 was evicted")
	}
}

func TestBufferPoolPinnedNeverEvicted(t *testing.T) {
	store := NewMemStore()
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, _ := store.Allocate()
		ids = append(ids, id)
	}
	bp := NewBufferPool(store, 2)
	if err := bp.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if _, err := bp.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := bp.frames[ids[0]]; !ok {
		t.Fatal("pinned page was evicted")
	}
	// A pool where everything is pinned must error, not spin.
	bp2 := NewBufferPool(store, 1)
	bp2.Pin(ids[0])
	if _, err := bp2.Get(ids[1]); err == nil {
		t.Fatal("expected error when all frames pinned")
	}
	// Unpin allows progress again.
	bp2.Unpin(ids[0])
	if _, err := bp2.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolPinNesting(t *testing.T) {
	store := NewMemStore()
	id, _ := store.Allocate()
	bp := NewBufferPool(store, 1)
	bp.Pin(id)
	bp.Pin(id)
	if err := bp.Unpin(id); err != nil {
		t.Fatal(err)
	}
	// Still pinned once: a second page cannot enter a cap-1 pool.
	id2, _ := store.Allocate()
	if _, err := bp.Get(id2); err == nil {
		t.Fatal("nested pin ignored")
	}
	if err := bp.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id); err == nil {
		t.Fatal("unbalanced unpin accepted")
	}
}

func TestBufferPoolFlush(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 4)
	id, data, _ := bp.Allocate()
	data[7] = 9
	bp.MarkDirty(id)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 9 {
		t.Fatal("flush did not reach the store")
	}
	w := bp.Stats().Writes
	// Flushing again writes nothing: pages are clean.
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().Writes != w {
		t.Fatal("clean pages rewritten on second flush")
	}
}

func TestBufferPoolFreeDropsFrame(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 4)
	id, data, _ := bp.Allocate()
	data[0] = 5
	bp.MarkDirty(id)
	if err := bp.Free(id); err != nil {
		t.Fatal(err)
	}
	if bp.Resident() != 0 {
		t.Fatal("freed page still resident")
	}
	if store.Len() != 0 {
		t.Fatal("freed page still allocated in store")
	}
	if bp.Stats().Writes != 0 {
		t.Fatal("freed dirty page was written back")
	}
	// Freeing a pinned page must fail.
	id2, _, _ := bp.Allocate()
	bp.Pin(id2)
	if err := bp.Free(id2); err == nil {
		t.Fatal("freed a pinned page")
	}
}

func TestBufferPoolStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4, Hits: 100, Evictions: 8, DirtyWritebacks: 5}
	b := Stats{Reads: 3, Writes: 1, Hits: 40, Evictions: 2, DirtyWritebacks: 1}
	d := a.Sub(b)
	if d.Reads != 7 || d.Writes != 3 || d.Hits != 60 || d.Evictions != 6 || d.DirtyWritebacks != 4 {
		t.Errorf("Sub = %+v", d)
	}
	if a.IO() != 14 {
		t.Errorf("IO = %d", a.IO())
	}
}

// TestBufferPoolEvictionCounters distinguishes evictions from dirty
// writebacks: evicting a clean frame counts only an eviction, a dirty
// frame additionally counts a writeback.
func TestBufferPoolEvictionCounters(t *testing.T) {
	store := NewMemStore()
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := store.Allocate()
		ids = append(ids, id)
	}
	bp := NewBufferPool(store, 2)
	met := obs.New()
	var events []obs.Event
	met.Observer = obs.ObserverFunc(func(e obs.Event) { events = append(events, e) })
	bp.SetMetrics(met)

	// Clean evictions: reading 3 pages through a cap-2 pool evicts one
	// clean frame, no writeback.
	for _, id := range ids {
		if _, err := bp.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	s := bp.Stats()
	if s.Evictions != 1 || s.DirtyWritebacks != 0 {
		t.Fatalf("clean eviction: evictions=%d writebacks=%d, want 1/0", s.Evictions, s.DirtyWritebacks)
	}

	// Dirty eviction: dirty both resident pages, then touch the third
	// page again to force one dirty frame out.
	for _, f := range bp.frames {
		f.dirty = true
	}
	missing := ids[0] // ids[0] was the first one evicted above
	if _, err := bp.Get(missing); err != nil {
		t.Fatal(err)
	}
	s = bp.Stats()
	if s.Evictions != 2 || s.DirtyWritebacks != 1 {
		t.Fatalf("dirty eviction: evictions=%d writebacks=%d, want 2/1", s.Evictions, s.DirtyWritebacks)
	}

	// The obs registry mirrors the pool's own stats.
	snap := met.Snapshot()
	if snap.BufEvictions != s.Evictions || snap.BufDirtyWritebacks != s.DirtyWritebacks {
		t.Errorf("obs counters evictions=%d writebacks=%d, want %d/%d",
			snap.BufEvictions, snap.BufDirtyWritebacks, s.Evictions, s.DirtyWritebacks)
	}
	if snap.BufReads != s.Reads || snap.BufHits != s.Hits {
		t.Errorf("obs reads=%d hits=%d, want %d/%d", snap.BufReads, snap.BufHits, s.Reads, s.Hits)
	}

	// Events: 2 evictions, 1 dirty writeback, writeback announced
	// before its eviction, all at storage level -1.
	var ev, wb int
	for i, e := range events {
		if e.Level != -1 {
			t.Errorf("event %d level = %d, want -1", i, e.Level)
		}
		switch e.Kind {
		case obs.EvEviction:
			ev++
		case obs.EvDirtyWriteback:
			wb++
			if i+1 >= len(events) || events[i+1].Kind != obs.EvEviction {
				t.Error("dirty writeback not followed by its eviction event")
			}
		}
	}
	if ev != 2 || wb != 1 {
		t.Errorf("events: %d evictions, %d writebacks, want 2/1", ev, wb)
	}
}

// lruModel is the reference the pool must match after every call: the
// resident pages with their dirty flags and pin counts, the unpinned
// ones in order of last use, and the counters exact LRU replacement
// charges.  An eviction drops the least recently used unpinned page —
// under no-steal the least recently used clean one, and none at all
// (the pool overflows) when every unpinned page is dirty.
type lruModel struct {
	cap     int
	noSteal bool
	dirty   map[PageID]bool // one key per resident page
	pins    map[PageID]int
	order   []PageID // unpinned resident pages, most recently used first
	st      Stats
}

func sortedKeys[V any](m map[PageID]V) []PageID {
	ids := make([]PageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (m *lruModel) unlist(id PageID) {
	if i := slices.Index(m.order, id); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

func (m *lruModel) admit(id PageID) {
	for len(m.dirty) >= m.cap {
		i := len(m.order) - 1
		for m.noSteal && i >= 0 && m.dirty[m.order[i]] {
			i--
		}
		if i < 0 {
			break
		}
		victim := m.order[i]
		if m.dirty[victim] {
			m.st.Writes++
			m.st.DirtyWritebacks++
		}
		m.st.Evictions++
		m.order = slices.Delete(m.order, i, i+1)
		delete(m.dirty, victim)
	}
	m.dirty[id] = false
	m.order = slices.Insert(m.order, 0, id)
}

func (m *lruModel) get(id PageID) {
	if _, ok := m.dirty[id]; !ok {
		m.st.Reads++
		m.admit(id)
		return
	}
	m.st.Hits++
	if m.pins[id] == 0 {
		m.unlist(id)
		m.order = slices.Insert(m.order, 0, id)
	}
}

func (m *lruModel) pin(id PageID) {
	if _, ok := m.dirty[id]; !ok {
		m.st.Reads++
		m.admit(id)
	}
	m.pins[id]++
	m.unlist(id)
}

func (m *lruModel) unpin(id PageID) {
	if m.pins[id]--; m.pins[id] == 0 {
		delete(m.pins, id)
		m.order = slices.Insert(m.order, 0, id)
	}
}

func (m *lruModel) flush() {
	for id, d := range m.dirty {
		if d {
			m.st.Writes++
			m.dirty[id] = false
		}
	}
}

// check fails unless the pool holds exactly the model's pages, flags,
// pins, recency order and counters.
func (m *lruModel) check(t *testing.T, step int, bp *BufferPool) {
	t.Helper()
	same := len(bp.frames) == len(m.dirty)
	for id, f := range bp.frames {
		d, ok := m.dirty[id]
		same = same && ok && f.dirty == d && f.pins == m.pins[id]
	}
	if !same {
		t.Fatalf("step %d: resident pages %v, want %v (exact LRU)", step, sortedKeys(bp.frames), sortedKeys(m.dirty))
	}
	var order []PageID
	for f := bp.lru.next; f != &bp.lru; f = f.next {
		order = append(order, f.id)
	}
	if !slices.Equal(order, m.order) {
		t.Fatalf("step %d: recency order %v, want %v", step, order, m.order)
	}
	if st := bp.Stats(); st != m.st {
		t.Fatalf("step %d: counters %+v, want %+v", step, st, m.st)
	}
}

// TestBufferPoolRandomizedAgainstStore checks, through arbitrary
// interleavings of every pool call, under both the steal and the
// no-steal policy and over both poolStores, that page contents always
// match what a write-through oracle would hold and that the pool
// replaces pages by exact LRU: after each call its resident set,
// recency order and counters equal those of a brute-force reference
// model.
func TestBufferPoolRandomizedAgainstStore(t *testing.T) {
	for _, noSteal := range []bool{false, true} {
		name := "steal"
		if noSteal {
			name = "no-steal"
		}
		t.Run(name, func(t *testing.T) {
			for _, ps := range poolStores {
				open := ps.open
				t.Run(ps.name, func(t *testing.T) {
					const capacity = 4
					bp := NewBufferPool(open(t), capacity)
					bp.SetNoSteal(noSteal)
					m := &lruModel{cap: capacity, noSteal: noSteal, dirty: map[PageID]bool{}, pins: map[PageID]int{}}
					rng := rand.New(rand.NewSource(77))
					oracle := map[PageID][]byte{}
					var ids []PageID
					pick := func() PageID { return ids[rng.Intn(len(ids))] }
					for step := 0; step < 4000; step++ {
						switch op := rng.Intn(20); {
						case op < 4 || len(ids) == 0: // allocate
							id, data, err := bp.Allocate()
							if err != nil {
								t.Fatal(err)
							}
							m.admit(id)
							m.dirty[id] = true
							rng.Read(data)
							oracle[id] = append([]byte(nil), data...)
							ids = append(ids, id)
						case op < 12: // read and verify
							id := pick()
							data, err := bp.Get(id)
							if err != nil {
								t.Fatal(err)
							}
							m.get(id)
							if !bytes.Equal(data, oracle[id]) {
								t.Fatalf("step %d: page %d diverged from oracle", step, id)
							}
						case op < 14: // overwrite
							id := pick()
							data, err := bp.Get(id)
							if err != nil {
								t.Fatal(err)
							}
							m.get(id)
							rng.Read(data)
							if err := bp.MarkDirty(id); err != nil {
								t.Fatal(err)
							}
							m.dirty[id] = true
							oracle[id] = append([]byte(nil), data...)
						case op < 16: // pin, keeping one frame evictable
							id := pick()
							if m.pins[id] == 0 && len(m.pins) >= capacity-1 {
								continue
							}
							if err := bp.Pin(id); err != nil {
								t.Fatal(err)
							}
							m.pin(id)
						case op < 18: // unpin
							if len(m.pins) == 0 {
								continue
							}
							id := sortedKeys(m.pins)[rng.Intn(len(m.pins))]
							if err := bp.Unpin(id); err != nil {
								t.Fatal(err)
							}
							m.unpin(id)
						case op < 19: // free an unpinned page
							id := pick()
							if m.pins[id] > 0 {
								continue
							}
							if err := bp.Free(id); err != nil {
								t.Fatal(err)
							}
							delete(m.dirty, id)
							m.unlist(id)
							delete(oracle, id)
							ids = slices.DeleteFunc(ids, func(x PageID) bool { return x == id })
						default: // flush
							if err := bp.Flush(); err != nil {
								t.Fatal(err)
							}
							m.flush()
						}
						m.check(t, step, bp)
					}
					if m.st.Evictions == 0 || (!noSteal && m.st.DirtyWritebacks == 0) {
						t.Fatalf("the run must exercise eviction: %+v", m.st)
					}
				})
			}
		})
	}
}

// TestBufferPoolConcurrentReaders runs readers on one pool the way the
// shared-lock readers of a tree share it (Records, Validate, Stats):
// concurrent hits and misses, pins and counter reads, no writer.  Every
// byte read must match the store, and the counters must add up once the
// readers are done.  Run it under -race.
func TestBufferPoolConcurrentReaders(t *testing.T) {
	const pages, capacity, readers, steps = 64, 8, 4, 3000
	store := NewMemStore()
	want := make([][]byte, pages)
	for i := range want {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, PageSize)
		rand.New(rand.NewSource(int64(id))).Read(want[i])
		if err := store.WritePage(id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(store, capacity)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var seen uint64
			for i := 0; i < steps; i++ {
				// Skewed towards a few hot pages, so both hits and
				// misses are frequent.
				id := PageID(rng.Intn(1 + rng.Intn(pages)))
				pin := rng.Intn(4) == 0
				if pin {
					if err := bp.Pin(id); err != nil {
						errs <- err
						return
					}
				}
				data, err := bp.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(data, want[id]) {
					errs <- fmt.Errorf("reader %d: page %d differs from the store", seed, id)
					return
				}
				if pin {
					if err := bp.Unpin(id); err != nil {
						errs <- err
						return
					}
				}
				st := bp.Stats()
				if st.Reads+st.Hits < seen {
					errs <- fmt.Errorf("reader %d: page requests went back from %d to %d", seed, seen, st.Reads+st.Hits)
					return
				}
				seen = st.Reads + st.Hits
			}
		}(int64(r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := bp.Stats()
	if st.Reads == 0 || st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("the readers must both hit and miss: %+v", st)
	}
	if res := bp.Resident(); uint64(res) != st.Reads-st.Evictions || res > capacity {
		t.Fatalf("%d pages resident after %d reads and %d evictions (capacity %d)", res, st.Reads, st.Evictions, capacity)
	}
	if st.Writes != 0 || st.DirtyWritebacks != 0 {
		t.Fatalf("readers alone caused writes: %+v", st)
	}
}

// writeLog is a MemStore that records the page id of every write.
type writeLog struct {
	*MemStore
	ids []PageID
}

func (s *writeLog) WritePage(id PageID, buf []byte) error {
	s.ids = append(s.ids, id)
	return s.MemStore.WritePage(id, buf)
}

// dirtyPage sets the page's first byte and marks it dirty.
func dirtyPage(t *testing.T, bp *BufferPool, id PageID, v byte) {
	t.Helper()
	data, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = v
	if err := bp.MarkDirty(id); err != nil {
		t.Fatal(err)
	}
}

func TestFlushAscendingOnePerDirtyPage(t *testing.T) {
	store := &writeLog{MemStore: NewMemStore()}
	bp := NewBufferPool(store, 16)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	store.ids = nil
	// Dirty out of order, some of them repeatedly.
	for _, i := range []int{6, 1, 4, 1, 6, 6, 3} {
		dirtyPage(t, bp, ids[i], byte(i))
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []PageID{ids[1], ids[3], ids[4], ids[6]}
	if !slices.Equal(store.ids, want) {
		t.Fatalf("flush wrote pages %v, want %v (ascending, once each)", store.ids, want)
	}
	// Nothing is owed now; a page dirtied again after the flush is
	// written again, once.
	store.ids = nil
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	dirtyPage(t, bp, ids[4], 9)
	for i := 0; i < 2; i++ {
		if err := bp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(store.ids, []PageID{ids[4]}) {
		t.Fatalf("after re-dirtying one flushed page the pool wrote %v, want [%d]", store.ids, ids[4])
	}
}

// The dirty queue keeps the ids of pages that were freed or written
// back by an eviction in the meantime, and a page id can come back
// (re-read, reallocated) and turn dirty again.  Whatever the history,
// a page is written only while a change of it is owed to the store (no
// double writes), a flush leaves nothing owed (no lost writes), and it
// writes in ascending page order.
func TestDirtyQueueSurvivesFreeAndEviction(t *testing.T) {
	store := &writeLog{MemStore: NewMemStore()}
	bp := NewBufferPool(store, 3)
	rng := rand.New(rand.NewSource(5))
	content := map[PageID]byte{} // live pages and their latest first byte
	owed := map[PageID]bool{}    // pages changed since they were last written
	settle := func(what string) {
		t.Helper()
		for _, id := range store.ids {
			if !owed[id] {
				t.Fatalf("%s wrote page %d, which had no unwritten change", what, id)
			}
			delete(owed, id)
		}
		store.ids = store.ids[:0]
	}
	var live []PageID
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			v := byte(1 + rng.Intn(250))
			dirtyPage(t, bp, id, v)
			content[id], owed[id] = v, true
			settle("an eviction")
		case r < 7 || len(live) == 0:
			id, _, err := bp.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
			content[id], owed[id] = 0, true
			settle("an eviction")
		case r < 8:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := bp.Free(id); err != nil {
				t.Fatal(err)
			}
			delete(content, id)
			delete(owed, id)
		case r < 9:
			var seen []PageID
			bp.DirtyPages(func(id PageID, data []byte) error {
				if !owed[id] || data[0] != content[id] {
					t.Fatalf("DirtyPages showed page %d holding %d: owed %v, want %d", id, data[0], owed[id], content[id])
				}
				seen = append(seen, id)
				return nil
			})
			if !slices.IsSorted(seen) || len(slices.Compact(seen)) != len(owed) {
				t.Fatalf("DirtyPages visited %v, want each of %v once in ascending order", seen, owed)
			}
		default:
			if err := bp.Flush(); err != nil {
				t.Fatal(err)
			}
			if !slices.IsSorted(store.ids) {
				t.Fatalf("flush wrote pages out of order: %v", store.ids)
			}
			settle("a flush")
			if len(owed) != 0 {
				t.Fatalf("flush left pages unwritten: %v", owed)
			}
			buf := make([]byte, PageSize)
			for id, v := range content {
				if err := store.ReadPage(id, buf); err != nil || buf[0] != v {
					t.Fatalf("after a flush page %d holds %d (err %v), want %d", id, buf[0], err, v)
				}
			}
		}
	}
	if st := bp.Stats(); st.DirtyWritebacks == 0 || st.Writes == st.DirtyWritebacks {
		t.Fatalf("the run must exercise both evictions and flushes: %+v", st)
	}
}

// A failed Flush leaves the unwritten pages owed; the retry writes
// those and only those, even when a page written before the failure
// was dirtied again in between.
func TestFlushRetriesAfterError(t *testing.T) {
	log := &writeLog{MemStore: NewMemStore()}
	fs := &FaultStore{Inner: log, FailWrites: true}
	bp := NewBufferPool(fs, 8)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _, _ := bp.Allocate()
		ids = append(ids, id)
		dirtyPage(t, bp, id, byte(10+i))
	}
	fs.Arm(3) // the third write fails
	if err := bp.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush error = %v, want the injected fault", err)
	}
	fs.Disarm()
	dirtyPage(t, bp, ids[0], 20)
	log.ids = nil
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := []PageID{ids[0], ids[2], ids[3]}; !slices.Equal(log.ids, want) {
		t.Fatalf("retry wrote %v, want %v", log.ids, want)
	}
}

// The encoder runs on a dirty page when its bytes leave the pool —
// flush, steal eviction, DirtyPages — and at no other time, and once
// per change: bytes DirtyPages encoded leave as they are until the
// page is marked dirty again.
func TestEncoderRunsWhenBytesLeave(t *testing.T) {
	store := NewMemStore()
	bp := NewBufferPool(store, 2)
	version := map[PageID]byte{}
	calls := 0
	bp.SetEncoder(func(id PageID, data []byte) {
		calls++
		data[1] = version[id]
	})
	a, _, _ := bp.Allocate()
	b, _, _ := bp.Allocate()
	version[a], version[b] = 1, 2
	if _, err := bp.Get(a); err != nil || calls != 0 {
		t.Fatalf("encoder ran %d times before any byte left the pool (err %v)", calls, err)
	}
	var seen []byte
	err := bp.DirtyPages(func(id PageID, data []byte) error {
		seen = append(seen, data[1])
		return nil
	})
	if err != nil || !bytes.Equal(seen, []byte{1, 2}) || calls != 2 {
		t.Fatalf("DirtyPages saw %v after %d encoder calls (err %v), want [1 2] after 2", seen, calls, err)
	}
	version[b] = 3
	if err := bp.MarkDirty(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bp.Allocate(); err != nil { // evicts b, the least recently used
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := store.ReadPage(b, buf); err != nil || buf[1] != 3 || calls != 3 {
		t.Fatalf("evicted page holds version %d after %d encoder calls (err %v), want 3 after 3", buf[1], calls, err)
	}
	version[a] = 4
	if err := bp.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.ReadPage(a, buf); err != nil || buf[1] != 4 || calls != 5 {
		t.Fatalf("flushed page holds version %d after %d encoder calls (err %v), want 4 after 5", buf[1], calls, err)
	}
	// Clean pages are never encoded.
	if _, err := bp.Get(b); err != nil {
		t.Fatal(err)
	}
	if err := bp.Flush(); err != nil || calls != 5 {
		t.Fatalf("encoder ran on clean pages: %d calls (err %v)", calls, err)
	}
}

// Over a bare MemStore the encoder decides whether frames are the
// store's own pages, so setting it once the pool holds a frame would
// leave lent buffers to be recycled for other pages: SetEncoder refuses.
func TestSetEncoderAfterUseOnMemStorePanics(t *testing.T) {
	bp := NewBufferPool(NewMemStore(), 2)
	if _, _, err := bp.Allocate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetEncoder on a MemStore pool holding a frame did not panic")
		}
	}()
	bp.SetEncoder(func(PageID, []byte) {})
}

// TestBufferPoolMissAllocs: once the pool is full, a miss takes the
// frame its eviction released (struct and buffer) and the LRU list is
// threaded through the frames, so a miss — with the dirty victim's
// write-back — allocates nothing.  Over a bare MemStore the frame's
// buffer is the store's page; over a FileStore the page is read into
// the recycled buffer.
func TestBufferPoolMissAllocs(t *testing.T) {
	for _, c := range poolStores {
		t.Run(c.name, func(t *testing.T) {
			const pages, capacity = 64, 8
			bp := NewBufferPool(c.open(t), capacity)
			var ids []PageID
			for i := 0; i < pages; i++ {
				id, _, err := bp.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			rng := rand.New(rand.NewSource(3))
			touch := func() {
				id := ids[rng.Intn(pages)]
				data, err := bp.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				data[0]++
				if err := bp.MarkDirty(id); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				touch()
			}
			before := bp.Stats()
			if allocs := testing.AllocsPerRun(500, touch); allocs != 0 {
				t.Errorf("a miss allocates %.2f objects, want 0", allocs)
			}
			if d := bp.Stats().Sub(before); d.Reads == 0 || d.DirtyWritebacks == 0 {
				t.Fatalf("the sample must miss and write back: %+v", d)
			}
		})
	}
}

// TestBufferPoolConcurrentReadersFileStore is TestBufferPoolConcurrentReaders
// over a FileStore, whose frames hold copies the pool recycles: a
// frame a reader did not pin may be refilled with another page by the
// next miss, so readers compare a page's bytes only under a pin (Get's
// contract) and otherwise just request it.  Run it under -race.
func TestBufferPoolConcurrentReadersFileStore(t *testing.T) {
	const pages, capacity, readers, steps = 64, 8, 4, 2000
	store, err := CreateFileStore(t.TempDir() + "/readers.db")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	want := make([][]byte, pages)
	for i := range want {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, PageSize)
		rand.New(rand.NewSource(int64(id))).Read(want[i])
		if err := store.WritePage(id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(store, capacity)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				id := PageID(rng.Intn(1 + rng.Intn(pages)))
				pin := rng.Intn(2) == 0
				if pin {
					if err := bp.Pin(id); err != nil {
						errs <- err
						return
					}
				}
				data, err := bp.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if pin {
					if !bytes.Equal(data, want[id]) {
						errs <- fmt.Errorf("reader %d: pinned page %d differs from the store", seed, id)
						return
					}
					if err := bp.Unpin(id); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := bp.Stats()
	if st.Reads == 0 || st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("the readers must both hit and miss: %+v", st)
	}
	if res := bp.Resident(); uint64(res) != st.Reads-st.Evictions || res > capacity {
		t.Fatalf("%d pages resident after %d reads and %d evictions (capacity %d)", res, st.Reads, st.Evictions, capacity)
	}
}
