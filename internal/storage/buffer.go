package storage

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rexptree/internal/obs"
)

// Stats counts the page traffic between a BufferPool and its Store.
type Stats struct {
	Reads           uint64 // pages read from the store (buffer misses)
	Writes          uint64 // pages written to the store
	Hits            uint64 // page requests served from the buffer
	Evictions       uint64 // frames evicted by LRU replacement
	DirtyWritebacks uint64 // evictions that had to write the frame back
}

// IO returns reads + writes, the combined I/O count.
func (s Stats) IO() uint64 { return s.Reads + s.Writes }

// Sub returns the traffic accumulated since the earlier snapshot o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:           s.Reads - o.Reads,
		Writes:          s.Writes - o.Writes,
		Hits:            s.Hits - o.Hits,
		Evictions:       s.Evictions - o.Evictions,
		DirtyWritebacks: s.DirtyWritebacks - o.DirtyWritebacks,
	}
}

type frame struct {
	id     PageID
	data   []byte
	dirty  bool
	pins   int
	lruPos *list.Element // nil while pinned (not on the LRU list)
}

// BufferPool caches up to cap pages of a Store with LRU replacement,
// as in the experimental setup of the paper (§5.1): 50 pages of 4 KiB,
// the tree root pinned, dirty pages written back on eviction or on
// explicit flush.  A page's owner may keep its contents in decoded form
// and register an encoder (SetEncoder): the pool calls it on a dirty
// page right before the bytes leave the pool, which are the only
// moments the bytes have to be current.
//
// One mutex guards every method, and every hit moves its frame to the
// front of the LRU list, so replacement is exact LRU and the miss
// counts are the paper's.  Queries never reach the pool (they read
// published page versions).  Its callers are the tree's writer, under
// the exclusive tree lock, and rexptree.Tree's shared-lock readers —
// ForEach, Validate, Stats and ResetIOStats — which may call it
// concurrently.  A slice returned by Get stays memory-safe
// after a concurrent eviction (the frame is dropped, not recycled), but
// its contents are only stable while no writer mutates the page — the
// tree lock guarantees that.
type BufferPool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	noSteal  bool
	frames   map[PageID]*frame
	lru      *list.List // front = most recently used; unpinned frames only
	stats    Stats
	met      *obs.Metrics // nil when uninstrumented

	// dirtyq holds the id of every page that turned from clean to dirty
	// since the last Flush, so Flush and DirtyPages cost what is dirty,
	// not what is resident.  Entries are not removed when a page is
	// written back by an eviction or freed, and such a page may turn
	// dirty again: pendingDirty drops the ids that are owed nothing and
	// the duplicates.
	dirtyq []PageID

	// encode, when set, brings a dirty page's bytes up to date; see
	// SetEncoder.
	encode func(id PageID, data []byte)

	// ioReadN and ioWriteN count store reads and writes for the 1-in-N
	// phase-timer sample (see ioSampleEvery).
	ioReadN, ioWriteN uint64
}

// NewBufferPool wraps store with a buffer of the given page capacity.
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
	}
}

// Stats returns the accumulated I/O counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// SetMetrics attaches (or with nil detaches) an instrument registry.
// The registry is forwarded to the underlying store when it supports
// metrics (a FaultStore counts its trips there).
func (bp *BufferPool) SetMetrics(m *obs.Metrics) {
	bp.met = m
	if s, ok := bp.store.(interface{ SetMetrics(*obs.Metrics) }); ok {
		s.SetMetrics(m)
	}
}

// SetEncoder registers fn as the pool's page encoder: it is called on a
// dirty page right before its bytes leave the pool — a Flush, the
// write-back of an eviction, the visit of DirtyPages — and nowhere
// else, so the owner of a page may let the buffered bytes fall behind
// its own decoded copy in between.  fn runs under the pool's mutex and
// must not call back into the pool; a page it has nothing newer for it
// leaves alone.  Set it before the pool is shared.
func (bp *BufferPool) SetEncoder(fn func(id PageID, data []byte)) { bp.encode = fn }

// ResetStats zeroes the I/O counters.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// Store returns the underlying page store.
func (bp *BufferPool) Store() Store { return bp.store }

func (bp *BufferPool) touch(f *frame) {
	if f.lruPos != nil {
		bp.lru.MoveToFront(f.lruPos)
	}
}

// errNoCleanFrame reports that a no-steal eviction pass found only
// dirty (or pinned) frames; the pool overflows instead of stealing.
var errNoCleanFrame = errors.New("storage: no clean frame to evict")

// evictOne writes back and drops the least recently used unpinned
// frame.  It returns an error if every frame is pinned.  Under the
// no-steal policy dirty frames are never evicted — a dirty page may
// only reach the store through an explicit Flush, so the on-disk state
// stays exactly the last checkpoint's; if no clean frame exists the
// pool overflows (errNoCleanFrame).
func (bp *BufferPool) evictOne() error {
	e := bp.lru.Back()
	if bp.noSteal {
		for e != nil && e.Value.(*frame).dirty {
			e = e.Prev()
		}
		if e == nil {
			return errNoCleanFrame
		}
	}
	if e == nil {
		return fmt.Errorf("storage: buffer pool full of pinned pages (cap %d)", bp.capacity)
	}
	f := e.Value.(*frame)
	if !bp.noSteal && f.dirty {
		if err := bp.writeBack(f); err != nil {
			return err
		}
		bp.stats.DirtyWritebacks++
		if bp.met != nil {
			bp.met.BufDirtyWritebacks.Inc()
			bp.met.Emit(obs.Event{Kind: obs.EvDirtyWriteback, Level: -1, N: 1})
		}
	}
	bp.stats.Evictions++
	if bp.met != nil {
		bp.met.BufEvictions.Inc()
		bp.met.Emit(obs.Event{Kind: obs.EvEviction, Level: -1, N: 1})
	}
	bp.lru.Remove(e)
	delete(bp.frames, f.id)
	return nil
}

func (bp *BufferPool) admit(f *frame) error {
	for len(bp.frames) >= bp.capacity {
		if err := bp.evictOne(); err != nil {
			if bp.noSteal && errors.Is(err, errNoCleanFrame) {
				break
			}
			return err
		}
	}
	bp.frames[f.id] = f
	f.lruPos = bp.lru.PushFront(f)
	return nil
}

// SetNoSteal selects the no-steal replacement policy (see evictOne).
// The write-ahead-logged tree enables it so page writes only happen at
// checkpoints.
func (bp *BufferPool) SetNoSteal(v bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.noSteal = v
}

// Overflow returns how many resident pages exceed the configured
// capacity — under no-steal, how much dirty state has piled up beyond
// the budget.  The tree uses it as a checkpoint trigger.
func (bp *BufferPool) Overflow() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if n := len(bp.frames) - bp.capacity; n > 0 {
		return n
	}
	return 0
}

// pendingDirty returns the ids of the dirty resident pages in ascending
// order, compacting the dirty queue to exactly those.  Caller holds
// bp.mu.
func (bp *BufferPool) pendingDirty() []PageID {
	slices.Sort(bp.dirtyq)
	q := bp.dirtyq[:0]
	for _, id := range bp.dirtyq {
		if n := len(q); n > 0 && q[n-1] == id {
			continue
		}
		if f, ok := bp.frames[id]; ok && f.dirty {
			q = append(q, id)
		}
	}
	bp.dirtyq = q
	return q
}

// DirtyPages calls fn for every dirty resident page in ascending page
// order, with the page's bytes brought up to date by the encoder.  The
// slice passed to fn aliases the frame; fn must not retain it.  Dirty
// flags are not cleared — Flush does that when the checkpoint writes
// the pages to the store.
func (bp *BufferPool) DirtyPages(fn func(id PageID, data []byte) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, id := range bp.pendingDirty() {
		f := bp.frames[id]
		if bp.encode != nil {
			bp.encode(id, f.data)
		}
		if err := fn(id, f.data); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the contents of the page, reading it from the store on a
// miss; a hit moves the page to the front of the LRU list.  The
// returned slice aliases the buffer frame: it is valid until the page
// is evicted, so callers must not retain it across other pool
// operations unless the page is pinned.
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.get(id)
}

func (bp *BufferPool) get(id PageID) ([]byte, error) {
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		if bp.met != nil {
			bp.met.BufHits.Inc()
		}
		bp.touch(f)
		return f.data, nil
	}
	f := &frame{id: id, data: make([]byte, PageSize)}
	if err := bp.readPage(id, f.data); err != nil {
		return nil, err
	}
	bp.stats.Reads++
	if bp.met != nil {
		bp.met.BufReads.Inc()
	}
	if err := bp.admit(f); err != nil {
		return nil, err
	}
	return f.data, nil
}

// ioSampleEvery is the 1-in-N sampling rate for the io_read/io_write
// phase timers.  Memory-backed stores serve a 4 KiB page in well under
// the clock readings' own cost, so timing every call on the miss path
// would cost more than the work being measured; uniform sampling keeps
// the latency distribution representative while bounding the timer
// overhead.  (Volume is counted exactly by rexp_buffer_reads_total /
// _writes_total; the phase histogram's _count is the sample count.)
const ioSampleEvery = 8

// readPage reads the page from the store, timing a uniform sample of
// reads into the io_read phase histogram when instrumented.  Caller
// holds bp.mu.
func (bp *BufferPool) readPage(id PageID, data []byte) error {
	if bp.met == nil {
		return bp.store.ReadPage(id, data)
	}
	if bp.ioReadN++; bp.ioReadN%ioSampleEvery != 0 {
		return bp.store.ReadPage(id, data)
	}
	start := time.Now()
	err := bp.store.ReadPage(id, data)
	bp.met.ObservePhase(obs.PhaseIORead, time.Since(start))
	return err
}

// writePage writes the page to the store, timing a uniform sample of
// writes into the io_write phase histogram when instrumented.  Caller
// holds bp.mu.
func (bp *BufferPool) writePage(id PageID, data []byte) error {
	if bp.met == nil {
		return bp.store.WritePage(id, data)
	}
	if bp.ioWriteN++; bp.ioWriteN%ioSampleEvery != 0 {
		return bp.store.WritePage(id, data)
	}
	start := time.Now()
	err := bp.store.WritePage(id, data)
	bp.met.ObservePhase(obs.PhaseIOWrite, time.Since(start))
	return err
}

// writeBack brings a dirty frame's bytes up to date and writes them to
// the store, leaving the frame clean.  Caller holds bp.mu.
func (bp *BufferPool) writeBack(f *frame) error {
	if bp.encode != nil {
		bp.encode(f.id, f.data)
	}
	if err := bp.writePage(f.id, f.data); err != nil {
		return err
	}
	f.dirty = false
	bp.stats.Writes++
	if bp.met != nil {
		bp.met.BufWrites.Inc()
	}
	return nil
}

// markDirty flags the frame and queues its page for the next Flush.
// Caller holds bp.mu.
func (bp *BufferPool) markDirty(f *frame) {
	if !f.dirty {
		f.dirty = true
		bp.dirtyq = append(bp.dirtyq, f.id)
	}
}

// MarkDirty records that the page's buffered contents differ from the
// store.  The page must be resident (obtained via Get or Allocate and
// not yet evicted); keeping it resident while mutating is the caller's
// responsibility (pin it or mark immediately after Get).
func (bp *BufferPool) MarkDirty(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: MarkDirty(%d): page not resident", id)
	}
	bp.markDirty(f)
	return nil
}

// Pin prevents the page from being evicted until a matching Unpin.
// Pins nest.
func (bp *BufferPool) Pin(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		if _, err := bp.get(id); err != nil {
			return err
		}
		f = bp.frames[id]
	}
	f.pins++
	if f.lruPos != nil {
		bp.lru.Remove(f.lruPos)
		f.lruPos = nil
	}
	return nil
}

// Unpin releases one pin on the page.
func (bp *BufferPool) Unpin(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		return fmt.Errorf("storage: Unpin(%d): page not pinned", id)
	}
	f.pins--
	if f.pins == 0 {
		f.lruPos = bp.lru.PushFront(f)
	}
	return nil
}

// Allocate obtains a fresh zeroed page from the store and installs it
// in the buffer as dirty, so creating a node costs no read I/O.
func (bp *BufferPool) Allocate() (PageID, []byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.store.Allocate()
	if err != nil {
		return InvalidPage, nil, err
	}
	f := &frame{id: id, data: make([]byte, PageSize)}
	if err := bp.admit(f); err != nil {
		return InvalidPage, nil, err
	}
	bp.markDirty(f)
	return id, f.data, nil
}

// Free drops the page from the buffer (without write-back) and
// releases it in the store.
func (bp *BufferPool) Free(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("storage: Free(%d): page is pinned", id)
		}
		if f.lruPos != nil {
			bp.lru.Remove(f.lruPos)
		}
		delete(bp.frames, id)
	}
	return bp.store.Free(id)
}

// Flush writes every dirty frame back to the store in ascending page
// order, leaving all pages resident.  Its cost follows the number of
// dirty pages, not the number of resident ones.  After an error the
// pages not yet written stay dirty and queued, so the next Flush
// retries them.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, id := range bp.pendingDirty() {
		if err := bp.writeBack(bp.frames[id]); err != nil {
			return err
		}
	}
	bp.dirtyq = bp.dirtyq[:0]
	return nil
}

// Cap returns the pool's page capacity.
func (bp *BufferPool) Cap() int { return bp.capacity }

// Resident returns the number of buffered pages (for tests).
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
