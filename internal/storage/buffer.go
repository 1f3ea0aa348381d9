package storage

import (
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

// frame is one buffered page.  Frames are recycled: one that leaves
// the pool (evicted or freed) waits on the spare list for the next miss
// or Allocate, buffer included.
type frame struct {
	id    PageID
	data  []byte
	dirty bool
	// encoded is set once DirtyPages has run the encoder on the dirty
	// page and cleared by the next MarkDirty or write: until then the
	// bytes are the encoder's output and a flush writes them as they are.
	encoded bool
	pins    int
	// The LRU list's links: both nil while the frame is pinned, spare,
	// or otherwise off the list.
	prev, next *frame
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
// concurrently.
//
// A steady-state miss allocates nothing: the frame (struct and buffer)
// is the one its eviction released, and the LRU list is threaded
// through the frames.  So a slice returned by Get holds its page only
// while the page stays resident; once it is evicted the buffer may be
// refilled with another page.  A pool with no encoder over a bare
// MemStore lends instead: each frame's buffer is the store's own page,
// so a miss, a write-back and an Allocate are charged as ever but move
// no bytes, and a buffered change is in the store at once.
type BufferPool struct {
	mu       sync.Mutex
	store    Store
	mem      *MemStore // store, when it is a bare MemStore; see lent
	capacity int
	noSteal  bool
	frames   map[PageID]*frame
	lru      frame    // sentinel: lru.next is the most recently used unpinned frame, lru.prev the least
	spare    []*frame // frames released by eviction or Free, for reuse
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
	bp := &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
	bp.mem, _ = store.(*MemStore)
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// lent reports whether the pool's frames are the store's own pages: a
// bare MemStore with no encoder, whose bytes nothing renders, so there
// is nothing to keep apart from the store.
func (bp *BufferPool) lent() bool { return bp.mem != nil && bp.encode == nil }

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
// its own decoded copy in between.  Bytes DirtyPages encoded leave as
// they are unless the page is marked dirty again first, so an owner
// marks every change, also of a page that is already dirty.  fn runs
// under the pool's mutex and must not call back into the pool; a page
// it has nothing newer for it leaves alone.  Over a bare MemStore the
// encoder decides whether the pool lends the store's pages (see lent),
// so there it must be set before the pool holds a frame; SetEncoder
// panics otherwise.
func (bp *BufferPool) SetEncoder(fn func(id PageID, data []byte)) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.mem != nil && (len(bp.frames) > 0 || len(bp.spare) > 0) {
		panic("storage: SetEncoder on a MemStore pool that already holds frames")
	}
	bp.encode = fn
}

// ResetStats zeroes the I/O counters.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// Store returns the underlying page store.
func (bp *BufferPool) Store() Store { return bp.store }

// pushFront puts f on the LRU list as its most recently used frame.
func (bp *BufferPool) pushFront(f *frame) {
	f.prev, f.next = &bp.lru, bp.lru.next
	f.next.prev = f
	bp.lru.next = f
}

// unlink takes f off the LRU list.
func (bp *BufferPool) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

func (bp *BufferPool) touch(f *frame) {
	if f.next != nil && bp.lru.next != f {
		bp.unlink(f)
		bp.pushFront(f)
	}
}

// takeFrame returns a frame for page id, off every list and clean: a
// spare one when there is one, else a new one.  Its buffer is the
// store's page when the pool lends (which the caller then sets), else
// a PageSize buffer holding whatever it last held.
func (bp *BufferPool) takeFrame(id PageID) *frame {
	var f *frame
	if n := len(bp.spare); n > 0 {
		f = bp.spare[n-1]
		bp.spare = bp.spare[:n-1]
	} else {
		f = &frame{}
	}
	f.id = id
	if !bp.lent() && f.data == nil {
		f.data = make([]byte, PageSize)
	}
	return f
}

// release returns a frame that left the pool (or never entered it) to
// the spare list.  A lent buffer goes back to its store.
func (bp *BufferPool) release(f *frame) {
	f.dirty, f.encoded, f.pins = false, false, 0
	if bp.lent() {
		f.data = nil
	}
	bp.spare = append(bp.spare, f)
}

// errNoCleanFrame reports that a no-steal eviction pass found only
// dirty (or pinned) frames; the pool grows past its capacity instead of
// stealing, until the owner's next Flush makes them clean and the next
// miss trims them back.
var errNoCleanFrame = errors.New("storage: no clean frame to evict")

// evictOne writes back and drops the least recently used unpinned
// frame.  It returns an error if every frame is pinned.  Under the
// no-steal policy dirty frames are never evicted — a dirty page may
// only reach the store through an explicit Flush, so the on-disk state
// stays exactly the last checkpoint's; if no clean frame exists the
// pool grows past its capacity (errNoCleanFrame).
func (bp *BufferPool) evictOne() error {
	f := bp.lru.prev
	if bp.noSteal {
		for f != &bp.lru && f.dirty {
			f = f.prev
		}
		if f == &bp.lru {
			return errNoCleanFrame
		}
	}
	if f == &bp.lru {
		return fmt.Errorf("storage: buffer pool full of pinned pages (cap %d)", bp.capacity)
	}
	if !bp.noSteal && f.dirty {
		if err := bp.writeBack(f); err != nil {
			return err
		}
		bp.stats.DirtyWritebacks++
		if bp.met != nil {
			bp.met.BufDirtyWritebacks.Inc()
		}
	}
	bp.stats.Evictions++
	if bp.met != nil {
		bp.met.BufEvictions.Inc()
	}
	bp.unlink(f)
	delete(bp.frames, f.id)
	bp.release(f)
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
	bp.pushFront(f)
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
// the pages to the store, and it writes the bytes encoded here unless
// the page was marked dirty again in between, so a checkpoint encodes
// each page it images once.
func (bp *BufferPool) DirtyPages(fn func(id PageID, data []byte) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, id := range bp.pendingDirty() {
		f := bp.frames[id]
		bp.render(f)
		if err := fn(id, f.data); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the contents of the page, reading it from the store on a
// miss; a hit moves the page to the front of the LRU list.  The
// returned slice aliases the buffer frame and holds the page while it
// stays resident: read it before your next pool call, or pin the page.
// After an eviction the frame's buffer may hold another page.
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
	f := bp.takeFrame(id)
	if err := bp.readPage(f); err != nil {
		bp.release(f)
		return nil, err
	}
	bp.stats.Reads++
	if bp.met != nil {
		bp.met.BufReads.Inc()
	}
	if err := bp.admit(f); err != nil {
		bp.release(f)
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

// readPage fills the frame with its page from the store — a lending
// pool points it at the store's page — timing a uniform sample of reads
// into the io_read phase histogram when instrumented.  Caller holds
// bp.mu.
func (bp *BufferPool) readPage(f *frame) error {
	if bp.met == nil {
		return bp.fill(f)
	}
	if bp.ioReadN++; bp.ioReadN%ioSampleEvery != 0 {
		return bp.fill(f)
	}
	start := time.Now()
	err := bp.fill(f)
	bp.met.ObservePhase(obs.PhaseIORead, time.Since(start))
	return err
}

// fill is readPage's untimed body.
func (bp *BufferPool) fill(f *frame) error {
	if bp.lent() {
		data, err := bp.mem.page(f.id)
		f.data = data
		return err
	}
	return bp.store.ReadPage(f.id, f.data)
}

// writePage writes the frame to the store — for a lending pool, whose
// frame is the store's page, it only checks the page is live — timing a
// uniform sample of writes into the io_write phase histogram when
// instrumented.  Caller holds bp.mu.
func (bp *BufferPool) writePage(f *frame) error {
	if bp.met == nil {
		return bp.put(f)
	}
	if bp.ioWriteN++; bp.ioWriteN%ioSampleEvery != 0 {
		return bp.put(f)
	}
	start := time.Now()
	err := bp.put(f)
	bp.met.ObservePhase(obs.PhaseIOWrite, time.Since(start))
	return err
}

// put is writePage's untimed body.
func (bp *BufferPool) put(f *frame) error {
	if bp.lent() {
		_, err := bp.mem.page(f.id)
		return err
	}
	return bp.store.WritePage(f.id, f.data)
}

// render brings a dirty frame's bytes up to date with the encoder,
// unless DirtyPages already did and the page has not changed since.
// Caller holds bp.mu.
func (bp *BufferPool) render(f *frame) {
	if bp.encode != nil && !f.encoded {
		bp.encode(f.id, f.data)
		f.encoded = true
	}
}

// writeBack brings a dirty frame's bytes up to date and writes them to
// the store, leaving the frame clean.  Caller holds bp.mu.
func (bp *BufferPool) writeBack(f *frame) error {
	bp.render(f)
	if err := bp.writePage(f); err != nil {
		return err
	}
	f.dirty, f.encoded = false, false
	bp.stats.Writes++
	if bp.met != nil {
		bp.met.BufWrites.Inc()
	}
	return nil
}

// markDirty flags the frame and queues its page for the next Flush;
// bytes DirtyPages encoded are stale from now on.  Caller holds bp.mu.
func (bp *BufferPool) markDirty(f *frame) {
	f.encoded = false
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
	if f.next != nil {
		bp.unlink(f)
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
		bp.pushFront(f)
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
	f := bp.takeFrame(id)
	if bp.lent() {
		f.data = bp.mem.pages[id] // zeroed by the store
	} else {
		clear(f.data)
	}
	if err := bp.admit(f); err != nil {
		bp.release(f)
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
		if f.next != nil {
			bp.unlink(f)
		}
		delete(bp.frames, id)
		bp.release(f)
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
