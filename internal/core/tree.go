package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"rexptree/internal/epoch"
	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// Tree is the page-based index engine.  Mutating operations (Insert,
// Delete, bulk loading, Sync) require external exclusive locking; the
// read-only traversals (Search, Nearest, Records, the stats walks) may
// run concurrently with each other — the buffer pool and the clock are
// internally synchronized, and outside a mutation they read published
// versions only — but never concurrently with a mutation.  The public
// rexptree package supplies that discipline with a reader/writer lock.
//
// Every page's decoded form is a vnode on its version chain (see
// snapshot.go); there is no other in-memory image.  Node rectangles are
// rounded to page (float32) precision when computed, so a version is
// always what decoding its up-to-date page would produce.  The buffer
// pool is consulted on every access so that I/O is charged exactly as
// if every node were read from its page, but a mutation writes the
// writer's copy only: the page's bytes fall behind until they leave the
// pool, when encodePage renders them from the columns.
type Tree struct {
	cfg Config
	lay layout
	bp  *storage.BufferPool
	met *obs.Metrics // nil when uninstrumented

	root   storage.PageID
	height int // number of levels; the root is at level height-1
	clk    clock
	rng    *rand.Rand

	// imagesAtSync is set for a tree over a bare MemStore without
	// DeferFlush; a wrapped one (a test store) keeps the encoder, like a
	// file store.  Nothing reads such a store's node pages but an Open
	// after Sync — every live page's newest version stays on its chain —
	// so the pool gets no encoder, and a pool without one lends the
	// store's own pages as its frames: it charges hits, misses,
	// write-backs and evictions as ever but moves no bytes, and Sync
	// renders every live node into the store itself.
	imagesAtSync bool

	// Self-tuning state (§4.2.3).
	leafEntries   int   // N: leaf entries physically stored
	nodesPerLevel []int // nodes per level, for per-level horizons
	insSinceTimer int
	timerStart    float64
	ui            float64 // 0 until the first estimate is available

	// Per-operation state: bit l is set once level l has had its forced
	// reinsertion (R*-tree: at most one per level per operation).
	reinsertedAt uint64

	// The locator (see locate): loc maps an object to the leaf holding
	// its newest entry, parent a page to the page holding its entry (the
	// root has none).  Both are writer-private, live in memory only and
	// are rebuilt by Open's walk; every place an entry or a child
	// pointer changes node maintains them (adopt where one arrives;
	// purgeNode, freeSubtree and freeNode where one leaves for good).
	// path and pathIDs are locate's scratch, descent insertOrphan's (a
	// delete's orphans are placed while its located path is in use).
	loc     map[uint32]storage.PageID
	parent  map[storage.PageID]storage.PageID
	path    []*vnode
	pathIDs []storage.PageID
	descent []*vnode

	// Reusable state of computeBR: the bounding-rectangle workspace,
	// the near-optimal kind's dimension order and the expiration
	// column; and the entry buffer split and forced reinsertion gather
	// a node into.
	ws         hull.Workspace
	order      [geom.MaxDims]int
	expScratch []float64
	gather     []entry

	// Overflow handling's working arrays, reused like gather: the
	// split's decision rectangles, sort order, prefix and suffix unions,
	// best order and its two groups (chooseSplit); forced reinsertion's
	// distances, order and the entries it moves out (pickReinsert); and
	// the orphans of the operation in progress (placeEntry, deleteAt).
	splitDR     []geom.TPRect
	splitOrder  []int
	splitPrefix []geom.TPRect
	splitSuffix []geom.TPRect
	splitBest   []int
	splitGroups []entry
	reinsDist   []float64
	reinsOrder  []int
	reinsMoved  []entry
	orphans     []orphan

	// Snapshot read path state (see snapshot.go).  pub is the
	// atomically published root descriptor, lastSeq its sequence;
	// chains the per-page version table (a dense slice indexed by
	// PageID, grown copy-on-write); dom the epoch domain readers pin.  The remaining fields are writer-private:
	// staged lists the chains the current operation gave a private copy
	// (or a tombstone), backlog the chains that still hold versions
	// older than their head, trimMin the minimum pinned sequence the
	// backlog was last trimmed at, spares the reclaimed versions whose
	// slabs the next copies are taken from (spareKeep of them at most,
	// its decay counted by spareAge), dropped the staged copies the
	// operation replaced, spares from its publication on; pubs the
	// descriptors a reader may still hold, oldest first, and freePubs
	// the reclaimed ones.
	pub       atomic.Pointer[pubState]
	lastSeq   atomic.Uint64
	chains    atomic.Pointer[[]atomic.Pointer[chain]]
	dom       *epoch.Domain
	staged    []*chain
	backlog   []*chain
	trimMin   uint64
	spares    []*vnode
	dropped   []*vnode
	spareKeep int
	spareAge  int
	pubs      []*pubState
	freePubs  []*pubState

	batchDepth       int
	pendingPub       bool
	pubSeq           uint64
	lastPublishNanos int64
}

// newTreeShell builds a Tree with its runtime machinery but no pages.
func newTreeShell(cfg Config, store storage.Store) *Tree {
	t := &Tree{
		cfg:    cfg,
		lay:    newLayout(cfg),
		bp:     storage.NewBufferPool(store, cfg.BufferPages),
		met:    cfg.Metrics,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		loc:    make(map[uint32]storage.PageID),
		parent: make(map[storage.PageID]storage.PageID),
		dom:    epoch.NewDomain(0),
	}
	empty := make([]atomic.Pointer[chain], 0)
	t.chains.Store(&empty)
	if _, mem := store.(*storage.MemStore); mem && !cfg.DeferFlush {
		t.imagesAtSync = true
	} else {
		t.bp.SetEncoder(t.encodePage)
	}
	if t.met != nil {
		t.bp.SetMetrics(t.met)
	}
	if cfg.DeferFlush {
		t.bp.SetNoSteal(true)
	}
	return t
}

// Metrics returns the attached instrument registry (nil when the tree
// is uninstrumented).
func (t *Tree) Metrics() *obs.Metrics { return t.met }

// SyncGauges pushes the tree's structural state (height, pages, leaf
// entries, buffered pages, UI and horizon estimates) into the metric
// gauges.  Call it before taking a snapshot; it is not needed on hot
// paths because gauges only matter at observation time.
func (t *Tree) SyncGauges() {
	if t.met == nil {
		return
	}
	t.met.Height.Set(int64(t.height))
	t.met.Pages.Set(int64(t.Size()))
	t.met.LeafEntries.Set(int64(t.leafEntries))
	t.met.BufResident.Set(int64(t.bp.Resident()))
	t.met.BufPoolPages.Set(int64(t.bp.Cap()))
	t.met.UI.Set(t.UI())
	t.met.Horizon.Set(t.metricH())
}

// BufferPoolPages returns the buffer pool's page capacity.
func (t *Tree) BufferPoolPages() int { return t.bp.Cap() }

// New creates an empty tree over the given (empty) store.  Use Open to
// load a store that already holds a Synced tree.
func New(cfg Config, store storage.Store) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := newTreeShell(cfg, store)
	if err := t.initMeta(); err != nil {
		return nil, err
	}
	root, err := t.allocNode(0)
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.root = root.id
	t.height = 1
	if err := t.bp.Pin(t.root); err != nil {
		return nil, err
	}
	t.publishOp()
	return t, nil
}

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Now returns the latest time the tree has observed.  It is an
// atomic read, safe without any lock, so concurrent queries can check
// expiration while an update advances the clock.
func (t *Tree) Now() float64 { return t.clk.Load() }

// Height returns the number of tree levels.
func (t *Tree) Height() int { return t.height }

// LeafEntries returns the number of leaf entries physically stored
// (live plus not-yet-purged expired ones).
func (t *Tree) LeafEntries() int { return t.leafEntries }

// Size returns the number of allocated pages — the index-size metric
// of the experiments (Figure 15).
func (t *Tree) Size() int { return t.bp.Store().Len() }

// IOStats returns the accumulated buffer-pool I/O counters.
func (t *Tree) IOStats() storage.Stats { return t.bp.Stats() }

// ResetIOStats zeroes the I/O counters.
func (t *Tree) ResetIOStats() { t.bp.ResetStats() }

// LeafCapacity returns the number of entries in a full leaf node.
func (t *Tree) LeafCapacity() int { return t.lay.leafCap }

// UI returns the current update-interval estimate (§4.2.3).
func (t *Tree) UI() float64 {
	if t.ui > 0 && !t.cfg.DisableAutoTune {
		return t.ui
	}
	return t.cfg.InitialUI
}

// W returns the assumed querying-window length.
func (t *Tree) W() float64 {
	if t.cfg.FixedW > 0 {
		return t.cfg.FixedW
	}
	return t.cfg.Beta * t.UI()
}

// metricH is the time horizon H = UI + W used by the insertion
// heuristics (§4.2.1).
func (t *Tree) metricH() float64 { return t.UI() + t.W() }

// brHorizon is the horizon used when computing the bounding rectangle
// of a node at the given level: the expected time until the rectangle
// is recomputed — UI scaled down by the number of leaf entries per
// node at this level — plus the querying window (§4.2.3).
func (t *Tree) brHorizon(level int) float64 {
	h := t.UI()
	if t.leafEntries > 0 && level < len(t.nodesPerLevel) && t.nodesPerLevel[level] > 0 {
		h *= float64(t.nodesPerLevel[level]) / float64(t.leafEntries)
	}
	return h + t.W()
}

// clock is the tree's monotonic time.  Only mutations advance it; it
// is atomic so that lock-free queries can read it while a writer does.
type clock struct{ bits atomic.Uint64 }

// Load returns the current time.
func (c *clock) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Store sets the clock unconditionally (used when loading persisted
// state).
func (c *clock) Store(v float64) { c.bits.Store(math.Float64bits(v)) }

// Advance moves the clock to v unless it is already later.
func (c *clock) Advance(v float64) {
	for {
		old := c.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Advance moves the tree clock forward (time never runs backwards).
// Every mutation advances it; a caller that moves the tree's contents
// into another tree carries the clock over with it.
func (t *Tree) Advance(now float64) { t.clk.Advance(now) }

// tickUI counts one insertion toward the update-interval estimate and
// refreshes the estimate every leaf-capacity insertions (§4.2.3).
func (t *Tree) tickUI() {
	t.insSinceTimer++
	b := t.lay.leafCap
	if t.insSinceTimer < b {
		return
	}
	if dt := t.Now() - t.timerStart; dt > 0 && t.leafEntries > 0 {
		t.ui = dt / float64(b) * float64(t.leafEntries)
	}
	t.timerStart = t.Now()
	t.insSinceTimer = 0
}

// prepare quantizes an incoming trajectory record to page precision
// and, when static bounding rectangles are in use, replaces an
// infinite expiration time by the trivial upper bound derived from the
// finite world extent (§2.1): a zero-velocity rectangle cannot bound a
// moving trajectory forever, but beyond its world-exit time the
// trajectory cannot match any in-world query.
func (t *Tree) prepare(p geom.MovingPoint) geom.MovingPoint {
	p = quantize(p, t.cfg.Dims)
	if !t.cfg.ExpireAware {
		// The page format of a plain TPR-tree has no expiration field.
		p.TExp = math.Inf(1)
	}
	if t.cfg.BRKind == hull.KindStatic && t.cfg.ExpireAware && !geom.IsFinite(p.TExp) {
		if exit := geom.ExitTime(p, t.cfg.World, t.Now(), t.cfg.Dims); geom.IsFinite(exit) {
			p.TExp = float64(f32Up(exit))
		}
	}
	return p
}

// Stored returns the record exactly as the tree stores it: quantized
// to page precision, with any derived expiration bound applied.
// Callers that later delete the record should pass this form.
func (t *Tree) Stored(p geom.MovingPoint) geom.MovingPoint { return t.prepare(p) }

// expSource says where the effective expiration time of a node's
// entries comes from.  It depends only on the configuration and the
// node's level, so loops over a node resolve it once.
type expSource uint8

const (
	expNever   expSource = iota // the engine is not expiration-aware
	expStored                   // the time recorded in the entry
	expDerived                  // the time a shrinking rectangle's extent reaches zero (§4.1.1)
)

// expSource returns the source for entries stored at the given node
// level: the recorded time for leaf entries (and for internal entries
// when StoreBRExp is set), the derived expiration of shrinking
// rectangles otherwise.
func (t *Tree) expSource(level int) expSource {
	switch {
	case !t.cfg.ExpireAware:
		return expNever
	case level == 0 || t.cfg.StoreBRExp:
		return expStored
	}
	return expDerived
}

// expOf returns the expiration time of r as the engine's algorithms
// see it at time now.
func (t *Tree) expOf(r *geom.TPRect, src expSource, now float64) float64 {
	switch src {
	case expStored:
		return r.TExp
	case expDerived:
		return geom.DerivedExp(r, now, t.cfg.Dims)
	}
	return math.Inf(1)
}

// expAt is expOf for entry i of v, read from the columns.
func (t *Tree) expAt(v *vnode, i int, src expSource, now float64) float64 {
	switch src {
	case expStored:
		return v.texp[i]
	case expDerived:
		return v.derivedExp(i, now)
	}
	return math.Inf(1)
}

// expColumn returns the expiration times of v's entries as the engine's
// algorithms see them at time now: the texp column itself when the
// level records them, else the tree's scratch column filled in.
func (t *Tree) expColumn(v *vnode, src expSource, now float64) []float64 {
	if src == expStored {
		return v.texp
	}
	col := t.expScratch[:0]
	for i := 0; i < v.count; i++ {
		col = append(col, t.expAt(v, i, src, now))
	}
	t.expScratch = col
	return col
}

// effExp returns the effective expiration time of an entry stored at
// the given node level.
func (t *Tree) effExp(r *geom.TPRect, level int) float64 {
	return t.expOf(r, t.expSource(level), t.Now())
}

// expired reports whether entry i of v is dead at the tree's current
// time.
func (t *Tree) expired(v *vnode, i int) bool {
	now := t.Now()
	return t.expAt(v, i, t.expSource(v.level), now) < now
}

// decisionExp returns the expiration time the insertion heuristics use
// for an entry (Eq. 1): the effective expiration when AlgsUseExp is
// set, +Inf otherwise (§4.2.2).
func (t *Tree) decisionExp(r *geom.TPRect, level int) float64 {
	if !t.cfg.AlgsUseExp {
		return math.Inf(1)
	}
	return t.effExp(r, level)
}

// metricEnd returns the upper integration bound now+min(H, texp-now)
// of Eq. 1, texp the later expiration time of the two rectangles
// involved (pass one twice for a single rectangle).
func (t *Tree) metricEnd(texpA, texpB float64) float64 {
	now := t.Now()
	return clampEnd(now, now+t.metricH(), texpA, texpB)
}

// clampEnd is metricEnd with the clock and now+H passed in, for loops
// that read them once.
func clampEnd(now, horizon, texpA, texpB float64) float64 {
	end := horizon
	if m := max(texpA, texpB); m < end {
		end = m
	}
	if end < now {
		end = now
	}
	return end
}

// computeBR computes the bounding rectangle of a node's entries with
// the configured bounding-rectangle type.  This is the engine's hot
// spot — every node an update touches gets a new rectangle — so one
// pass sweeps the node's columns where they are, a leaf's as points,
// and the kind's finisher turns what it gathered into the rectangle.
func (t *Tree) computeBR(n *vnode) geom.TPRect {
	now := t.Now()
	t.ws.Reset(now, t.cfg.Dims)
	if texp := t.expColumn(n, t.expSource(n.level), now); n.level == 0 {
		t.ws.AddPoints(n.lo, n.vlo, texp)
	} else {
		t.ws.AddColumns(n.lo, n.hi, n.vlo, n.vhi, texp)
	}
	var br geom.TPRect
	switch t.cfg.BRKind {
	case hull.KindStatic:
		br = t.ws.Static(t.cfg.World)
	case hull.KindUpdateMinimum:
		br = t.ws.UpdateMinimum()
	case hull.KindNearOptimal:
		br = t.ws.NearOptimal(t.brHorizon(n.level), t.permDims())
	case hull.KindOptimal:
		br = t.ws.Optimal(t.brHorizon(n.level))
	default:
		br = t.ws.Conservative(n.vlo, n.vhi)
	}
	if !t.cfg.StoreBRExp {
		br.TExp = math.Inf(1)
	}
	return t.roundBR(br)
}

// permDims draws the random dimension order of a near-optimal
// rectangle (no dimension is preferred, §4.1.4) into t.order.  It takes
// from the generator exactly what rand.Perm takes, so the sequence of
// orders — and with it every rectangle — is a function of Config.Seed
// alone.
func (t *Tree) permDims() []int {
	m := t.order[:t.cfg.Dims]
	for i := range m {
		j := t.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// roundBR rounds a bounding rectangle outward to the float32 precision
// of the page format, so in-memory rectangles are identical to their
// decoded page image and outer bounds never tighten through round-off.
func (t *Tree) roundBR(r geom.TPRect) geom.TPRect {
	for i := 0; i < t.cfg.Dims; i++ {
		r.Lo[i] = float64(f32Down(r.Lo[i]))
		r.Hi[i] = float64(f32Up(r.Hi[i]))
		r.VLo[i] = float64(f32Down(r.VLo[i]))
		r.VHi[i] = float64(f32Up(r.VHi[i]))
	}
	if t.cfg.StoreBRExp {
		r.TExp = float64(f32Up(r.TExp))
	}
	return r
}

// readNode returns the writer's view of the page (see current),
// consulting the buffer pool first so that misses are charged as reads.
// The returned node may be a published version, which is immutable: a
// caller that mutates the page takes its private copy with own and must
// writeNode it before the operation ends (mutation requires the public
// tree's exclusive lock, which keeps concurrent locked readers out).  A
// page no version holds yet — only Open's walk reads one — is decoded
// from its bytes.
func (t *Tree) readNode(id storage.PageID) (*vnode, error) {
	buf, err := t.bp.Get(id)
	if err != nil {
		return nil, err
	}
	if v := t.current(id); v != nil {
		return v, nil
	}
	return t.lay.decode(id, buf)
}

// writeNode records that the node changed: its buffered page is marked
// dirty.  n must be the writer's private copy (own, allocNode).  The
// bytes are produced when the page leaves the pool (encodePage) — at
// the end of the operation, on eviction, or into a checkpoint image —
// or, for a tree with imagesAtSync, at the next Sync.  The pool is
// consulted exactly as if the page were rewritten here, so hits, misses
// and replacement order do not depend on when the encoding happens.
func (t *Tree) writeNode(n *vnode) error {
	if n.count > t.lay.cap(n.level) {
		return fmt.Errorf("core: node %d overflow: %d entries (cap %d)", n.id, n.count, t.lay.cap(n.level))
	}
	if _, err := t.bp.Get(n.id); err != nil {
		return err
	}
	return t.bp.MarkDirty(n.id)
}

// encodePage is the buffer pool's encoder, the one place a node turns
// into page bytes.  The pool calls it, under its mutex, on a dirty page
// whose bytes are about to be written or imaged, and it renders the
// writer's view of the page.  A page without a node (the metadata page)
// is left alone, and so is an overfull node: its page is being evicted
// in the middle of an insertion, which writes the node again once it
// has split or thinned it, so the page keeps its older image until then.
func (t *Tree) encodePage(id storage.PageID, buf []byte) {
	if v := t.current(id); v != nil && v.count <= t.lay.cap(v.level) {
		t.lay.encode(v, buf)
	}
}

// allocNode creates an empty node at the given level, the staged copy
// of its page from the start.
func (t *Tree) allocNode(level int) (*vnode, error) {
	id, _, err := t.bp.Allocate()
	if err != nil {
		return nil, err
	}
	for len(t.nodesPerLevel) <= level {
		t.nodesPerLevel = append(t.nodesPerLevel, 0)
	}
	t.nodesPerLevel[level]++
	n := t.newVnode(id, level, 0)
	t.stage(n)
	return n, nil
}

// freeNode releases the node's page; publication turns it into a
// tombstone version.
func (t *Tree) freeNode(n *vnode) error {
	if n.level < len(t.nodesPerLevel) {
		t.nodesPerLevel[n.level]--
	}
	delete(t.parent, n.id)
	t.stage(&vnode{id: n.id, freed: true})
	return t.bp.Free(n.id)
}

// freeSubtree deallocates the whole subtree rooted at the given page
// (paper §4.3: discarding an expired internal entry deallocates its
// subtree).  Reading the interior pages to find their children costs
// I/O, which is charged as usual.
func (t *Tree) freeSubtree(id storage.PageID, level int) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if n.level == 0 {
		t.leafEntries -= n.count
		for i := 0; i < n.count; i++ {
			if oid := n.oid(i); t.loc[oid] == n.id {
				delete(t.loc, oid)
			}
		}
		if t.met != nil {
			t.met.ExpiredPurged.Add(uint64(n.count))
		}
	} else {
		for i := 0; i < n.count; i++ {
			if err := t.freeSubtree(n.child(i), n.level-1); err != nil {
				return err
			}
		}
	}
	return t.freeNode(n)
}

// purgeNode drops the expired entries of n, the writer's copy,
// deallocating expired subtrees; entry order is kept.  Only a level
// whose entries record their expiration time can hold one: where they
// expire by derived time (§4.1.1), geom.DerivedExp never returns less
// than now, and a plain TPR-tree expires nothing.  The caller is
// responsible for writing the node afterwards and for handling a
// resulting underflow.
func (t *Tree) purgeNode(n *vnode) error {
	if t.expSource(n.level) != expStored {
		return nil
	}
	now := t.Now()
	dropped, freed := 0, 0
	for i := 0; i < n.count; {
		if !(n.texp[i] < now) {
			i++
			continue
		}
		dropped++
		if n.level == 0 {
			t.leafEntries--
			// An object that expired silently and was re-reported into
			// this same leaf keeps its locator entry: it belongs to the
			// live copy, not to the stale one leaving here.
			if oid := n.oid(i); t.loc[oid] == n.id && !t.holdsLive(n, oid, now) {
				delete(t.loc, oid)
			}
		} else {
			freed++
			if err := t.freeSubtree(n.child(i), n.level-1); err != nil {
				return err
			}
		}
		n.removeAt(i)
	}
	if t.met != nil && dropped > 0 {
		if n.level == 0 {
			t.met.ExpiredPurged.Add(uint64(dropped))
		}
		if freed > 0 {
			t.met.SubtreesFreed.Add(uint64(freed))
		}
	}
	return nil
}

// holdsLive reports whether leaf n holds an entry of oid live at now.
func (t *Tree) holdsLive(n *vnode, oid uint32, now float64) bool {
	for i := 0; i < n.count; i++ {
		if n.oid(i) == oid && !(n.texp[i] < now) {
			return true
		}
	}
	return false
}

// finishOp implements the paper's write-back policy: nodes modified
// during an operation are written at its end.  The operation is the
// outermost batch scope, or the single core call outside any scope:
// inside a scope nothing is done — the pool's dirty queue remembers
// what is owed — and EndBatch flushes once.  Under DeferFlush the
// write-ahead log carries durability and dirty pages stay buffered
// until the next checkpoint, so nothing is done either.
func (t *Tree) finishOp() error {
	if t.cfg.DeferFlush || t.batchDepth > 0 {
		return nil
	}
	return t.bp.Flush()
}

// setRoot repins the buffer frame of the root page.
func (t *Tree) setRoot(id storage.PageID) error {
	if err := t.bp.Unpin(t.root); err != nil {
		return err
	}
	t.root = id
	return t.bp.Pin(id)
}
