package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
// run concurrently with each other — the buffer pool, the decoded-node
// cache and the clock are internally synchronized — but never
// concurrently with a mutation.  The public rexptree package supplies
// that discipline with a reader/writer lock.
type Tree struct {
	cfg Config
	lay layout
	bp  *storage.BufferPool
	met *obs.Metrics // nil when uninstrumented

	root   storage.PageID
	height int // number of levels; the root is at level height-1
	clk    clock
	rng    *rand.Rand

	// cache holds the decoded image of pages.  Node rectangles are
	// rounded to page (float32) precision when computed, so a cached
	// node is always bit-identical to what decoding its up-to-date page
	// would produce; the buffer pool is still consulted on every access
	// so that I/O is charged exactly as without the cache.  A mutation
	// writes the cached node only: the page's bytes fall behind
	// (node.stale) until they leave the pool, when encodePage renews
	// them.  cacheMu makes the map safe for the concurrent read-only
	// traversals the public tree's shared lock admits; two readers that
	// race to decode the same page store bit-identical nodes, so either
	// insert may win.
	cacheMu sync.RWMutex
	cache   map[storage.PageID]*node

	// imagesAtSync is set for a tree over a bare MemStore without
	// DeferFlush; a wrapped one (a LatencyStore, a test store) keeps
	// the encoder, like a file store.  Nothing reads such a store's node pages but an Open
	// after Sync — every node the tree has touched stays in its cache —
	// so the pool gets no encoder: it charges hits, misses, write-backs
	// and evictions as ever but moves stale bytes, and Sync renders every
	// stale node into the store itself.
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
	path    []*node
	pathIDs []storage.PageID
	descent []*node

	// Reusable state of computeBR: the near-optimal workspace and its
	// dimension order, and the item buffer of the other kinds.
	ws      hull.Workspace
	order   [geom.MaxDims]int
	scratch []geom.TPRect

	// Snapshot read path state (see snapshot.go).  pub is the
	// atomically published root descriptor; chains the per-page version
	// table (a dense slice indexed by PageID, grown copy-on-write);
	// dom the epoch domain readers pin; staged the pages the current
	// mutation touched, keyed by page id (nil marks a free).  The
	// remaining fields are writer-private.
	pub    atomic.Pointer[pubState]
	chains atomic.Pointer[[]atomic.Pointer[chain]]
	dom    *epoch.Domain
	staged map[storage.PageID]*node

	batchDepth       int
	pendingPub       bool
	pubSeq           uint64
	pubCount         uint64
	lastPublishNanos int64
	sweepScratch     []*chain
}

// newTreeShell builds a Tree with its runtime machinery but no pages.
func newTreeShell(cfg Config, store storage.Store) *Tree {
	t := &Tree{
		cfg:    cfg,
		lay:    newLayout(cfg),
		bp:     storage.NewBufferPool(store, cfg.BufferPages),
		met:    cfg.Metrics,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cache:  make(map[storage.PageID]*node),
		loc:    make(map[uint32]storage.PageID),
		parent: make(map[storage.PageID]storage.PageID),
		dom:    epoch.NewDomain(0),
		staged: make(map[storage.PageID]*node),
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

// RootBR returns a conservative time-parameterized bound over every
// entry currently stored in the tree — the union of the root node's
// entry rectangles, which is valid for all t >= the tree's current
// time — and ok=false when the tree is empty.  It reads only the root
// page (pinned in the buffer pool, so no I/O is charged) and is the
// retightening source for the sharded front-end's per-shard summaries.
// Like the other read-only traversals it may run concurrently with
// queries but not with a mutation.
func (t *Tree) RootBR() (br geom.TPRect, ok bool, err error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return geom.TPRect{}, false, err
	}
	if len(n.entries) == 0 {
		return geom.TPRect{}, false, nil
	}
	now := t.Now()
	br = n.entries[0].rect
	for i := 1; i < len(n.entries); i++ {
		br = geom.UnionConservative(br, n.entries[i].rect, now, t.cfg.Dims)
	}
	br.TExp = math.Inf(1)
	return br, true, nil
}

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

// InternalCapacity returns the number of entries in a full internal
// node.
func (t *Tree) InternalCapacity() int { return t.lay.innerCap }

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

// clock is the tree's monotonic time.  It is atomic so that query
// paths (which hold only a shared lock in the public tree) can read
// and advance it while racing with each other.
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

// advance moves the tree clock forward (time never runs backwards).
func (t *Tree) advance(now float64) { t.clk.Advance(now) }

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

// effExp returns the effective expiration time of an entry stored at
// the given node level.
func (t *Tree) effExp(r *geom.TPRect, level int) float64 {
	return t.expOf(r, t.expSource(level), t.Now())
}

// isExpired reports whether the entry (stored at the given node level)
// is dead at the tree's current time.
func (t *Tree) isExpired(r *geom.TPRect, level int) bool {
	now := t.Now()
	return t.expOf(r, t.expSource(level), now) < now
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
	end := t.Now() + t.metricH()
	if m := max(texpA, texpB); m < end {
		end = m
	}
	if end < t.Now() {
		end = t.Now()
	}
	return end
}

// computeBR computes the bounding rectangle of a node's entries with
// the configured bounding-rectangle type.  This is the engine's hot
// spot — every node an update touches gets a new rectangle — so the
// near-optimal kind reads the entries where they are.
func (t *Tree) computeBR(n *node) geom.TPRect {
	now, src := t.Now(), t.expSource(n.level)
	var br geom.TPRect
	if t.cfg.BRKind == hull.KindNearOptimal {
		t.ws.Reset(now, t.cfg.Dims)
		for i := range n.entries {
			r := &n.entries[i].rect
			t.ws.Add(r, t.expOf(r, src, now))
		}
		br = t.ws.NearOptimal(t.brHorizon(n.level), t.permDims())
	} else {
		if cap(t.scratch) < len(n.entries) {
			t.scratch = make([]geom.TPRect, 0, max(len(n.entries), t.lay.leafCap+1))
		}
		items := t.scratch[:len(n.entries)]
		for i := range n.entries {
			items[i] = n.entries[i].rect
			items[i].TExp = t.expOf(&items[i], src, now)
		}
		br = hull.Compute(t.cfg.BRKind, items, now, t.brHorizon(n.level), t.cfg.Dims, t.cfg.World, nil)
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

// readNode loads the node.  The buffer pool is consulted first so
// that misses are charged as reads; decoding is skipped when the
// node's image is cached.  The returned node is shared: a caller that
// mutates it must writeNode it before the operation ends (mutation
// requires the public tree's exclusive lock, which keeps concurrent
// readers out).
func (t *Tree) readNode(id storage.PageID) (*node, error) {
	return t.readNodeStats(id, nil)
}

// readNodeStats is readNode plus per-traversal page accounting: when
// st is non-nil, the buffer-pool hit or miss is tallied into it.  The
// pool is consulted first either way so buffered pages stay charged
// and LRU-ordered exactly as on the untraced path.
func (t *Tree) readNodeStats(id storage.PageID, st *TravStats) (*node, error) {
	var buf []byte
	var err error
	if st == nil {
		buf, err = t.bp.Get(id)
	} else {
		var hit bool
		buf, hit, err = t.bp.GetTracked(id)
		if err == nil {
			if hit {
				st.Hits++
			} else {
				st.Reads++
			}
		}
	}
	if err != nil {
		return nil, err
	}
	t.cacheMu.RLock()
	n, ok := t.cache[id]
	t.cacheMu.RUnlock()
	if ok {
		return n, nil
	}
	n, err = t.lay.decode(id, buf)
	if err != nil {
		return nil, err
	}
	t.cacheMu.Lock()
	t.cache[id] = n
	t.cacheMu.Unlock()
	return n, nil
}

// writeNode records that the node changed: its buffered page is marked
// dirty and its image stale.  The bytes are produced when the page
// leaves the pool (encodePage) — at the end of the operation, on
// eviction, or into a checkpoint image — or, for a tree with
// imagesAtSync, at the next Sync.  The pool is consulted exactly
// as if the page were rewritten here, so hits, misses and replacement
// order do not depend on when the encoding happens.
func (t *Tree) writeNode(n *node) error {
	if len(n.entries) > t.lay.cap(n.level) {
		return fmt.Errorf("core: node %d overflow: %d entries (cap %d)", n.id, len(n.entries), t.lay.cap(n.level))
	}
	if _, err := t.bp.Get(n.id); err != nil {
		return err
	}
	n.stale = true
	t.stageWrite(n)
	return t.bp.MarkDirty(n.id)
}

// encodePage is the buffer pool's encoder, the one place a node turns
// into page bytes.  The pool calls it, under its mutex, on a dirty page
// whose bytes are about to be written or imaged.  Pages without a stale
// node (the metadata page, a node read but not written) are left alone.
func (t *Tree) encodePage(id storage.PageID, buf []byte) {
	t.cacheMu.RLock()
	n := t.cache[id]
	t.cacheMu.RUnlock()
	t.render(n, buf)
}

// render encodes a stale node into buf and marks it current, reporting
// whether it did.  A node with nothing newer is left alone, and so is
// one that is overfull: its page is being evicted in the middle of an
// insertion, which writes the node again once it has split or thinned
// it, so the page keeps its older image until then.
func (t *Tree) render(n *node, buf []byte) bool {
	if n == nil || !n.stale || len(n.entries) > t.lay.cap(n.level) {
		return false
	}
	t.lay.encode(n, buf)
	n.stale = false
	return true
}

// allocNode creates an empty node at the given level.  The node is the
// cached image of its page from the start, so writing it later touches
// no map.
func (t *Tree) allocNode(level int) (*node, error) {
	id, _, err := t.bp.Allocate()
	if err != nil {
		return nil, err
	}
	for len(t.nodesPerLevel) <= level {
		t.nodesPerLevel = append(t.nodesPerLevel, 0)
	}
	t.nodesPerLevel[level]++
	n := &node{id: id, level: level}
	t.cacheMu.Lock()
	t.cache[id] = n
	t.cacheMu.Unlock()
	return n, nil
}

// freeNode releases the node's page.
func (t *Tree) freeNode(n *node) error {
	if n.level < len(t.nodesPerLevel) {
		t.nodesPerLevel[n.level]--
	}
	t.cacheMu.Lock()
	delete(t.cache, n.id)
	t.cacheMu.Unlock()
	delete(t.parent, n.id)
	t.stageFree(n.id)
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
		t.leafEntries -= len(n.entries)
		for i := range n.entries {
			if oid := n.entries[i].id; t.loc[oid] == n.id {
				delete(t.loc, oid)
			}
		}
		if t.met != nil {
			t.met.ExpiredPurged.Add(uint64(len(n.entries)))
		}
	} else {
		for _, e := range n.entries {
			if err := t.freeSubtree(e.child(), n.level-1); err != nil {
				return err
			}
		}
	}
	return t.freeNode(n)
}

// purgeNode drops the node's expired entries, deallocating expired
// subtrees.  It does nothing unless the engine is expiration-aware.
// The caller is responsible for writing the node afterwards and for
// handling a resulting underflow.
func (t *Tree) purgeNode(n *node) error {
	src := t.expSource(n.level)
	if src == expNever {
		return nil
	}
	now := t.Now()
	live := func(e *entry) bool { return !(t.expOf(&e.rect, src, now) < now) }
	liveCopy := func(es []entry, oid uint32) bool {
		for i := range es {
			if es[i].id == oid && live(&es[i]) {
				return true
			}
		}
		return false
	}
	// Most nodes an update touches hold nothing expired: find that out
	// without moving an entry.
	first := 0
	for first < len(n.entries) && live(&n.entries[first]) {
		first++
	}
	if first == len(n.entries) {
		return nil
	}
	keep := n.entries[:first]
	dropped, freed := 0, 0
	for i := first; i < len(n.entries); i++ {
		e := &n.entries[i]
		if live(e) {
			keep = append(keep, *e)
			continue
		}
		dropped++
		if n.level == 0 {
			t.leafEntries--
			// An object that expired silently and was re-reported into
			// this same leaf keeps its locator entry: it belongs to the
			// live copy, not to the stale one leaving here.
			if t.loc[e.id] == n.id && !liveCopy(keep, e.id) && !liveCopy(n.entries[i+1:], e.id) {
				delete(t.loc, e.id)
			}
		} else {
			freed++
			if err := t.freeSubtree(e.child(), n.level-1); err != nil {
				return err
			}
		}
	}
	n.entries = keep
	if t.met != nil {
		if n.level == 0 {
			t.met.ExpiredPurged.Add(uint64(dropped))
		}
		if freed > 0 {
			t.met.SubtreesFreed.Add(uint64(freed))
			t.met.Emit(obs.Event{Kind: obs.EvSubtreeFreed, Level: n.level, N: freed})
		}
		t.met.Emit(obs.Event{Kind: obs.EvPurge, Level: n.level, N: dropped})
	}
	return nil
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
