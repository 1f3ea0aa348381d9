package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rexptree/internal/epoch"
	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// This file is the tree's node store and its lock-free read path.
//
// A page's decoded form is a vnode, and its versions form a chain,
// newest first.  The writer never mutates a published version: the
// first mutation of a page in an operation copies the newest version's
// columns into a slab (own), every later one in the operation edits
// that private staged copy, and publish pushes the copy onto the chain
// as it is — no transposition, no second copy — then swaps in a new
// root descriptor (pubState) with one atomic store.  The writer's
// view of a page is its staged copy if the operation touched it, the
// newest version otherwise (current).
//
// Readers pin the published sequence in an epoch domain and traverse
// the chains without taking the tree's reader/writer lock or the
// buffer-pool mutex.  After each publication the writer cuts, on every
// chain it touched and on the backlog of chains that still hold older
// versions, every version below the newest one at or under the minimum
// pinned sequence.  No pinned reader can reach a cut version, so its
// slab is written again: the next staged copy is taken from it.  A
// tombstone, a chain head and a staged copy are never reused.
//
// Every traversal — the snapshot queries and the locked Search,
// SearchFunc and Nearest the paper's figures count — is one kernel over
// a nodeSource: the pinned snapshot's chains, or the writer's view read
// through the buffer pool, which charges the page I/O.  A region query
// tests entries with one predicate, geom.Compiled, compiled once per
// traversal: a leaf is one call that sweeps the lo/vlo/texp columns in
// the loop its shape picks, deciding almost every entry with
// multiplies, adds and compares and the rest with geom.Intersects's clip
// sequence — the same verdict bit for bit.
//
// New, Open and BulkLoad each publish before they return the tree, so
// a reader always finds a published descriptor.

// pubState is the atomically published root descriptor: everything a
// reader needs to start a traversal of one consistent tree snapshot.
type pubState struct {
	seq  uint64
	root storage.PageID
}

// chain is one page's slot: its published versions, newest first, and
// the writer-private state of the current operation.
type chain struct {
	head atomic.Pointer[vnode]

	// Writer-private: the operation's staged copy of the page (a
	// tombstone when it freed the page), and whether the chain is on the
	// backlog.
	staged     *vnode
	backlogged bool
}

// spareMin is the least number of reclaimed versions (and descriptors)
// kept for reuse; publish keeps up to twice the pages its operation
// staged, so the spare list holds a few operations' worth and no more.
const spareMin = 16

// table returns the current chain table.
func (t *Tree) table() []atomic.Pointer[chain] { return *t.chains.Load() }

// slot returns the page's chain, creating it — and growing the table
// copy-on-write — when the page has none.
func (t *Tree) slot(id storage.PageID) *chain {
	tbl := t.table()
	if int(id) >= len(tbl) {
		grown := make([]atomic.Pointer[chain], max(2*len(tbl), int(id)+1, 64))
		for i := range tbl {
			grown[i].Store(tbl[i].Load())
		}
		t.chains.Store(&grown)
		tbl = grown
	}
	c := tbl[id].Load()
	if c == nil {
		c = &chain{}
		tbl[id].Store(c)
	}
	return c
}

// chainOf returns the page's chain, nil when it has none.
func (t *Tree) chainOf(id storage.PageID) *chain {
	if tbl := t.table(); int(id) < len(tbl) {
		return tbl[id].Load()
	}
	return nil
}

// current returns the writer's view of the page: the operation's staged
// copy, else the newest published version; nil when the page holds no
// node (the metadata page, a freed page, a page no version holds yet).
// Only the writer and the locked readers call it.
func (t *Tree) current(id storage.PageID) *vnode {
	c := t.chainOf(id)
	if c == nil {
		return nil
	}
	v := c.staged
	if v == nil {
		v = c.head.Load()
	}
	if v == nil || v.freed {
		return nil
	}
	return v
}

// stage makes v the writer's view of its page until the next
// publication.
func (t *Tree) stage(v *vnode) {
	c := t.slot(v.id)
	if c.staged == nil {
		t.staged = append(t.staged, c)
	}
	c.staged = v
}

// own returns the writer's private copy of n's page, copying n's columns
// into a reclaimed slab the first time the operation mutates the page.
func (t *Tree) own(n *vnode) *vnode {
	c := t.slot(n.id)
	if s := c.staged; s != nil && !s.freed {
		return s
	}
	v := t.newVnode(n.id, n.level, n.count)
	v.copyFrom(n)
	t.stage(v)
	return v
}

// newVnode returns an empty node of the given level with room for at
// least capN entries, on a reclaimed version's slab when one is spare.
func (t *Tree) newVnode(id storage.PageID, level, capN int) *vnode {
	capN = max(capN, t.lay.cap(level)+1)
	k := len(t.spares) - 1
	if k < 0 || len(t.spares[k].slab) < slabNeed(level, capN, t.cfg.Dims) {
		return t.lay.newVnode(id, level, capN)
	}
	v := t.spares[k]
	t.spares[k] = nil
	t.spares = t.spares[:k]
	v.seq = 0
	v.prev.Store(nil)
	v.id = id
	v.cut(v.slab, level, capN, t.cfg.Dims)
	return v
}

// BeginBatch opens a batch scope: until the matching EndBatch the
// core operations inside it are one operation — their mutations become
// visible to snapshot readers atomically (an Update's delete+insert, a
// whole UpdateBatch), and each page they dirty is encoded and written
// back once, when the scope ends, however many of them touched it.
// Calls nest.  Requires the caller's exclusive lock, like every
// mutation.
func (t *Tree) BeginBatch() { t.batchDepth++ }

// EndBatch closes a BeginBatch scope.  Closing the outermost scope
// publishes the mutations staged inside it and then writes the dirty
// pages back.  A write-back error is returned with the unwritten pages
// still dirty, so the end of the next operation retries them.
func (t *Tree) EndBatch() error {
	if t.batchDepth > 0 {
		t.batchDepth--
	}
	if t.batchDepth > 0 {
		return nil
	}
	if t.pendingPub {
		t.publish()
	}
	return t.finishOp()
}

// publishOp is called at the end of every mutating core operation.
// Inside a batch it only marks the publication pending.
func (t *Tree) publishOp() {
	if len(t.staged) == 0 {
		return
	}
	if t.batchDepth > 0 {
		t.pendingPub = true
		return
	}
	t.publish()
}

// publish makes the staged mutations visible to snapshot readers: it
// pushes each staged copy (or tombstone) onto its page's chain, swaps in
// the new root descriptor, and reclaims the versions no pinned reader
// can still reach.  Single-writer: the caller holds the public tree's
// exclusive lock.
func (t *Tree) publish() {
	start := time.Now()
	t.pendingPub = false
	seq := t.pubSeq + 1
	t.pubSeq = seq
	for _, c := range t.staged {
		v := c.staged
		c.staged = nil
		v.seq = seq
		v.prev.Store(c.head.Load())
		c.head.Store(v)
	}

	// The swap: readers that load this descriptor are guaranteed to
	// find a version with seq <= t.pubSeq on every reachable chain,
	// because the chain pushes above happen before this store.  The
	// sequence readers pin is stored after it, so a reader that pins it
	// loads this descriptor or a newer one.
	p := t.newPubState()
	*p = pubState{seq: seq, root: t.root}
	t.pub.Store(p)
	t.pubs = append(t.pubs, p)
	t.lastSeq.Store(seq)

	// Reclaim: anything older than the newest version at or below the
	// minimum pinned sequence is unreachable by every present and
	// future reader (readers re-load the descriptor after pinning, so
	// a pin taken concurrently with this publication traverses at a
	// sequence >= what Min reports).  The backlog is trimmed again only
	// when the oldest pin has moved; a chain this publication pushed
	// onto joins it when a reader still holds an older version.
	min := t.dom.Min(seq)
	var trimmed uint64
	if min != t.trimMin {
		t.trimMin = min
		kept := t.backlog[:0]
		for _, c := range t.backlog {
			if t.trimChain(c, min, &trimmed) {
				kept = append(kept, c)
			} else {
				c.backlogged = false
			}
		}
		clear(t.backlog[len(kept):])
		t.backlog = kept
	}
	for _, c := range t.staged {
		if t.trimChain(c, min, &trimmed) && !c.backlogged {
			c.backlogged = true
			t.backlog = append(t.backlog, c)
		}
	}
	// A descriptor older than min is held by no reader either: a pinned
	// reader traverses the one it loaded after pinning, at or above min.
	k := 0
	for k < len(t.pubs)-1 && t.pubs[k].seq < min {
		k++
	}
	if k > 0 {
		t.freePubs = append(t.freePubs, t.pubs[:k]...)
		t.pubs = append(t.pubs[:0], t.pubs[k:]...)
	}
	t.freePubs = truncate(t.freePubs, spareMin)
	t.spares = truncate(t.spares, max(spareMin, 2*len(t.staged)))
	clear(t.staged)
	t.staged = t.staged[:0]
	t.lastPublishNanos = time.Since(start).Nanoseconds()
	if t.met != nil {
		t.met.SnapPublishes.Inc()
		if trimmed > 0 {
			t.met.SnapVersionsTrimmed.Add(trimmed)
		}
	}
}

// truncate drops the elements of s beyond the first n, for the GC.
func truncate[T any](s []*T, n int) []*T {
	if len(s) <= n {
		return s
	}
	clear(s[n:])
	return s[:n]
}

// newPubState returns a descriptor to publish, a reclaimed one when
// there is one.
func (t *Tree) newPubState() *pubState {
	k := len(t.freePubs) - 1
	if k < 0 {
		return new(pubState)
	}
	p := t.freePubs[k]
	t.freePubs = t.freePubs[:k]
	return p
}

// trimChain cuts every version strictly older than the newest version
// with seq <= min, counting them into *trimmed and keeping their slabs
// as spares; it reports whether the chain still holds more than its
// head.  The kept version's prev store is the only mutation concurrent
// readers can observe, and they only ever walk from the head to the
// newest version at or below their pinned sequence (>= min), so none
// reaches past the cut.
func (t *Tree) trimChain(c *chain, min uint64, trimmed *uint64) bool {
	head := c.head.Load()
	v := head
	for v != nil && v.seq > min {
		v = v.prev.Load()
	}
	if v == nil {
		return head.prev.Load() != nil
	}
	tail := v.prev.Load()
	if tail != nil {
		v.prev.Store(nil)
	}
	for tail != nil {
		next := tail.prev.Load()
		*trimmed++
		if !tail.freed && len(tail.slab) >= t.lay.slabLen() {
			t.spares = append(t.spares, tail)
		}
		tail = next
	}
	return v != head
}

// installSnapshots walks the whole tree and publishes a base version
// for every live page.  Open runs it so that a reopened tree's
// snapshot readers never miss a chain: after it, every page reachable
// from any published root has a version at or below the reader's
// pinned sequence.  The same walk rebuilds the locator, from the live
// leaf entries only: an expired copy left beside an object's live entry
// (§4.3) must not claim the object.
func (t *Tree) installSnapshots() error {
	err := t.walk(t.root, func(n *vnode) error {
		t.stage(n)
		if n.level > 0 {
			t.adopt(n, 0)
			return nil
		}
		for i := 0; i < n.count; i++ {
			if !t.expired(n, i) {
				t.loc[n.oid(i)] = n.id
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.publishOp()
	return nil
}

// SnapshotSeq returns the currently published snapshot sequence.
func (t *Tree) SnapshotSeq() uint64 { return t.lastSeq.Load() }

// LastPublishNanos returns the duration of the most recent version
// publication in nanoseconds.  Like all mutation state it is only
// meaningful under the caller's exclusive lock (the traced update path
// reads it right after the mutation it timed).
func (t *Tree) LastPublishNanos() int64 { return t.lastPublishNanos }

// pinSnapshot pins the published snapshot for a traversal.  The
// re-load after pinning is what makes the pin safe: a writer that
// published (and trimmed) between our first load and the slot store
// can only have reclaimed versions the re-loaded, newer descriptor no
// longer references — and our pinned (older) sequence keeps the
// writer's *next* trim conservative.
func (t *Tree) pinSnapshot() (*pubState, epoch.Pin) {
	pin := t.dom.Pin(t.lastSeq.Load())
	return t.pub.Load(), pin
}

// published returns the page's newest version at or below the pinned
// sequence, or nil when it has none (never published, or freed at that
// sequence).
func (t *Tree) published(p *pubState, id storage.PageID) *vnode {
	c := t.chainOf(id)
	if c == nil {
		return nil
	}
	for v := c.head.Load(); v != nil; v = v.prev.Load() {
		if v.seq <= p.seq {
			if v.freed {
				return nil
			}
			return v
		}
	}
	return nil
}

// Lookup returns the stored record of object oid: the locator names its
// leaf, and the record is read from that leaf's published version — no
// buffer-pool access, so no I/O is charged and the pool's mutex is not
// taken.  The leaf can hold two entries of the object, an expired one
// beside a live one, when the object was inserted twice without a
// deletion in between; Lookup returns the later-expiring, which is the
// live one whenever either is live at the tree clock.  ok
// is false when the index stores no entry of the object (never
// reported, deleted, or purged).  Lookup reads the locator, which only
// the writer changes, so it must not run concurrently with a mutation.
func (t *Tree) Lookup(oid uint32) (p geom.MovingPoint, ok bool) {
	id, located := t.loc[oid]
	if !located {
		return p, false
	}
	ps, pin := t.pinSnapshot()
	defer pin.Unpin()
	v := t.published(ps, id)
	if v == nil {
		return p, false
	}
	for i := 0; i < v.count; i++ {
		if v.oid(i) == oid && (!ok || v.texp[i] > p.TExp) {
			p, ok = v.point(i), true
		}
	}
	return p, ok
}

// nodeSource says where one traversal resolves its page ids (Tree.node):
// from the pinned snapshot's chains (snap set), or — for the locked
// traversals the paper's figures count — as the writer's view read
// through the buffer pool, which charges the page I/O.  It accumulates
// the traversal's accounting locally; Tree.flush folds it into the
// metrics once.  It holds no *Tree, so a caller's *TravStats does not
// escape with it.
type nodeSource struct {
	snap *pubState // nil: through the buffer pool
	root storage.PageID
	st   *TravStats

	nodes, leaves, hits, misses uint64
}

// snapSource pins the published snapshot and returns a source over it;
// the caller unpins when the traversal is done.
func (t *Tree) snapSource(st *TravStats) (nodeSource, epoch.Pin) {
	var pinStart time.Time
	if st != nil {
		pinStart = time.Now()
	}
	p, pin := t.pinSnapshot()
	if st != nil {
		st.PinNanos += time.Since(pinStart).Nanoseconds()
	}
	return nodeSource{snap: p, root: p.root, st: st}, pin
}

// poolSource returns a source that reads the writer's view through the
// buffer pool.
func (t *Tree) poolSource() nodeSource { return nodeSource{root: t.root} }

// node resolves one page of s and counts the visit.
func (t *Tree) node(s *nodeSource, id storage.PageID) (*vnode, error) {
	var v *vnode
	if s.snap == nil {
		var err error
		if v, err = t.readNode(id); err != nil {
			return nil, err
		}
	} else if v = t.published(s.snap, id); v != nil {
		s.hits++
	} else {
		s.misses++
		return nil, fmt.Errorf("core: page %d has no version at snapshot %d", id, s.snap.seq)
	}
	s.nodes++
	if v.level == 0 {
		s.leaves += uint64(v.count)
	}
	return v, nil
}

// flush folds the traversal's accounting into the metric counters and
// the per-traversal stats, so hot loops pay one atomic add per counter
// per query rather than one per node.
func (t *Tree) flush(s *nodeSource) {
	if st := s.st; st != nil {
		st.Nodes += s.nodes
		st.Leaves += s.leaves
		st.Hits += s.hits // chain hits are pages served without store I/O
		st.SnapHits += s.hits
		st.SnapMisses += s.misses
	}
	if t.met == nil {
		return
	}
	t.met.NodeVisits.Add(s.nodes)
	t.met.LeafScans.Add(s.leaves)
	if s.snap != nil {
		t.met.EpochPins.Inc()
		t.met.SnapNodeHits.Add(s.hits)
		t.met.SnapNodeMisses.Add(s.misses)
	}
}

// SearchSnap is Search on the snapshot read path: same query
// semantics, same results on a quiesced tree, but no tree lock and no
// pool mutex — safe to run concurrently with mutations.
func (t *Tree) SearchSnap(q geom.Query, now float64) ([]Result, error) {
	var out []Result
	err := t.SearchFuncSnapStats(q, now, nil, func(r Result) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

// SearchFuncSnapStats streams matching objects from the pinned
// snapshot, tallying the traversal's accounting into st (nil disables
// it).  Like SearchFunc it runs without heap allocations once warm.
func (t *Tree) SearchFuncSnapStats(q geom.Query, now float64, st *TravStats, fn func(Result) bool) error {
	src, pin := t.snapSource(st)
	defer pin.Unpin()
	return t.search(&src, q, now, fn)
}

// search is the region-query kernel.  It compiles the query once; per
// node it runs one columnar sweep of the expiration filter and the
// compiled trapezoid test: Compiled.Points over a leaf's columns,
// Compiled.Rect per internal entry.  With derived expiration times
// (§4.1.1) an internal entry the filter rejects over [T1, T2] is
// skipped before its expiration time is derived.  Expiration is judged
// at eval, the later of now and the tree's clock; the query leaves the
// clock where it was.
func (t *Tree) search(src *nodeSource, q geom.Query, now float64, fn func(Result) bool) error {
	defer t.flush(src)
	eval := max(t.Now(), now)
	dims := t.cfg.Dims
	useExp := t.cfg.ExpireAware
	c := geom.Compile(q, dims, useExp)
	sp := stackPool.Get().(*[]storage.PageID)
	stack := append((*sp)[:0], src.root)
	defer func() {
		*sp = stack[:0]
		stackPool.Put(sp)
	}()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, err := t.node(src, id)
		if err != nil {
			return err
		}
		if v.level == 0 {
			if !c.Points(v.lo, v.vlo, v.texp, eval, func(i int) bool {
				return fn(Result{OID: v.oid(i), Point: v.point(i)})
			}) {
				return nil
			}
			continue
		}
		exp := t.expSource(v.level)
		for i := 0; i < v.count; i++ {
			b := i * dims
			lo, hi, vlo, vhi := v.lo[b:b+dims], v.hi[b:b+dims], v.vlo[b:b+dims], v.vhi[b:b+dims]
			if exp == expDerived && c.Rejects(lo, hi, vlo, vhi) {
				continue // no expiration time can make it match: skip deriving one
			}
			texp := t.expAt(v, i, exp, eval)
			if useExp && texp < eval {
				continue
			}
			if c.Rect(lo, hi, vlo, vhi, texp) {
				stack = append(stack, v.child(i))
			}
		}
	}
	return nil
}

// ExportSnap streams every stored record — live and expired alike, like
// Records — from the pinned snapshot, without the tree lock or the pool
// mutex.  It is the scan primitive of the live reshard: the scan runs
// against one consistent publication while mutations keep landing on
// the tree.
func (t *Tree) ExportSnap(fn func(oid uint32, p geom.MovingPoint) error) error {
	src, pin := t.snapSource(nil)
	defer pin.Unpin()
	defer func() {
		src.nodes, src.leaves = 0, 0 // a scan is not a query: count its pin and chain hits only
		t.flush(&src)
	}()
	sp := stackPool.Get().(*[]storage.PageID)
	stack := append((*sp)[:0], src.root)
	defer func() {
		*sp = stack[:0]
		stackPool.Put(sp)
	}()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, err := t.node(&src, id)
		if err != nil {
			return err
		}
		for i := 0; i < v.count; i++ {
			if v.level > 0 {
				stack = append(stack, v.child(i))
			} else if err := fn(v.oid(i), v.point(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// NearestSnap is Nearest on the snapshot read path.
func (t *Tree) NearestSnap(q geom.Vec, at float64, k int, now float64) ([]Neighbor, error) {
	return t.NearestSnapStats(q, at, k, now, math.Inf(1), nil)
}

// NearestSnapStats is NearestSnap with a distance bound — no object
// farther than it is returned, and at most k no farther are — and the
// traversal's accounting tallied into st (nil disables it).  A sharded
// query passes the k-th distance of the shards it has already visited.
func (t *Tree) NearestSnapStats(q geom.Vec, at float64, k int, now, bound float64, st *TravStats) ([]Neighbor, error) {
	src, pin := t.snapSource(st)
	defer pin.Unpin()
	return t.nearest(&src, q, at, k, now, bound)
}
