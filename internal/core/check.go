package core

import (
	"fmt"
	"math"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// CheckInvariants validates the structural invariants of the tree.  It
// is intended for tests; it reads the whole tree (charging I/O).
//
// Checked invariants:
//   - levels decrease by one from parent to child and leaves sit at
//     level 0 (height balance);
//   - entry counts never exceed capacity, and non-root nodes hold at
//     least the minimum number of entries;
//   - every internal entry's bounding rectangle contains the contents
//     of its child for all times from now until the content expires
//     (bounded by the parent entry's own effective expiration);
//   - object ids are unique among live leaf entries (an expired entry
//     may coexist with a live one for the same object: §4.3's deletion
//     cannot see expired entries, so an object that expires before its
//     update leaves a stale copy behind until it is lazily purged);
//   - the maintained leaf-entry counter matches the actual count;
//   - the locator is exact: every live leaf entry's object is located
//     in its leaf, every located object has an entry (live, or expired
//     and not yet purged) in the leaf it is located in, every child
//     page's parent is the node holding its entry, and neither table
//     knows a page outside the tree (the root has no parent);
//   - every node is in page precision: decoding its page image gives
//     the node back, so each coordinate and expiration time is a
//     float32 value (the query filter's margin assumes it);
//   - the version chains are trimmed (see checkChains).
func (t *Tree) CheckInvariants() error {
	seen := make(map[uint32]bool)
	located := make(map[uint32]bool) // objects found in the leaf loc names
	leaves, nodes := 0, 0
	page := make([]byte, storage.PageSize)
	var walk func(id storage.PageID, level int, bound *geom.TPRect, boundExp float64) error
	walk = func(id storage.PageID, level int, bound *geom.TPRect, boundExp float64) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.level != level {
			return fmt.Errorf("node %d: level %d, expected %d", id, n.level, level)
		}
		if n.count > t.lay.cap(n.level) {
			return fmt.Errorf("node %d: %d entries exceed capacity %d", id, n.count, t.lay.cap(n.level))
		}
		if id != t.root && n.count < t.lay.min(n.level) {
			return fmt.Errorf("node %d (level %d): %d entries below minimum %d", id, n.level, n.count, t.lay.min(n.level))
		}
		nodes++
		t.lay.encode(n, page)
		if back, err := t.lay.decode(n.id, page); err != nil || !back.sameEntries(n) {
			return fmt.Errorf("node %d: not in page precision, its page image decodes to a different node (%v)", n.id, err)
		}
		for i := 0; i < n.count; i++ {
			e := n.entry(i)
			if n.level == 0 {
				leaves++
				at, ok := t.loc[e.id]
				if ok && at == id {
					located[e.id] = true
				}
				if !t.expired(n, i) {
					if seen[e.id] {
						return fmt.Errorf("duplicate live object id %d", e.id)
					}
					seen[e.id] = true
					if !ok || at != id {
						return fmt.Errorf("locator: live object %d is in leaf %d, located in %d (known: %v)", e.id, id, at, ok)
					}
				}
			} else if p, ok := t.parent[n.child(i)]; !ok || p != id {
				return fmt.Errorf("locator: page %d is a child of node %d, parent says %d (known: %v)", n.child(i), id, p, ok)
			}
			if bound != nil {
				if err := t.checkBounded(n, &e, bound, boundExp); err != nil {
					return err
				}
			}
			if n.level > 0 {
				if err := walk(n.child(i), n.level-1, &e.rect, t.effExp(&e.rect, n.level)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root, t.height-1, nil, math.Inf(1)); err != nil {
		return err
	}
	if leaves != t.leafEntries {
		return fmt.Errorf("leaf entry counter %d != actual %d", t.leafEntries, leaves)
	}
	// Every child's parent was checked on the way down; equal counts
	// leave no room for a stale entry, the root's included.
	if len(located) != len(t.loc) {
		return fmt.Errorf("locator: %d objects located, %d of them in a leaf holding their entry", len(t.loc), len(located))
	}
	if len(t.parent) != nodes-1 {
		return fmt.Errorf("locator: %d parent entries for %d non-root nodes", len(t.parent), nodes-1)
	}
	return t.checkChains()
}

// checkBounded verifies that the parent bound contains entry e of node
// n from now until the entry's effective expiration (or the parent
// entry's, whichever is earlier).  An entry already expired carries no
// containment promise, and neither does a rectangle that has shrunk
// through zero extent: it holds nothing live, but its derived
// expiration (§4.1.1) never lies before the clock.
func (t *Tree) checkBounded(n *vnode, e *entry, bound *geom.TPRect, boundExp float64) error {
	end := math.Min(t.effExp(&e.rect, n.level), boundExp)
	if !geom.IsFinite(end) || end > t.Now()+1000 {
		end = t.Now() + 1000
	}
	if end < t.Now() {
		return nil
	}
	for _, tt := range []float64{t.Now(), (t.Now() + end) / 2, end} {
		outer, inner := bound.At(tt), e.rect.At(tt)
		for i := 0; i < t.cfg.Dims; i++ {
			if inner.Lo[i] > inner.Hi[i] {
				return nil
			}
		}
		for i := 0; i < t.cfg.Dims; i++ {
			eps := 1e-5 * (1 + abs(inner.Lo[i]) + abs(inner.Hi[i]))
			if inner.Lo[i] < outer.Lo[i]-eps || inner.Hi[i] > outer.Hi[i]+eps {
				return fmt.Errorf("node %d (level %d): entry escapes parent bound at t=%.3f (dim %d: [%g,%g] outside [%g,%g])",
					n.id, n.level, tt, i, inner.Lo[i], inner.Hi[i], outer.Lo[i], outer.Hi[i])
			}
		}
	}
	return nil
}

// checkChains verifies the version chains and the spare list:
//   - a chain holding more than its head is on the backlog, which the
//     next publication trims;
//   - outside a batch scope, when the last publication found no reader
//     behind it (the minimum pinned sequence was its own), every chain
//     holds only its head;
//   - no version on the spare list is on a chain or staged, and no two
//     share a slab, so reusing one cannot overwrite what a reader or
//     the writer still reads.
func (t *Tree) checkChains() error {
	inUse := make(map[*vnode]bool)
	slabs := make(map[*float64]bool)
	note := func(v *vnode) {
		inUse[v] = true
		if len(v.slab) > 0 {
			slabs[&v.slab[0]] = true
		}
	}
	quiet := t.batchDepth == 0 && len(t.staged) == 0 && t.trimMin == t.pubSeq
	tbl := t.table()
	for id := range tbl {
		c := tbl[id].Load()
		if c == nil {
			continue
		}
		if c.staged != nil {
			note(c.staged)
		}
		head := c.head.Load()
		for v := head; v != nil; v = v.prev.Load() {
			note(v)
		}
		if head == nil || head.prev.Load() == nil {
			continue
		}
		if !c.backlogged {
			return fmt.Errorf("chains: page %d holds versions older than its head and is not on the backlog", id)
		}
		if quiet {
			return fmt.Errorf("chains: page %d holds versions older than its head though no reader was pinned at publication %d", id, t.pubSeq)
		}
	}
	for _, v := range t.spares {
		if inUse[v] || slabs[&v.slab[0]] {
			return fmt.Errorf("spares: the slab of a reclaimed version of page %d is still referenced by a chain, a staged copy or another spare", v.id)
		}
		note(v)
	}
	return nil
}
