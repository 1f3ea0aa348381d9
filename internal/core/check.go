package core

import (
	"fmt"
	"math"
	"slices"

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
//   - outside a batch scope (nothing staged), each page's newest
//     published version is, column for column, the columnar copy of
//     its node: the query kernels read the version, not the node.
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
		if len(n.entries) > t.lay.cap(n.level) {
			return fmt.Errorf("node %d: %d entries exceed capacity %d", id, len(n.entries), t.lay.cap(n.level))
		}
		if id != t.root && len(n.entries) < t.lay.min(n.level) {
			return fmt.Errorf("node %d (level %d): %d entries below minimum %d", id, n.level, len(n.entries), t.lay.min(n.level))
		}
		nodes++
		if err := t.checkPage(n, page); err != nil {
			return err
		}
		for _, e := range n.entries {
			if n.level == 0 {
				leaves++
				at, ok := t.loc[e.id]
				if ok && at == id {
					located[e.id] = true
				}
				if !t.isExpired(&e.rect, 0) {
					if seen[e.id] {
						return fmt.Errorf("duplicate live object id %d", e.id)
					}
					seen[e.id] = true
					if !ok || at != id {
						return fmt.Errorf("locator: live object %d is in leaf %d, located in %d (known: %v)", e.id, id, at, ok)
					}
				}
			} else if p, ok := t.parent[e.child()]; !ok || p != id {
				return fmt.Errorf("locator: page %d is a child of node %d, parent says %d (known: %v)", e.child(), id, p, ok)
			}
			if bound != nil {
				if err := t.checkBounded(n, &e, bound, boundExp); err != nil {
					return err
				}
			}
			if n.level > 0 {
				br := e.rect
				if err := walk(e.child(), n.level-1, &br, t.effExp(&e.rect, n.level)); err != nil {
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
	return nil
}

// checkBounded verifies that the parent bound contains entry e of node
// n from now until the entry's effective expiration (or the parent
// entry's, whichever is earlier).  An entry already expired carries no
// containment promise, and neither does a rectangle that has shrunk
// through zero extent: it holds nothing live, but its derived
// expiration (§4.1.1) never lies before the clock.
func (t *Tree) checkBounded(n *node, e *entry, bound *geom.TPRect, boundExp float64) error {
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

// checkPage verifies that node n is in page precision — its page image
// decodes back to it — and, when no mutation is staged, that its newest
// published version is its columnar copy.  page is scratch space.
func (t *Tree) checkPage(n *node, page []byte) error {
	t.lay.encode(n, page)
	back, err := t.lay.decode(n.id, page)
	if err != nil {
		return err
	}
	if back.level != n.level || !slices.Equal(back.entries, n.entries) {
		return fmt.Errorf("node %d: not in page precision, its page image decodes to a different node", n.id)
	}
	if t.batchDepth > 0 || len(t.staged) > 0 {
		return nil
	}
	var want vnode
	want.copyNode(n, t.cfg.Dims)
	v := t.published(t.pub.Load(), n.id)
	if v == nil || v.level != want.level || v.count != want.count ||
		!slices.Equal(v.ids, want.ids) || !slices.Equal(v.texp, want.texp) ||
		!slices.Equal(v.lo, want.lo) || !slices.Equal(v.hi, want.hi) ||
		!slices.Equal(v.vlo, want.vlo) || !slices.Equal(v.vhi, want.vhi) {
		return fmt.Errorf("node %d: the published version differs from the node", n.id)
	}
	return nil
}
