package core

import (
	"rexptree/internal/storage"

	"rexptree/internal/geom"
)

// Delete removes the stored record of object oid.  p must be the
// record previously inserted (the index routes the search for the leaf
// through bounding rectangles containing p's current position).  It
// returns false when no live matching entry exists — in particular
// when the entry has already expired, in which case the operation
// fails exactly as described in §4.3.
func (t *Tree) Delete(oid uint32, p geom.MovingPoint, now float64) (bool, error) {
	t.advance(now)
	p = t.prepare(p)
	path, idx, err := t.findLeaf(t.root, oid, p.At(t.Now()))
	if err != nil {
		return false, err
	}
	if path == nil {
		t.publishOp() // no-op unless a future findLeaf variant mutates
		return false, t.finishOp()
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.leafEntries--
	t.reinsertedAt = 0
	var orphans []orphan
	if err := t.propagateUp(path, &orphans); err != nil {
		return true, err
	}
	if err := t.drainOrphans(&orphans); err != nil {
		return true, err
	}
	if err := t.shrinkRoot(); err != nil {
		return true, err
	}
	t.publishOp()
	return true, t.finishOp()
}

// findLeaf performs the regular R-tree leaf search: depth-first down
// every live subtree whose bounding rectangle contains the object's
// current position, returning the loaded path and the entry index.
// Expired entries are invisible (§4.3).
func (t *Tree) findLeaf(id storage.PageID, oid uint32, target geom.Vec) ([]*node, int, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, 0, err
	}
	if n.level == 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if e.id == oid && !t.isExpired(&e.rect, 0) {
				return []*node{n}, i, nil
			}
		}
		return nil, 0, nil
	}
	for i := range n.entries {
		e := &n.entries[i]
		if t.isExpired(&e.rect, n.level) {
			continue
		}
		if !containsEps(e.rect.At(t.Now()), target, t.cfg.Dims) {
			continue
		}
		sub, idx, err := t.findLeaf(e.child(), oid, target)
		if err != nil {
			return nil, 0, err
		}
		if sub != nil {
			return append([]*node{n}, sub...), idx, nil
		}
	}
	return nil, 0, nil
}

// containsEps is point containment with a small relative tolerance
// that absorbs the round-off of evaluating float32 page coordinates at
// the current time.
func containsEps(r geom.Rect, p geom.Vec, dims int) bool {
	for i := 0; i < dims; i++ {
		eps := 1e-9 * (1 + abs(p[i]) + abs(r.Lo[i]) + abs(r.Hi[i]))
		if p[i] < r.Lo[i]-eps || p[i] > r.Hi[i]+eps {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
