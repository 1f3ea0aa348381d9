package core

import (
	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// Delete removes the stored record of object oid.  It returns false
// when no live entry of the object exists — in particular when the
// entry has already expired, in which case the operation fails exactly
// as described in §4.3.
//
// The leaf is found through the locator rather than by §4.3's search
// (DeleteBySearch): for a live entry the two agree — a bounding
// rectangle bounds a live entry through its expiration time, so the
// search cannot miss what the locator finds, and both skip expired
// entries — but the locator reads the height pages of one path where
// the search probes every subtree whose rectangle contains the old
// position.  p, the record previously inserted, is what the search is
// routed by; it is not read here.
func (t *Tree) Delete(oid uint32, p geom.MovingPoint, now float64) (bool, error) {
	t.advance(now)
	path, idx, err := t.locate(oid)
	return t.deleteAt(path, idx, err)
}

// DeleteBySearch is Delete with the leaf found by the paper's own
// algorithm (§4.3): the search whose I/O Figures 9–16 report, and the
// reference the locator is tested against.  p must be the record
// previously inserted (the index routes the search for the leaf through
// bounding rectangles containing p's current position).
func (t *Tree) DeleteBySearch(oid uint32, p geom.MovingPoint, now float64) (bool, error) {
	t.advance(now)
	p = t.prepare(p)
	path, idx, err := t.findLeaf(t.root, oid, p.At(t.Now()))
	return t.deleteAt(path, idx, err)
}

// deleteAt removes entry idx of the leaf that ends the loaded path and
// restores the tree's invariants (CondenseTree, §4.3).  A nil path is
// "no live entry found".
func (t *Tree) deleteAt(path []*node, idx int, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	if path == nil {
		return false, t.finishOp()
	}
	leaf := path[len(path)-1]
	delete(t.loc, leaf.entries[idx].id)
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

// locate returns what findLeaf returns — the loaded root-to-leaf path
// and the index of the object's live entry, or a nil path — without
// searching: the leaf comes from loc, its ancestors from parent, and
// the pages are read root first, so the buffer pool is charged exactly
// as for a descent that never takes a wrong turn.  The path is the
// tree's scratch, valid until the next locate.
func (t *Tree) locate(oid uint32) ([]*node, int, error) {
	id, ok := t.loc[oid]
	if !ok {
		return nil, 0, nil
	}
	h := t.height
	if cap(t.path) < h {
		t.path, t.pathIDs = make([]*node, h), make([]storage.PageID, h)
	}
	path, ids := t.path[:h], t.pathIDs[:h]
	for i := h - 1; i > 0; i-- {
		ids[i] = id
		id = t.parent[id]
	}
	if id != t.root {
		// The leaf does not hang off the root: an operation failed
		// between filling it and linking it in.  Its entries are as lost
		// to the locator as they are to the search.
		return nil, 0, nil
	}
	ids[0] = id
	for i, id := range ids {
		n, err := t.readNode(id)
		if err != nil {
			return nil, 0, err
		}
		path[i] = n
	}
	leaf := path[h-1]
	for i := range leaf.entries {
		e := &leaf.entries[i]
		if e.id == oid && !t.isExpired(&e.rect, 0) {
			return path, i, nil
		}
	}
	return nil, 0, nil
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
