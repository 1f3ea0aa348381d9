package core

import (
	"fmt"
	"math"
	"slices"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// orphan is an entry displaced during CondenseTree, remembered with
// the tree level it must be reinserted at (paper §4.3, step CT1).
type orphan struct {
	e     entry
	level int
}

// Insert adds (or re-adds after an update) the trajectory record of
// the object with the given id.  now is the current time; it must not
// run backwards.  The record is quantized to the float32 precision of
// the page format.
func (t *Tree) Insert(oid uint32, p geom.MovingPoint, now float64) error {
	t.Advance(now)
	p = t.prepare(p)
	t.reinsertedAt = 0
	t.leafEntries++
	t.tickUI()
	if err := t.placeEntry(orphan{e: entry{id: oid, rect: geom.PointTPRect(p)}, level: 0}); err != nil {
		return err
	}
	t.publishOp()
	return t.finishOp()
}

// placeEntry inserts an entry at its level and drains the resulting
// orphans — the shared tail of the insertion and deletion algorithms
// (CondenseTree, §4.3).
func (t *Tree) placeEntry(o orphan) error {
	t.orphans = t.orphans[:0]
	if err := t.insertOrphan(o, &t.orphans); err != nil {
		return err
	}
	if err := t.drainOrphans(&t.orphans); err != nil {
		return err
	}
	return t.shrinkRoot()
}

// drainOrphans reinserts displaced entries, highest level first
// (CT3).  Reinserting may displace further entries; the loop runs
// until the list is empty.
func (t *Tree) drainOrphans(orphans *[]orphan) error {
	for len(*orphans) > 0 {
		// Pop the orphan with the highest level; among equals, FIFO
		// (forced reinsertion appends closest-first, so this performs
		// the R*-tree's "close reinsert").
		best := 0
		for i, o := range *orphans {
			if o.level > (*orphans)[best].level {
				best = i
			}
		}
		o := (*orphans)[best]
		*orphans = append((*orphans)[:best], (*orphans)[best+1:]...)
		if t.met != nil {
			t.met.OrphansReinserted.Inc()
			t.met.Emit(obs.Event{Kind: obs.EvOrphanReinserted, Level: o.level, N: 1})
		}
		if err := t.insertOrphan(o, orphans); err != nil {
			return err
		}
	}
	return nil
}

// insertOrphan places one entry into a node at its level and
// propagates the structural consequences up the tree.
func (t *Tree) insertOrphan(o orphan, orphans *[]orphan) error {
	rootNode, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	if rootNode.count == 0 && rootNode.level != o.level {
		// CT3.1: the root is empty (everything below expired or was
		// orphaned); restart the tree at the orphan's level.
		if err := t.replaceEmptyRoot(o.level); err != nil {
			return err
		}
		rootNode, err = t.readNode(t.root)
		if err != nil {
			return err
		}
	}
	if o.level >= t.height {
		return fmt.Errorf("core: orphan level %d above root level %d", o.level, t.height-1)
	}
	path := append(t.descent[:0], rootNode)
	for n := rootNode; n.level > o.level; {
		child, err := t.readNode(n.child(t.chooseChild(n, &o.e.rect)))
		if err != nil {
			return err
		}
		path = append(path, child)
		n = child
	}
	t.descent = path
	// propagateUp purges the target (new entry included) before it
	// looks at its fill.
	target := t.own(path[len(path)-1])
	path[len(path)-1] = target
	target.appendEntry(o.e.id, &o.e.rect)
	t.adopt(target, target.count-1)
	return t.propagateUp(path, orphans)
}

// adopt records n as the home of its entries from index from on: the
// leaf the objects are located in, or the parent of the child pages.
func (t *Tree) adopt(n *vnode, from int) {
	if n.level == 0 {
		for i := from; i < n.count; i++ {
			t.loc[n.oid(i)] = n.id
		}
		return
	}
	for i := from; i < n.count; i++ {
		t.parent[n.child(i)] = n.id
	}
}

// replaceEmptyRoot frees the current (empty) root and installs a fresh
// empty root at the given level.
func (t *Tree) replaceEmptyRoot(level int) error {
	old, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	fresh, err := t.allocNode(level)
	if err != nil {
		return err
	}
	if err := t.writeNode(fresh); err != nil {
		return err
	}
	if err := t.setRoot(fresh.id); err != nil {
		return err
	}
	t.height = level + 1
	return t.freeNode(old)
}

// chooseChild implements the R^exp-tree's ChooseSubtree heuristic:
// minimal enlargement of the area integral (Eq. 1), ties broken by
// smaller area integral.  Unlike the R*-tree it does not use overlap
// enlargement, which keeps the algorithm linear (§4.2.2).  Expired
// entries are never chosen while any live entry exists.
func (t *Tree) chooseChild(n *vnode, r *geom.TPRect) int {
	if t.met != nil {
		t.met.ChooseSubtree.Inc()
	}
	if t.cfg.UseOverlapHeuristic && n.level == 1 {
		if best := t.chooseChildOverlap(n, r); best >= 0 {
			return best
		}
	}
	rNew := *r
	rNew.TExp = t.decisionExp(r, n.level-1)
	now, dims, src := t.Now(), t.cfg.Dims, t.expSource(n.level)
	horizon := now + t.metricH()
	// The new entry's bounds at now, as the union's take them.
	var bLo, bHi geom.Vec
	for d := 0; d < dims; d++ {
		bLo[d] = rNew.Lo[d] + rNew.VLo[d]*now
		bHi[d] = rNew.Hi[d] + rNew.VHi[d]*now
	}
	best := -1
	bestEnl, bestArea := 0.0, 0.0
	var (
		g    gauss
		gEnd = math.NaN()
		e    geom.TPRect
	)
	for i := 0; i < n.count; i++ {
		exp := t.expAt(n, i, src, now)
		if exp < now {
			continue
		}
		if !t.cfg.AlgsUseExp {
			exp = math.Inf(1)
		}
		// Neither integral reads the rectangle's own expiration time;
		// it enters through end alone.
		end := clampEnd(now, horizon, exp, rNew.TExp)
		if end != gEnd {
			g, gEnd = newGauss(now, end), end
		}
		area, enl, ok := enlargementAt(n, i, &rNew, &bLo, &bHi, now, end, &g)
		if !ok {
			n.rect(i, &e)
			area, enl = geom.Enlargement(&e, &rNew, now, end, dims)
		}
		if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	if best < 0 {
		// Every entry is expired; descend anywhere — the subtree will
		// be purged as soon as it is modified.
		best = 0
	}
	return best
}

// gauss holds the two-point Gauss–Legendre nodes of an integral over
// [t1, t2], t1 < t2, as geom.Enlargement's fast path computes them:
// the half length and the two nodes m ∓ d.
type gauss struct{ half, lo, hi float64 }

func newGauss(t1, t2 float64) gauss {
	h := t2 - t1
	m := (t1 + t2) / 2
	d := h / (2 * math.Sqrt(3))
	return gauss{half: h / 2, lo: m - d, hi: m + d}
}

// enlargementAt is geom.Enlargement(entry i of n, b, t1, t2) read from
// the columns, with b's bounds at t1 (bLo, bHi) and the nodes of
// [t1, t2] computed once for every entry that shares t2.  Its
// operations, and their order, are geom.Enlargement's fast path, so its
// results are the same bits.  ok is false when t2 <= t1 or an extent
// reaches zero within [t1, t2]: the caller then asks geom.Enlargement,
// which integrates piecewise.
func enlargementAt(n *vnode, i int, b *geom.TPRect, bLo, bHi *geom.Vec, t1, t2 float64, g *gauss) (area, enl float64, ok bool) {
	if t2 <= t1 {
		return 0, 0, false
	}
	dims := n.dims
	base := i * dims
	lo, hi, vlo, vhi := n.lo[base:base+dims], n.hi[base:base+dims], n.vlo[base:base+dims], n.vhi[base:base+dims]
	pa, pb, ua, ub := 1.0, 1.0, 1.0, 1.0
	for d := range lo {
		ac0 := hi[d] - lo[d]
		ac1 := vhi[d] - vlo[d]
		// UnionConservative's dimension d, as differences of its bounds.
		uvlo := min(vlo[d], b.VLo[d])
		uvhi := max(vhi[d], b.VHi[d])
		ulo := min(lo[d]+vlo[d]*t1, bLo[d]) - uvlo*t1
		uhi := max(hi[d]+vhi[d]*t1, bHi[d]) - uvhi*t1
		uc0 := uhi - ulo
		uc1 := uvhi - uvlo
		if ac0+ac1*t1 <= 0 || ac0+ac1*t2 <= 0 || uc0+uc1*t1 <= 0 || uc0+uc1*t2 <= 0 {
			return 0, 0, false
		}
		pa *= ac0 + ac1*g.lo
		pb *= ac0 + ac1*g.hi
		ua *= uc0 + uc1*g.lo
		ub *= uc0 + uc1*g.hi
	}
	area = g.half * (pa + pb)
	return area, g.half*(ua+ub) - area, true
}

// chooseChildOverlap is the R*-tree's overlap-enlargement criterion
// for the level above the leaves, with the objective replaced by its
// time integral (Eq. 1): pick the child whose overlap integral with
// its siblings grows least when extended by the new entry; break ties
// by area-integral enlargement.  Quadratic in the fan-out; the paper
// found it not worth the cost (§4.2.2).  Returns -1 when no live
// child exists.
func (t *Tree) chooseChildOverlap(n *vnode, r *geom.TPRect) int {
	rNew := *r
	rNew.TExp = t.decisionExp(r, n.level-1)
	best := -1
	bestOv, bestEnl := 0.0, 0.0
	es := n.appendEntries(t.gather[:0])
	t.gather = es
	for i := range es {
		if t.expired(n, i) {
			continue
		}
		er := es[i].rect
		er.TExp = t.decisionExp(&es[i].rect, n.level)
		end := t.metricEnd(er.TExp, rNew.TExp)
		union := geom.UnionConservative(er, rNew, t.Now(), t.cfg.Dims)
		var dOv float64
		for j := range es {
			if j == i || t.expired(n, j) {
				continue
			}
			dOv += geom.OverlapIntegral(union, es[j].rect, t.Now(), end, t.cfg.Dims) -
				geom.OverlapIntegral(er, es[j].rect, t.Now(), end, t.cfg.Dims)
		}
		enl := geom.AreaIntegral(union, t.Now(), end, t.cfg.Dims) -
			geom.AreaIntegral(er, t.Now(), end, t.cfg.Dims)
		if best < 0 || dOv < bestOv || (dOv == bestOv && enl < bestEnl) {
			best, bestOv, bestEnl = i, dOv, enl
		}
	}
	return best
}

// propagateUp is the paper's PropagateUp (§4.3): walking the loaded
// path bottom-up, it purges expired entries from each modified node,
// resolves overflow (forced reinsertion or split) and underflow
// (orphaning), and refreshes the parent's bounding rectangle.  Every
// node on the path is modified, so each is replaced in the path by the
// writer's copy of its page.
func (t *Tree) propagateUp(path []*vnode, orphans *[]orphan) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := t.own(path[i])
		path[i] = n
		isRoot := i == 0
		if err := t.purgeNode(n); err != nil {
			return err
		}
		var parent *vnode
		if !isRoot {
			parent = t.own(path[i-1])
			path[i-1] = parent
		}
		switch {
		case n.count > t.lay.cap(n.level):
			if levelBit := uint64(1) << uint(n.level); !isRoot && t.cfg.ReinsertFrac > 0 && t.reinsertedAt&levelBit == 0 {
				// PU1, first option: forced reinsertion, once per level
				// per operation.
				t.reinsertedAt |= levelBit
				moved := t.pickReinsert(n)
				if t.met != nil {
					t.met.ForcedReinserts.Inc()
					t.met.Emit(obs.Event{Kind: obs.EvForcedReinsert, Level: n.level, N: len(moved)})
				}
				for _, e := range moved {
					*orphans = append(*orphans, orphan{e: e, level: n.level})
				}
				if err := t.writeNode(n); err != nil {
					return err
				}
				if err := t.refreshParentEntry(parent, n); err != nil {
					return err
				}
				continue
			}
			// PU1, second option: split.
			sib, err := t.split(n)
			if err != nil {
				return err
			}
			if isRoot {
				return t.growRoot(n, sib)
			}
			if err := t.refreshParentEntry(parent, n); err != nil {
				return err
			}
			br := t.computeBR(sib)
			parent.appendEntry(uint32(sib.id), &br)
			t.parent[sib.id] = parent.id
		case !isRoot && n.count < t.lay.min(n.level):
			// PU2: orphan the live entries and drop the node.
			if t.met != nil {
				t.met.Condenses.Inc()
				t.met.Emit(obs.Event{Kind: obs.EvCondense, Level: n.level, N: n.count})
			}
			for k := 0; k < n.count; k++ {
				*orphans = append(*orphans, orphan{e: n.entry(k), level: n.level})
			}
			if err := t.freeNode(n); err != nil {
				return err
			}
			if err := t.removeParentEntry(parent, n.id); err != nil {
				return err
			}
		default:
			if err := t.writeNode(n); err != nil {
				return err
			}
			if !isRoot {
				if err := t.refreshParentEntry(parent, n); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// entryOf returns the index of the parent's entry for the child page.
func entryOf(parent *vnode, child storage.PageID) (int, error) {
	for i := 0; i < parent.count; i++ {
		if parent.child(i) == child {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: node %d not found in parent %d", child, parent.id)
}

// refreshParentEntry recomputes the child's bounding rectangle in the
// parent (PU3).  The parent is written when the propagation reaches
// it.
func (t *Tree) refreshParentEntry(parent, child *vnode) error {
	i, err := entryOf(parent, child.id)
	if err != nil {
		return err
	}
	br := t.computeBR(child)
	parent.setRect(i, &br)
	return nil
}

// removeParentEntry drops the entry pointing at the freed child.
func (t *Tree) removeParentEntry(parent *vnode, child storage.PageID) error {
	i, err := entryOf(parent, child)
	if err != nil {
		return err
	}
	parent.removeAt(i)
	return nil
}

// growRoot installs a new root above the two halves of a root split.
func (t *Tree) growRoot(a, b *vnode) error {
	root, err := t.allocNode(a.level + 1)
	if err != nil {
		return err
	}
	ra := t.computeBR(a)
	rb := t.computeBR(b)
	root.appendEntry(uint32(a.id), &ra)
	root.appendEntry(uint32(b.id), &rb)
	t.adopt(root, 0)
	if err := t.writeNode(root); err != nil {
		return err
	}
	t.height = root.level + 1
	return t.setRoot(root.id)
}

// shrinkRoot implements CT4: while the root is internal and holds a
// single entry, its child becomes the new root.
func (t *Tree) shrinkRoot() error {
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		if root.level == 0 || root.count != 1 {
			return nil
		}
		child := root.child(0)
		if err := t.setRoot(child); err != nil {
			return err
		}
		delete(t.parent, child)
		t.height--
		if err := t.freeNode(root); err != nil {
			return err
		}
	}
}

// pickReinsert removes the ReinsertFrac share of n's entries whose
// center distance integral from the node's bounding rectangle is
// largest (the R*-tree heuristic with the time-integral metric of
// Eq. 1) and returns them ordered closest-first, in the tree's buffer
// (valid until the next forced reinsertion).
func (t *Tree) pickReinsert(n *vnode) []entry {
	nodeBR := t.computeBR(n)
	exp := t.decisionExp(&nodeBR, n.level+1)
	end := t.metricEnd(exp, exp)
	es := n.appendEntries(t.gather[:0])
	t.gather = es
	dist := grow(t.reinsDist, len(es))
	order := grow(t.reinsOrder, len(es))
	t.reinsDist, t.reinsOrder = dist, order
	for i := range es {
		dist[i] = geom.CenterDistIntegral(es[i].rect, nodeBR, t.Now(), end, t.cfg.Dims)
		order[i] = i
	}
	// Farthest first; slices.SortFunc makes sort.Slice's comparisons.
	slices.SortFunc(order, func(a, b int) int {
		if dist[a] > dist[b] {
			return -1
		}
		return 1
	})
	p := int(t.cfg.ReinsertFrac * float64(len(es)))
	if p < 1 {
		p = 1
	}
	keep := order[p:]
	n.resize(len(keep))
	for i, idx := range keep {
		n.set(i, es[idx].id, &es[idx].rect)
	}
	// Closest-first ordering for reinsertion.
	out := grow(t.reinsMoved, p)
	t.reinsMoved = out
	for i, idx := range order[:p] {
		out[p-1-i] = es[idx]
	}
	return out
}
