package core

import (
	"fmt"
	"math"
	"sync"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// Neighbor is one nearest-neighbor answer: the object, and its distance
// from the query point at the query time as the kernel computed it.  A
// caller that merges the answers of several trees orders them by Dist,
// not by a distance recomputed from Point, which may round differently.
type Neighbor struct {
	Result
	Dist float64
}

// Nearest returns the k objects whose predicted positions at time at
// are closest to q, in ascending (distance, id) order: of objects tied
// at the k-th distance the lowest ids qualify, so any partition of the
// objects merges back into the same answer.  Only reports that
// are still valid at time at qualify (in expiration-aware mode); this
// extends the paper's query repertoire with the nearest-neighbor
// queries its future-work section anticipates for location-based
// services ("players close by").
//
// Like Search it is the kernel (nearest) over the writer's view read
// through the buffer pool; NearestSnap runs it over a pinned snapshot.
func (t *Tree) Nearest(q geom.Vec, at float64, k int, now float64) ([]Neighbor, error) {
	src := t.poolSource()
	return t.nearest(&src, q, at, k, now, math.Inf(1))
}

// errNearestPast is shared by the locked and snapshot nearest paths so
// both reject past query times with the identical error.
func errNearestPast(at, now float64) error {
	return fmt.Errorf("core: nearest query time %v precedes current time %v", at, now)
}

// nnNode is a node waiting in the kernel's queue: its page and the
// least distance between q and its bounding rectangle at time at.
type nnNode struct {
	dist float64
	page storage.PageID
}

// nnHeaps is one query's two heaps: nodes, a min-heap by distance, and
// best, a max-heap of at most k objects by (distance, id).  They are
// recycled across queries, so a warm kernel allocates only its answer.
type nnHeaps struct {
	nodes []nnNode
	best  []Neighbor
}

var nnHeapsPool = sync.Pool{New: func() any {
	return &nnHeaps{nodes: make([]nnNode, 0, 64)}
}}

// nearest is the best-first nearest-neighbor kernel.  Nodes wait in a
// min-heap ordered by the minimum distance between q and the entry's
// bounding rectangle evaluated at time at — a valid bound at that
// instant because entries that expire before it are skipped, and
// because a rectangle bounds its entries from its last update on: a
// time before the tree's clock, which a caller asks for only when a
// write overtook its read of the clock, can miss an entry updated
// since.  The k best objects so far sit in a max-heap; a leaf entry's
// point is copied only when the entry enters it.  A node or an entry
// farther than the k-th distance so far (bound, until k objects are
// held) is skipped, and the search stops at the first node farther
// than it.  Only a greater distance prunes: a node at exactly the k-th
// distance may hold a tied object with a lower id.  Any bound at or
// beyond the final k-th distance, such as the k-th distance of other
// trees' answers, leaves the answer unchanged; +Inf means none.
//
// The answer is in ascending (distance, id) order, with the distances
// as computed here.  Expiration is judged at the later of at, now and
// the tree's clock; the query leaves the clock alone.  Only a time
// before the caller's now is refused.
func (t *Tree) nearest(src *nodeSource, q geom.Vec, at float64, k int, now, bound float64) ([]Neighbor, error) {
	if at < now {
		return nil, errNearestPast(at, now)
	}
	if k <= 0 {
		return nil, nil
	}
	defer t.flush(src)
	eval := max(t.Now(), now)
	live := max(at, eval)
	dims := t.cfg.Dims
	useExp := t.cfg.ExpireAware
	h := nnHeapsPool.Get().(*nnHeaps)
	nodes := append(h.nodes[:0], nnNode{page: src.root})
	best := h.best[:0]
	defer func() {
		h.nodes, h.best = nodes[:0], best[:0]
		nnHeapsPool.Put(h)
	}()
	kth := bound
	for len(nodes) > 0 {
		var nd nnNode
		nodes, nd = popNode(nodes)
		if nd.dist > kth {
			break
		}
		v, err := t.node(src, nd.page)
		if err != nil {
			return nil, err
		}
		exp := t.expSource(v.level)
		for i := 0; i < v.count; i++ {
			// Entries invalid at the query time cannot contribute.
			if useExp && t.expAt(v, i, exp, eval) < live {
				continue
			}
			b := i * dims
			if v.level == 0 {
				var s float64
				for d := 0; d < dims; d++ {
					dd := q[d] - (v.lo[b+d] + v.vlo[b+d]*at)
					s += dd * dd
				}
				dist := math.Sqrt(s)
				if dist > kth {
					continue
				}
				n := Neighbor{Dist: dist, Result: Result{OID: v.oid(i)}}
				if len(best) < k {
					n.Point = v.point(i)
					best = pushBest(best, n)
				} else if farther(&best[0], &n) {
					n.Point = v.point(i)
					replaceBest(best, n)
				}
				if len(best) == k {
					kth = best[0].Dist
				}
				continue
			}
			var s float64
			for d := 0; d < dims; d++ {
				lo := v.lo[b+d] + v.vlo[b+d]*at
				hi := v.hi[b+d] + v.vhi[b+d]*at
				switch {
				case q[d] < lo:
					dd := lo - q[d]
					s += dd * dd
				case q[d] > hi:
					dd := q[d] - hi
					s += dd * dd
				}
			}
			if dist := math.Sqrt(s); dist <= kth {
				nodes = pushNode(nodes, nnNode{dist: dist, page: v.child(i)})
			}
		}
	}
	out := make([]Neighbor, len(best))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = best[0]
		best = popBest(best)
	}
	return out, nil
}

// pushNode adds x to the min-heap h.
func pushNode(h []nnNode, x nnNode) []nnNode {
	h = append(h, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[i].dist <= x.dist {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
	return h
}

// popNode removes the nearest node from the min-heap h.
func popNode(h []nnNode) ([]nnNode, nnNode) {
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].dist < h[c].dist {
			c++
		}
		if x.dist <= h[c].dist {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = x
	}
	return h, top
}

// farther orders the best heap: a is farther than b in (distance, id)
// order.
func farther(a, b *Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.OID > b.OID
}

// pushBest adds x to the max-heap h.
func pushBest(h []Neighbor, x Neighbor) []Neighbor {
	h = append(h, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !farther(&x, &h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
	return h
}

// replaceBest puts x in place of the farthest object of the max-heap h.
func replaceBest(h []Neighbor, x Neighbor) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && farther(&h[c+1], &h[c]) {
			c++
		}
		if !farther(&h[c], &x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// popBest removes the farthest object from the max-heap h.
func popBest(h []Neighbor) []Neighbor {
	n := len(h) - 1
	if n > 0 {
		replaceBest(h[:n], h[n])
	}
	return h[:n]
}
