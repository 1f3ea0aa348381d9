package core

import (
	"fmt"
	"sync"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// Nearest returns the k objects whose predicted positions at time at
// are closest to q, in ascending (distance, id) order: of objects tied
// at the k-th distance the lowest ids qualify, so any partition of the
// objects merges back into the same answer.  Only reports that
// are still valid at time at qualify (in expiration-aware mode); this
// extends the paper's query repertoire with the nearest-neighbor
// queries its future-work section anticipates for location-based
// services ("players close by").
//
// The search is the classic best-first R-tree NN traversal: a priority
// queue ordered by the minimum distance between q and the entry's
// bounding rectangle evaluated at time at.  A bounding rectangle is a
// valid bound at that instant because entries that expire before at
// are skipped.
//
// Like Search it is the kernel (nearest) over the writer's view read
// through the buffer pool; NearestSnap runs it over a pinned snapshot.
func (t *Tree) Nearest(q geom.Vec, at float64, k int, now float64) ([]Result, error) {
	src := t.poolSource()
	return t.nearest(&src, q, at, k, now)
}

// errNearestPast is shared by the locked and snapshot nearest paths so
// both reject past query times with the identical error.
func errNearestPast(at, now float64) error {
	return fmt.Errorf("core: nearest query time %v precedes current time %v", at, now)
}

// nnQueuePool recycles priority queues across Nearest calls so the
// hot path allocates nothing once warm.
var nnQueuePool = sync.Pool{New: func() any {
	q := make(nnQueue, 0, 64)
	return &q
}}

type nnItem struct {
	dist   float64
	page   storage.PageID
	isNode bool
	oid    uint32
	point  geom.MovingPoint
}

// nnQueue is a binary min-heap ordered by nnLess.  The sift operations
// mirror container/heap exactly while avoiding the interface boxing
// that heap.Push/heap.Pop allocate per item.
type nnQueue []nnItem

// nnLess orders the queue by distance.  At equal distance a node comes
// before an object — it may hold a tied object with a lower id — and
// objects come in id order; nodes tied with nodes keep heap order.
func nnLess(a, b *nnItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.isNode || b.isNode {
		return a.isNode && !b.isNode
	}
	return a.oid < b.oid
}

func (q nnQueue) push(x nnItem) nnQueue {
	q = append(q, x)
	// Sift up, as container/heap's up().
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !nnLess(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return q
}

func (q nnQueue) pop() (nnQueue, nnItem) {
	// As container/heap's Pop: swap root to the end, sift down, trim.
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && nnLess(&q[j2], &q[j1]) {
			j = j2
		}
		if !nnLess(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	x := q[n]
	return q[:n], x
}
