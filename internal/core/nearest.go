package core

import (
	"fmt"
	"sync"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// Nearest returns the k objects whose predicted positions at time at
// are closest to q, in ascending distance order.  Only reports that
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
// Like Search it reads through the buffer pool under the caller's lock;
// it is the reference NearestSnap is tested against.
func (t *Tree) Nearest(q geom.Vec, at float64, k int, now float64) ([]Result, error) {
	t.advance(now)
	if at < t.Now() {
		return nil, errNearestPast(at, t.Now())
	}
	if k <= 0 {
		return nil, nil
	}
	qp := nnQueuePool.Get().(*nnQueue)
	pq := (*qp)[:0]
	defer func() {
		*qp = pq[:0]
		nnQueuePool.Put(qp)
	}()
	pq = pq.push(nnItem{dist: 0, page: t.root, isNode: true})
	var out []Result
	var nodes, leaves uint64
	for len(pq) > 0 && len(out) < k {
		var it nnItem
		pq, it = pq.pop()
		if !it.isNode {
			out = append(out, Result{OID: it.oid, Point: it.point})
			continue
		}
		n, err := t.readNode(it.page)
		if err != nil {
			t.addQueryStats(nodes, leaves, nil)
			return nil, err
		}
		nodes++
		if n.level == 0 {
			leaves += uint64(len(n.entries))
		}
		for i := range n.entries {
			e := &n.entries[i]
			// Entries invalid at the query time cannot contribute.
			if t.cfg.ExpireAware && t.effExp(&e.rect, n.level) < at {
				continue
			}
			if n.level == 0 {
				p := e.point()
				pq = pq.push(nnItem{
					dist:  q.Dist(p.At(at), t.cfg.Dims),
					oid:   e.id,
					point: p,
				})
				continue
			}
			pq = pq.push(nnItem{
				dist:   e.rect.At(at).MinDist(q, t.cfg.Dims),
				page:   e.child(),
				isNode: true,
			})
		}
	}
	t.addQueryStats(nodes, leaves, nil)
	return out, nil
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

// nnQueue is a binary min-heap ordered by dist.  The sift operations
// mirror container/heap exactly (so equal-distance items pop in the
// same order the stdlib heap would produce) while avoiding the
// interface boxing that heap.Push/heap.Pop allocate per item.
type nnQueue []nnItem

func (q nnQueue) push(x nnItem) nnQueue {
	q = append(q, x)
	// Sift up, as container/heap's up().
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if q[j].dist >= q[i].dist {
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
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2
		}
		if q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	x := q[n]
	return q[:n], x
}
