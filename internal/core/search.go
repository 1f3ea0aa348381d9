package core

import (
	"sync"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// Result is one object reported by a query.
type Result struct {
	OID   uint32
	Point geom.MovingPoint
}

// TravStats accumulates one snapshot traversal's node and page
// accounting for query tracing: how many nodes it visited, how many
// leaf entries it scanned, and how its page requests split between
// requests served from memory and store reads.  A nil *TravStats
// disables the accounting.
type TravStats struct {
	Nodes  uint64 // nodes visited
	Leaves uint64 // leaf entries examined
	Reads  uint64 // page requests that missed the buffer and read the store
	Hits   uint64 // page requests served from a version chain or the buffer pool

	SnapHits   uint64 // nodes served from version chains, no lock taken
	SnapMisses uint64 // pages with no version at the pinned sequence (an error)
	PinNanos   int64  // time spent pinning the epoch
}

// Search returns the objects whose predicted trajectories intersect
// the query.  In expiration-aware mode, entries that have expired by
// the current time are invisible and intersection with a bounding
// rectangle is only checked up to the rectangle's (stored or derived)
// expiration time (§4.1.5).  In plain TPR-tree mode, expiration times
// are ignored entirely, so results may contain objects whose
// information has expired — the false drops the paper's §3 discusses.
//
// Search and SearchFunc are the region-query kernel (search) over the
// writer's view read through the buffer pool, under the caller's lock:
// the traversal whose page I/O the paper's figures count.  SearchSnap
// runs the same kernel over a pinned snapshot.
func (t *Tree) Search(q geom.Query, now float64) ([]Result, error) {
	var out []Result
	err := t.SearchFunc(q, now, func(r Result) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

// stackPool recycles traversal stacks across queries so the hot path
// does not allocate one per call.  The pool stores pointers to slices
// so that Put does not itself allocate an interface box.
var stackPool = sync.Pool{New: func() any {
	s := make([]storage.PageID, 0, 64)
	return &s
}}

// SearchFunc streams matching objects to fn as the traversal finds
// them, stopping early when fn returns false.  It avoids materializing
// large result sets, and — with a warm buffer pool — runs without heap
// allocations (the traversal stack is pooled).  A query reads the
// clock but never moves it: expiration is judged at the later of now and
// the tree's clock.
func (t *Tree) SearchFunc(q geom.Query, now float64, fn func(Result) bool) error {
	src := t.poolSource()
	return t.search(&src, q, now, fn)
}

// EntryStats walks the leaf level and reports how many stored leaf
// entries are live versus expired at the current time.  It is a
// diagnostic (used to validate the lazy-purging claim of §5.4) and
// charges I/O like any other traversal.
func (t *Tree) EntryStats() (live, expired int, err error) {
	err = t.walk(t.root, func(n *vnode) error {
		if n.level != 0 {
			return nil
		}
		for i := 0; i < n.count; i++ {
			if n.texp[i] < t.Now() {
				expired++
			} else {
				live++
			}
		}
		return nil
	})
	return live, expired, err
}

// NodeCount returns the number of nodes per level, root last.
func (t *Tree) NodeCount() ([]int, error) {
	counts := make([]int, t.height)
	err := t.walk(t.root, func(n *vnode) error {
		counts[n.level]++
		return nil
	})
	return counts, err
}

// walk applies fn to every node in depth-first order.
func (t *Tree) walk(id storage.PageID, fn func(*vnode) error) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if err := fn(n); err != nil {
		return err
	}
	if n.level == 0 {
		return nil
	}
	for i := 0; i < n.count; i++ {
		if err := t.walk(n.child(i), fn); err != nil {
			return err
		}
	}
	return nil
}
