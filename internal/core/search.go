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
	SnapMisses uint64 // defensive fallbacks through the buffer pool
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
// Search and SearchFunc read through the buffer pool under the caller's
// lock: they are the traversal whose page I/O the paper's figures count
// and the reference the snapshot path (SearchSnap) is tested against.
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
// allocations (the traversal stack is pooled).
func (t *Tree) SearchFunc(q geom.Query, now float64, fn func(Result) bool) error {
	t.advance(now)
	c := geom.Compile(q, t.cfg.Dims, t.cfg.ExpireAware)
	var nodes, leaves uint64
	sp := stackPool.Get().(*[]storage.PageID)
	stack := append((*sp)[:0], t.root)
	defer func() {
		*sp = stack[:0]
		stackPool.Put(sp)
	}()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.readNode(id)
		if err != nil {
			t.addQueryStats(nodes, leaves, nil)
			return err
		}
		nodes++
		if n.level == 0 {
			leaves += uint64(len(n.entries))
		}
		for i := range n.entries {
			e := &n.entries[i]
			if t.isExpired(&e.rect, n.level) {
				continue
			}
			if n.level == 0 {
				p := e.point()
				if c.MatchesPoint(&p) {
					if !fn(Result{OID: e.id, Point: p}) {
						t.addQueryStats(nodes, leaves, nil)
						return nil
					}
				}
				continue
			}
			r := e.rect
			r.TExp = t.effExp(&e.rect, n.level)
			if c.MatchesRect(&r) {
				stack = append(stack, e.child())
			}
		}
	}
	t.addQueryStats(nodes, leaves, nil)
	return nil
}

// addQueryStats folds a query's locally accumulated traversal counts
// into the metric counters (and the per-traversal stats when tracing),
// so hot loops pay one atomic add per query rather than one per node.
func (t *Tree) addQueryStats(nodes, leaves uint64, st *TravStats) {
	if st != nil {
		st.Nodes += nodes
		st.Leaves += leaves
	}
	if t.met == nil {
		return
	}
	t.met.NodeVisits.Add(nodes)
	t.met.LeafScans.Add(leaves)
}

// EntryStats walks the leaf level and reports how many stored leaf
// entries are live versus expired at the current time.  It is a
// diagnostic (used to validate the lazy-purging claim of §5.4) and
// charges I/O like any other traversal.
func (t *Tree) EntryStats() (live, expired int, err error) {
	err = t.walk(t.root, func(n *node) error {
		if n.level != 0 {
			return nil
		}
		for _, e := range n.entries {
			if e.rect.TExp < t.Now() {
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
	err := t.walk(t.root, func(n *node) error {
		counts[n.level]++
		return nil
	})
	return counts, err
}

// walk applies fn to every node in depth-first order.
func (t *Tree) walk(id storage.PageID, fn func(*node) error) error {
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
	for _, e := range n.entries {
		if err := t.walk(e.child(), fn); err != nil {
			return err
		}
	}
	return nil
}
