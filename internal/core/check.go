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
//   - the maintained leaf-entry counter matches the actual count.
func (t *Tree) CheckInvariants() error {
	seen := make(map[uint32]bool)
	leaves := 0
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
		for _, e := range n.entries {
			if n.level == 0 {
				leaves++
				if !t.isExpired(&e.rect, 0) {
					if seen[e.id] {
						return fmt.Errorf("duplicate live object id %d", e.id)
					}
					seen[e.id] = true
				}
			}
			if bound != nil {
				// The parent bound must hold from now until the entry's
				// effective expiration (or the parent entry's, whichever
				// is earlier).
				end := math.Min(t.effExp(&e.rect, n.level), boundExp)
				if !geom.IsFinite(end) || end > t.Now()+1000 {
					end = t.Now() + 1000
				}
				if end < t.Now() {
					continue // entry already expired; no containment promise
				}
				for _, tt := range []float64{t.Now(), (t.Now() + end) / 2, end} {
					outer, inner := bound.At(tt), e.rect.At(tt)
					for i := 0; i < t.cfg.Dims; i++ {
						eps := 1e-5 * (1 + abs(inner.Lo[i]) + abs(inner.Hi[i]))
						if inner.Lo[i] < outer.Lo[i]-eps || inner.Hi[i] > outer.Hi[i]+eps {
							return fmt.Errorf("node %d (level %d): entry escapes parent bound at t=%.3f (dim %d: [%g,%g] outside [%g,%g])",
								id, n.level, tt, i, inner.Lo[i], inner.Hi[i], outer.Lo[i], outer.Hi[i])
						}
					}
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
	return nil
}
