package core

import (
	"fmt"
	"math"
	"slices"

	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// BulkItem is one object for BulkLoad.
type BulkItem struct {
	OID   uint32
	Point geom.MovingPoint
}

// bulkFill is the target node fill of a bulk-loaded tree: below
// capacity so the first subsequent updates do not immediately split
// every node.
const bulkFill = 0.7

// BulkLoad builds a tree over an empty store from an initial object
// population, far faster than repeated insertion.  It adapts
// sort-tile-recursive (STR) packing to moving points: items are tiled
// by their *integrated centers* — the predicted position at
// now + H/2, H being the tree's initial time horizon — so that objects
// heading the same way end up in the same node, which is what the
// insertion heuristics' time integrals would strive for.
//
// The items' reports are interpreted as of time now.
func BulkLoad(cfg Config, store storage.Store, items []BulkItem, now float64) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := newTreeShell(cfg, store)
	t.clk.Store(now)
	t.timerStart = now
	if err := t.initMeta(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		root, err := t.allocNode(0)
		if err != nil {
			return nil, err
		}
		if err := t.writeNode(root); err != nil {
			return nil, err
		}
		t.root = root.id
		t.height = 1
		if err := t.bp.Pin(t.root); err != nil {
			return nil, err
		}
		t.publishOp()
		return t, nil
	}

	// Leaf entries, quantized like regular inserts.
	seen := make(map[uint32]bool, len(items))
	entries := make([]entry, len(items))
	for i, it := range items {
		if seen[it.OID] {
			return nil, fmt.Errorf("core: BulkLoad: duplicate object id %d", it.OID)
		}
		seen[it.OID] = true
		entries[i] = entry{id: it.OID, rect: geom.PointTPRect(t.prepare(it.Point))}
	}

	horizon := t.metricH() / 2
	level := 0
	for {
		fill := int(bulkFill * float64(t.lay.cap(level)))
		if fill < 2 {
			fill = 2
		}
		nodes, err := t.packLevel(entries, level, fill, now+horizon)
		if err != nil {
			return nil, err
		}
		if len(nodes) == 1 {
			t.root = nodes[0].id
			t.height = level + 1
			t.leafEntries = len(items)
			if err := t.bp.Pin(t.root); err != nil {
				return nil, err
			}
			t.publishOp()
			return t, nil
		}
		// Parent entries for the next round.
		entries = make([]entry, len(nodes))
		for i, n := range nodes {
			entries[i] = entry{id: uint32(n.id), rect: t.computeBR(n)}
		}
		level++
	}
}

// packLevel tiles the entries into nodes of the given level with ~fill
// entries each, ordering by the STR slicing of their integrated
// centers at time tc.
func (t *Tree) packLevel(entries []entry, level, fill int, tc float64) ([]*node, error) {
	center := func(e *entry, dim int) float64 {
		r := e.rect
		return (r.Lo[dim] + r.VLo[dim]*tc + r.Hi[dim] + r.VHi[dim]*tc) / 2
	}
	numNodes := (len(entries) + fill - 1) / fill
	// Number of vertical slices: sqrt of the node count (classic STR),
	// generalized per dimension count.
	slicesPerDim := int(math.Ceil(math.Pow(float64(numNodes), 1/float64(t.cfg.Dims))))
	if slicesPerDim < 1 {
		slicesPerDim = 1
	}
	// Recursive tiling: sort by dim 0, cut into slices, recurse.
	var tile func(es []entry, dim int)
	tile = func(es []entry, dim int) {
		d := dim
		slices.SortFunc(es, func(a, b entry) int {
			ca, cb := center(&a, d), center(&b, d)
			switch {
			case ca < cb:
				return -1
			case ca > cb:
				return 1
			}
			return 0
		})
		if dim == t.cfg.Dims-1 {
			return
		}
		per := (len(es) + slicesPerDim - 1) / slicesPerDim
		if per < fill {
			per = fill
		}
		for off := 0; off < len(es); off += per {
			end := off + per
			if end > len(es) {
				end = len(es)
			}
			tile(es[off:end], dim+1)
		}
	}
	tile(entries, 0)

	var out []*node
	for off := 0; off < len(entries); off += fill {
		end := off + fill
		if end > len(entries) {
			end = len(entries)
		}
		// Never leave a trailing runt below the minimum fill: absorb it
		// into this node when capacity allows, otherwise leave exactly
		// the minimum behind (this node then keeps at least
		// cap+1-min >= min entries itself).
		if rem := len(entries) - end; rem > 0 && rem < t.lay.min(level) {
			if len(entries)-off <= t.lay.cap(level) {
				end = len(entries)
			} else {
				end = len(entries) - t.lay.min(level)
			}
		}
		n, err := t.allocNode(level)
		if err != nil {
			return nil, err
		}
		n.entries = append(n.entries, entries[off:end]...)
		t.adopt(n, n.entries)
		if err := t.writeNode(n); err != nil {
			return nil, err
		}
		out = append(out, n)
		off = end - fill // compensate the loop increment
	}
	return out, nil
}
