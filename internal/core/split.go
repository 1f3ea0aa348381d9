package core

import (
	"math"
	"slices"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
)

// split divides the overfull node n with the R*-tree topological split
// adapted to moving entries: the objective functions (margin, overlap,
// area) are replaced by their time integrals (Eq. 1), and the sort
// axes include the velocity dimensions as in the TPR-tree, so entries
// can be partitioned by velocity as well as by position.  One group
// stays in n; the other is returned as a freshly allocated sibling.
// Both nodes are written.  n's entries are gathered into the tree's
// entry buffer, so the algorithm sees them as before, in node order;
// like every array of the split, the two groups live in tree-owned
// buffers, so a split allocates nothing but the sibling's page.
func (t *Tree) split(n *vnode) (*vnode, error) {
	t.gather = n.appendEntries(t.gather[:0])
	g1, g2 := t.chooseSplit(t.gather, n.level)
	n.setEntries(g1)
	sib, err := t.allocNode(n.level)
	if err != nil {
		return nil, err
	}
	sib.setEntries(g2)
	t.adopt(sib, 0)
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(sib); err != nil {
		return nil, err
	}
	if t.met != nil {
		t.met.Splits.Inc()
		t.met.Emit(obs.Event{Kind: obs.EvSplit, Level: n.level, N: len(g2)})
	}
	return sib, nil
}

// splitKey extracts one of the four per-dimension sort keys evaluated
// at the current time: lower/upper bound position and lower/upper
// bound velocity.
func (t *Tree) splitKey(r *geom.TPRect, dim, key int) float64 {
	switch key {
	case 0:
		return r.Lo[dim] + r.VLo[dim]*t.Now()
	case 1:
		return r.Hi[dim] + r.VHi[dim]*t.Now()
	case 2:
		return r.VLo[dim]
	default:
		return r.VHi[dim]
	}
}

func (t *Tree) chooseSplit(entries []entry, level int) (g1, g2 []entry) {
	total := len(entries)
	minFill := t.lay.min(level)
	if minFill < 1 {
		minFill = 1
	}
	// Decision rectangles: expiration honored only when AlgsUseExp.
	dr := grow(t.splitDR, total)
	allExp := math.Inf(-1)
	for i, e := range entries {
		dr[i] = e.rect
		dr[i].TExp = t.decisionExp(&dr[i], level)
		allExp = math.Max(allExp, dr[i].TExp)
	}
	end := t.metricEnd(allExp, allExp)

	order := grow(t.splitOrder, total)
	prefix := grow(t.splitPrefix, total+1)
	suffix := grow(t.splitSuffix, total+1)
	t.splitDR, t.splitOrder, t.splitPrefix, t.splitSuffix = dr, order, prefix, suffix

	// computeBounds fills prefix[k] = union of the first k entries in
	// the current order and suffix[k] = union of the rest.
	computeBounds := func() {
		prefix[1] = dr[order[0]]
		for k := 2; k <= total; k++ {
			prefix[k] = geom.UnionConservative(prefix[k-1], dr[order[k-1]], t.Now(), t.cfg.Dims)
		}
		suffix[total-1] = dr[order[total-1]]
		for k := total - 2; k >= minFill; k-- {
			suffix[k] = geom.UnionConservative(suffix[k+1], dr[order[k]], t.Now(), t.cfg.Dims)
		}
	}

	// slices.SortFunc runs the same pattern-defeating quicksort as
	// sort.Slice, comparison for comparison, without allocating.
	bestAxisMargin := math.Inf(1)
	bestOrder := t.splitBest[:0]
	for dim := 0; dim < t.cfg.Dims; dim++ {
		for key := 0; key < 4; key++ {
			for i := range order {
				order[i] = i
			}
			slices.SortFunc(order, func(a, b int) int {
				if t.splitKey(&dr[a], dim, key) < t.splitKey(&dr[b], dim, key) {
					return -1
				}
				return 1
			})
			computeBounds()
			var margin float64
			for k := minFill; k <= total-minFill; k++ {
				margin += geom.MarginIntegral(prefix[k], t.Now(), end, t.cfg.Dims)
				margin += geom.MarginIntegral(suffix[k], t.Now(), end, t.cfg.Dims)
			}
			if margin < bestAxisMargin {
				bestAxisMargin = margin
				bestOrder = append(bestOrder[:0], order...)
			}
		}
	}
	t.splitBest = bestOrder

	// Along the chosen axis, pick the distribution with minimal overlap
	// integral, ties broken by minimal total area integral.
	copy(order, bestOrder)
	computeBounds()
	bestK := -1
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for k := minFill; k <= total-minFill; k++ {
		ov := geom.OverlapIntegral(prefix[k], suffix[k], t.Now(), end, t.cfg.Dims)
		ar := geom.AreaIntegral(prefix[k], t.Now(), end, t.cfg.Dims) +
			geom.AreaIntegral(suffix[k], t.Now(), end, t.cfg.Dims)
		if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, ar
		}
	}

	// The two groups, one after the other in the tree's group buffer.
	g := t.splitGroups[:0]
	for _, idx := range bestOrder {
		g = append(g, entries[idx])
	}
	t.splitGroups = g
	return g[:bestK:bestK], g[bestK:]
}

// grow returns s resized to n elements, reallocated only when its
// capacity is short; the elements' values are left as they were.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
