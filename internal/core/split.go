package core

import (
	"math"
	"sort"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
)

// split divides the overfull node n with the R*-tree topological split
// adapted to moving entries: the objective functions (margin, overlap,
// area) are replaced by their time integrals (Eq. 1), and the sort
// axes include the velocity dimensions as in the TPR-tree, so entries
// can be partitioned by velocity as well as by position.  One group
// stays in n; the other is returned as a freshly allocated sibling.
// Both nodes are written.
func (t *Tree) split(n *node) (*node, error) {
	g1, g2 := t.chooseSplit(n.entries, n.level)
	n.entries = g1
	sib, err := t.allocNode(n.level)
	if err != nil {
		return nil, err
	}
	sib.entries = g2
	t.adopt(sib, g2)
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
func (t *Tree) splitKey(r geom.TPRect, dim, key int) float64 {
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
	dr := make([]geom.TPRect, total)
	allExp := math.Inf(-1)
	for i, e := range entries {
		dr[i] = e.rect
		dr[i].TExp = t.decisionExp(&dr[i], level)
		allExp = math.Max(allExp, dr[i].TExp)
	}
	end := t.metricEnd(allExp, allExp)

	order := make([]int, total)
	prefix := make([]geom.TPRect, total+1)
	suffix := make([]geom.TPRect, total+1)

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

	bestAxisMargin := math.Inf(1)
	var bestOrder []int
	for dim := 0; dim < t.cfg.Dims; dim++ {
		for key := 0; key < 4; key++ {
			for i := range order {
				order[i] = i
			}
			d, k := dim, key
			sort.Slice(order, func(a, b int) bool {
				return t.splitKey(dr[order[a]], d, k) < t.splitKey(dr[order[b]], d, k)
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

	g1 = make([]entry, 0, bestK)
	g2 = make([]entry, 0, total-bestK)
	for i, idx := range bestOrder {
		if i < bestK {
			g1 = append(g1, entries[idx])
		} else {
			g2 = append(g2, entries[idx])
		}
	}
	return g1, g2
}
