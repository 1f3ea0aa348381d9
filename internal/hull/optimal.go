package hull

import (
	"math"
	"slices"

	"rexptree/internal/geom"
)

// boundPair is a candidate (lower, upper) bound-line pair for one
// dimension.
type boundPair struct{ lo, hi line }

// optDim is the optimal kind's state for one dimension: the upper and
// lower hull chains of its endpoints, and the bound-line pairs the
// median sweep finds on them.
type optDim struct {
	up, lo []pt
	pairs  []boundPair
}

// sweep appends to pairs the bound-line pairs that arise as the median
// line sweeps across (0, phi): the breakpoints are the interior
// vertices of both hull chains, and between consecutive breakpoints
// the bridge pair is constant (§4.1.4).  Φ > 0 (see clampPhi), so it
// appends at least one pair.
func (w *Workspace) sweep(pairs []boundPair, upHull, loHull []pt, phi, minUpSlope, maxLoSlope float64) []boundPair {
	breaks := append(w.breaks[:0], 0, phi)
	for _, p := range upHull {
		if p.t > 0 && p.t < phi {
			breaks = append(breaks, p.t)
		}
	}
	for _, p := range loHull {
		if p.t > 0 && p.t < phi {
			breaks = append(breaks, p.t)
		}
	}
	slices.Sort(breaks)
	w.breaks = breaks
	for k := 0; k+1 < len(breaks); k++ {
		if breaks[k+1] <= breaks[k] {
			continue
		}
		m := (breaks[k] + breaks[k+1]) / 2
		p := boundPair{
			lo: lowerBridgeHull(loHull, m, maxLoSlope),
			hi: upperBridgeHull(upHull, m, minUpSlope),
		}
		if n := len(pairs); n > 0 && pairs[n-1] == p {
			continue
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// sortedEnds returns one dimension's endpoints x with the anchor at
// τ = 0, sorted by (τ, x), in w.pts.
func (w *Workspace) sortedEnds(x []float64, anchor float64) []pt {
	pts := w.pts[:0]
	for k := 1; k < len(w.tau); k++ {
		pts = append(pts, pt{w.tau[k], x[k]})
	}
	pts = append(pts, pt{0, anchor})
	sortPts(pts)
	w.pts = pts
	return pts
}

// Optimal returns the minimum hyper-volume TPBR of the added entries:
// it builds each dimension's hull chains, considers every combination
// of sweep-generated bridge pairs in the first dims-1 dimensions, and
// solves the last dimension exactly at the median induced by each
// combination (Lemma 4.2).  Worst-case cost is O(|P|^(dims-1) log |P|);
// it is only used in the bounding-rectangle comparison experiments.
func (w *Workspace) Optimal(horizon float64) geom.TPRect {
	dims, tupd := w.dims, w.tupd
	if dims == 1 {
		return w.NearOptimal(horizon, []int{0})
	}
	phi := clampPhi(w.maxExp, tupd, horizon)
	last := &w.opt[dims-1]
	for d := range dims {
		o := &w.opt[d]
		o.up = upperChainSorted(o.up, w.sortedEnds(w.up[d], w.xmax[d]))
		o.lo = lowerChainSorted(o.lo, w.sortedEnds(w.lo[d], w.xmin[d]))
		if o != last {
			o.pairs = w.sweep(o.pairs[:0], o.up, o.lo, phi, w.minUp[d], w.maxLo[d])
		}
	}

	// at is the combination: the pair taken in each of the first
	// dims-1 dimensions, the last of them advancing fastest.
	var at [geom.MaxDims]int
	best, bestArea := geom.TPRect{}, math.Inf(1)
	for {
		var lo, hi, vlo, vhi geom.Vec
		var hs, ws [geom.MaxDims]float64
		for d := 0; d < dims-1; d++ {
			p := w.opt[d].pairs[at[d]]
			lo[d], vlo[d] = p.lo.a, p.lo.b
			hi[d], vhi[d] = p.hi.a, p.hi.b
			hs[d], ws[d] = p.hi.a-p.lo.a, p.hi.b-p.lo.b
		}
		m := median(hs[:dims-1], ws[:dims-1], phi)
		l := lowerBridgeHull(last.lo, m, w.maxLo[dims-1])
		u := upperBridgeHull(last.up, m, w.minUp[dims-1])
		lo[dims-1], vlo[dims-1] = l.a, l.b
		hi[dims-1], vhi[dims-1] = u.a, u.b
		cand := geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, w.maxExp, dims)
		if a := geom.AreaIntegral(cand, tupd, tupd+phi, dims); a < bestArea {
			bestArea = a
			best = cand
		}
		d := dims - 2
		for ; d >= 0; d-- {
			if at[d]++; at[d] < len(w.opt[d].pairs) {
				break
			}
			at[d] = 0
		}
		if d < 0 {
			return best
		}
	}
}
