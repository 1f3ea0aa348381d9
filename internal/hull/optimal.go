package hull

import (
	"math"
	"sort"

	"rexptree/internal/geom"
)

// boundPair is a candidate (lower, upper) bound-line pair for one
// dimension.
type boundPair struct{ lo, hi line }

// sweepPairsHulls enumerates the bound-line pairs that arise as the
// median line sweeps across (0, phi): the breakpoints are the interior
// vertices of both hull chains, and between consecutive breakpoints
// the bridge pair is constant (§4.1.4).
func sweepPairsHulls(upHull, loHull []pt, phi, minUpSlope, maxLoSlope float64) []boundPair {
	breaks := []float64{0, phi}
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
	sort.Float64s(breaks)
	var pairs []boundPair
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

// Optimal computes the minimum hyper-volume TPBR by considering every
// combination of sweep-generated bridge pairs in the first dims-1
// dimensions and solving the last dimension exactly at the median
// induced by each combination (Lemma 4.2).  Worst-case cost is
// O(|P|^(dims-1) log |P|); it is only used in the bounding-rectangle
// comparison experiments.
func Optimal(items []geom.TPRect, tupd, horizon float64, dims int) geom.TPRect {
	if dims == 1 {
		return NearOptimal(items, tupd, horizon, dims, []int{0})
	}
	phi := effPhi(items, tupd, horizon)
	texp := maxExp(items)

	type dimData struct {
		upHull, loHull   []pt
		minUpSl, maxLoSl float64
		pairs            []boundPair
	}
	dd := make([]dimData, dims)
	for i := 0; i < dims; i++ {
		up, lo, minUp, maxLo := dimPoints(items, tupd, i)
		sortPts(up)
		sortPts(lo)
		dd[i] = dimData{
			upHull:  upperChainSorted(up),
			loHull:  lowerChainSorted(lo),
			minUpSl: minUp,
			maxLoSl: maxLo,
		}
		if i < dims-1 {
			dd[i].pairs = sweepPairsHulls(dd[i].upHull, dd[i].loHull, phi, minUp, maxLo)
		}
	}

	best := geom.TPRect{}
	bestArea := math.Inf(1)
	chosen := make([]boundPair, dims)

	var rec func(d int)
	rec = func(d int) {
		if d == dims-1 {
			// Solve the last dimension exactly for this combination.
			hs := make([]float64, 0, dims-1)
			ws := make([]float64, 0, dims-1)
			for k := 0; k < dims-1; k++ {
				hs = append(hs, chosen[k].hi.a-chosen[k].lo.a)
				ws = append(ws, chosen[k].hi.b-chosen[k].lo.b)
			}
			m := median(hs, ws, phi)
			chosen[d] = boundPair{
				lo: lowerBridgeHull(dd[d].loHull, m, dd[d].maxLoSl),
				hi: upperBridgeHull(dd[d].upHull, m, dd[d].minUpSl),
			}
			var lo, hi, vlo, vhi geom.Vec
			for i := 0; i < dims; i++ {
				lo[i], vlo[i] = chosen[i].lo.a, chosen[i].lo.b
				hi[i], vhi[i] = chosen[i].hi.a, chosen[i].hi.b
			}
			cand := geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, texp, dims)
			if a := geom.AreaIntegral(cand, tupd, tupd+phi, dims); a < bestArea {
				bestArea = a
				best = cand
			}
			return
		}
		for _, p := range dd[d].pairs {
			chosen[d] = p
			rec(d + 1)
		}
	}
	rec(0)
	return best
}

// Compute dispatches to the bounding-rectangle computation selected by
// kind.  world is only used by KindStatic; order (a permutation of
// 0..dims-1) only by KindNearOptimal.
func Compute(kind Kind, items []geom.TPRect, tupd, horizon float64, dims int, world geom.Rect, order []int) geom.TPRect {
	switch kind {
	case KindStatic:
		return Static(items, tupd, dims, world)
	case KindUpdateMinimum:
		return UpdateMinimum(items, tupd, dims)
	case KindNearOptimal:
		return NearOptimal(items, tupd, horizon, dims, order)
	case KindOptimal:
		return Optimal(items, tupd, horizon, dims)
	default:
		return Conservative(items, tupd, dims)
	}
}
