package hull

import (
	"math"
	"slices"

	"rexptree/internal/geom"
)

// The reference implementation of each bounding kind: one function per
// kind over a slice of rectangles, each item assumed to expire at its
// TExp, as the engine ran them before every kind read the workspace.
// Each workspace finisher is held to its reference bit for bit
// (TestWorkspaceKindsMatchReference, FuzzWorkspaceKinds).
//
// The near-optimal one sorts the expiry times once, builds each
// dimension's endpoint lists in that order, runs a Graham scan over
// each and looks the bridge up in the chain
// (TestNearOptimalMatchesReference).
//
// Every reference takes the extreme positions at tupd as the first of
// equal values, as the workspace's pass does (extremesAt); everything
// else they take with math.Min and math.Max.

// maxExp returns the latest expiration time among items (+Inf if any
// item never expires).
func maxExp(items []geom.TPRect) float64 {
	e := math.Inf(-1)
	for _, it := range items {
		if it.TExp > e {
			e = it.TExp
		}
	}
	return e
}

// effPhi returns Φ for the given items; see clampPhi.
func effPhi(items []geom.TPRect, tupd, horizon float64) float64 {
	return clampPhi(maxExp(items), tupd, horizon)
}

// extremesAt returns the extreme positions of items at tupd in the
// first dims dimensions; of equal values (+0 and -0), the first seen.
func extremesAt(items []geom.TPRect, tupd float64, dims int) (lo, hi geom.Vec) {
	for i := 0; i < dims; i++ {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, it := range items {
		s := it.At(tupd)
		for i := 0; i < dims; i++ {
			if s.Lo[i] < lo[i] {
				lo[i] = s.Lo[i]
			}
			if s.Hi[i] > hi[i] {
				hi[i] = s.Hi[i]
			}
		}
	}
	return lo, hi
}

// Conservative computes the TPR-tree bounding rectangle: tight at tupd,
// edge velocities equal to the extreme entry velocities.
func Conservative(items []geom.TPRect, tupd float64, dims int) geom.TPRect {
	lo, hi := extremesAt(items, tupd, dims)
	var vlo, vhi geom.Vec
	for i := 0; i < dims; i++ {
		vlo[i], vhi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, it := range items {
		for i := 0; i < dims; i++ {
			vlo[i] = math.Min(vlo[i], it.VLo[i])
			vhi[i] = math.Max(vhi[i], it.VHi[i])
		}
	}
	return geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, maxExp(items), dims)
}

// Static computes a zero-velocity bounding rectangle that contains
// every item until that item's expiration time.  Entries that never
// expire and still move are clamped to the world extent.
func Static(items []geom.TPRect, tupd float64, dims int, world geom.Rect) geom.TPRect {
	lo, hi := extremesAt(items, tupd, dims)
	for _, it := range items {
		for i := 0; i < dims; i++ {
			switch {
			case geom.IsFinite(it.TExp) && it.TExp > tupd:
				e := it.At(it.TExp)
				lo[i] = math.Min(lo[i], e.Lo[i])
				hi[i] = math.Max(hi[i], e.Hi[i])
			case !geom.IsFinite(it.TExp):
				if it.VLo[i] < 0 {
					lo[i] = math.Min(lo[i], world.Lo[i])
				}
				if it.VHi[i] > 0 {
					hi[i] = math.Max(hi[i], world.Hi[i])
				}
			}
		}
	}
	return geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, geom.Vec{}, geom.Vec{}, maxExp(items), dims)
}

// UpdateMinimum computes a bounding rectangle that is minimum at tupd
// and whose edge speeds are reduced (upper) or increased (lower) as
// far as the entries' expiration times permit (§4.1.2, Figure 4).
func UpdateMinimum(items []geom.TPRect, tupd float64, dims int) geom.TPRect {
	lo, hi := extremesAt(items, tupd, dims)
	var vlo, vhi geom.Vec
	for i := 0; i < dims; i++ {
		vl, vh := math.Inf(1), math.Inf(-1)
		any := false
		for _, it := range items {
			switch {
			case !geom.IsFinite(it.TExp):
				vl = math.Min(vl, it.VLo[i])
				vh = math.Max(vh, it.VHi[i])
				any = true
			case it.TExp > tupd:
				dt := it.TExp - tupd
				e := it.At(it.TExp)
				vl = math.Min(vl, (e.Lo[i]-lo[i])/dt)
				vh = math.Max(vh, (e.Hi[i]-hi[i])/dt)
				any = true
			}
			// Entries already expired at tupd only need containment at
			// tupd, which the snapshot bounds provide.
		}
		if !any {
			vl, vh = 0, 0
		}
		vlo[i], vhi[i] = vl, vh
	}
	return geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, maxExp(items), dims)
}

// dimPoints builds the endpoint sets of Lemma 4.1 for dimension i:
// the upper/lower trajectory endpoints at each item's expiration time
// plus the extreme positions at tupd, in (τ, x) coordinates with
// τ = t - tupd.  It also returns the slope constraints contributed by
// never-expiring items.
func dimPoints(items []geom.TPRect, tupd float64, i int) (up, lo []pt, minUpSlope, maxLoSlope float64) {
	minUpSlope, maxLoSlope = math.Inf(-1), math.Inf(1)
	for _, it := range items {
		switch {
		case !geom.IsFinite(it.TExp):
			minUpSlope = math.Max(minUpSlope, it.VHi[i])
			maxLoSlope = math.Min(maxLoSlope, it.VLo[i])
		case it.TExp > tupd:
			e := it.At(it.TExp)
			up = append(up, pt{it.TExp - tupd, e.Hi[i]})
			lo = append(lo, pt{it.TExp - tupd, e.Lo[i]})
		}
	}
	xmin, xmax := extremesAt(items, tupd, i+1)
	up = append(up, pt{0, xmax[i]})
	lo = append(lo, pt{0, xmin[i]})
	return up, lo, minUpSlope, maxLoSlope
}

// Optimal computes the minimum hyper-volume TPBR by considering every
// combination of sweep-generated bridge pairs in the first dims-1
// dimensions and solving the last dimension exactly at the median
// induced by each combination (Lemma 4.2).
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
			upHull:  upperChainSorted(nil, up),
			loHull:  lowerChainSorted(nil, lo),
			minUpSl: minUp,
			maxLoSl: maxLo,
		}
		if i < dims-1 {
			dd[i].pairs = new(Workspace).sweep(nil, dd[i].upHull, dd[i].loHull, phi, minUp, maxLo)
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

// reference computes the TPBR of items with the reference of kind;
// world only matters to static, order only to near-optimal.
func reference(kind Kind, items []geom.TPRect, tupd, horizon float64, dims int, world geom.Rect, order []int) geom.TPRect {
	switch kind {
	case KindStatic:
		return Static(items, tupd, dims, world)
	case KindUpdateMinimum:
		return UpdateMinimum(items, tupd, dims)
	case KindNearOptimal:
		return referenceNearOptimal(items, tupd, horizon, dims, order)
	case KindOptimal:
		return Optimal(items, tupd, horizon, dims)
	}
	return Conservative(items, tupd, dims)
}

// upperChain sorts pts in place and returns their upper convex hull.
func upperChain(pts []pt) []pt {
	sortPts(pts)
	return upperChainSorted(nil, pts)
}

// lowerChain sorts pts in place and returns their lower convex hull.
func lowerChain(pts []pt) []pt {
	sortPts(pts)
	return lowerChainSorted(nil, pts)
}

// refUpperBridge is the upper bound line of pts, which must be sorted
// by t: the hull edge spanning m, its slope raised to minSlope.
func refUpperBridge(pts []pt, m, minSlope float64) line {
	return upperBridgeHull(upperChainSorted(nil, pts), m, minSlope)
}

// refLowerBridge mirrors refUpperBridge.
func refLowerBridge(pts []pt, m, maxSlope float64) line {
	return lowerBridgeHull(lowerChainSorted(nil, pts), m, maxSlope)
}

// sweepPairs is the optimal kind's sweep over point lists sorted by τ.
func sweepPairs(upPts, loPts []pt, phi, minUpSlope, maxLoSlope float64) []boundPair {
	return new(Workspace).sweep(nil, upperChainSorted(nil, upPts), lowerChainSorted(nil, loPts), phi, minUpSlope, maxLoSlope)
}

// referenceNearOptimal computes the near-optimal TPBR of §4.1.4 by
// sorting and scanning.
func referenceNearOptimal(items []geom.TPRect, tupd, horizon float64, dims int, order []int) geom.TPRect {
	phi := effPhi(items, tupd, horizon)

	// Indices of items with finite, unexpired expiry, sorted by expiry.
	type expKey struct {
		texp float64
		i    int32
	}
	keys := make([]expKey, 0, len(items))
	for i := range items {
		if geom.IsFinite(items[i].TExp) && items[i].TExp > tupd {
			keys = append(keys, expKey{items[i].TExp, int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b expKey) int {
		switch {
		case a.texp < b.texp:
			return -1
		case a.texp > b.texp:
			return 1
		}
		return 0
	})

	up := make([]pt, 0, len(keys)+1)
	loPts := make([]pt, 0, len(keys)+1)
	var lo, hi, vlo, vhi geom.Vec
	var hs, ws [geom.MaxDims]float64
	computed := 0
	for _, d := range order {
		xmax, xmin := math.Inf(-1), math.Inf(1)
		minUp, maxLo := math.Inf(-1), math.Inf(1)
		for i := range items {
			it := &items[i]
			if h := it.Hi[d] + it.VHi[d]*tupd; h > xmax {
				xmax = h
			}
			if l := it.Lo[d] + it.VLo[d]*tupd; l < xmin {
				xmin = l
			}
			if !geom.IsFinite(it.TExp) {
				minUp = math.Max(minUp, it.VHi[d])
				maxLo = math.Min(maxLo, it.VLo[d])
			}
		}
		up = append(up[:0], pt{0, xmax})
		loPts = append(loPts[:0], pt{0, xmin})
		for _, k := range keys {
			it := &items[k.i]
			tau := k.texp - tupd
			up = append(up, pt{tau, it.Hi[d] + it.VHi[d]*k.texp})
			loPts = append(loPts, pt{tau, it.Lo[d] + it.VLo[d]*k.texp})
		}
		m := median(hs[:computed], ws[:computed], phi)
		u := refUpperBridge(up, m, minUp)
		l := refLowerBridge(loPts, m, maxLo)
		lo[d], vlo[d] = l.a, l.b
		hi[d], vhi[d] = u.a, u.b
		hs[computed] = u.a - l.a
		ws[computed] = u.b - l.b
		computed++
	}
	return geom.TPRectAt(tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, maxExp(items), dims)
}
