package hull

import (
	"math"
	"slices"

	"rexptree/internal/geom"
)

// The sort-and-scan implementation of the near-optimal TPBR that the
// engine used before Workspace: sort the expiry times once, build each
// dimension's endpoint lists in that order, run a Graham scan over
// each and look the bridge up in the chain.  It stays here as the
// reference the bridge search is held to, bit for bit
// (TestNearOptimalMatchesReference, FuzzNearOptimalBridge).

// upperChain sorts pts in place and returns their upper convex hull.
func upperChain(pts []pt) []pt {
	sortPts(pts)
	return upperChainSorted(pts)
}

// lowerChain sorts pts in place and returns their lower convex hull.
func lowerChain(pts []pt) []pt {
	sortPts(pts)
	return lowerChainSorted(pts)
}

// refUpperBridge is the upper bound line of pts, which must be sorted
// by t: the hull edge spanning m, its slope raised to minSlope.
func refUpperBridge(pts []pt, m, minSlope float64) line {
	return upperBridgeHull(upperChainSorted(pts), m, minSlope)
}

// refLowerBridge mirrors refUpperBridge.
func refLowerBridge(pts []pt, m, maxSlope float64) line {
	return lowerBridgeHull(lowerChainSorted(pts), m, maxSlope)
}

// sweepPairs is sweepPairsHulls over point lists sorted by τ.
func sweepPairs(upPts, loPts []pt, phi, minUpSlope, maxLoSlope float64) []boundPair {
	return sweepPairsHulls(upperChainSorted(upPts), lowerChainSorted(loPts), phi, minUpSlope, maxLoSlope)
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
