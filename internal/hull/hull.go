// Package hull computes time-parameterized bounding rectangles (TPBRs)
// for sets of moving points or child bounding rectangles, implementing
// the five bounding-region types studied in the paper (§4.1):
// conservative, static, update-minimum, near-optimal, and optimal.
//
// The near-optimal and optimal types rest on Lemma 4.1 — the
// minimum-area bounding trapezoid over [t_upd, t_upd+Φ] is delimited by
// the convex-hull edges ("bridges") that cross the median line
// t = t_upd + Φ/2 — and on Lemma 4.2, which shifts the median when
// earlier dimensions of the rectangle have already been fixed.
//
// All inputs and outputs use the epoch coordinate convention of
// package geom: stored coordinates are values at t = 0.
package hull

import (
	"math"
	"slices"
	"sort"
)

// pt is a point in the (τ, x) plane, τ relative to the computation
// time t_upd.
type pt struct{ t, x float64 }

// line is x(τ) = a + b·τ.
type line struct{ a, b float64 }

// cross returns the z component of (b-a) × (c-a).
func cross(a, b, c pt) float64 {
	return (b.t-a.t)*(c.x-a.x) - (b.x-a.x)*(c.t-a.t)
}

// sortPts orders pts by (t, x) ascending.
func sortPts(pts []pt) {
	slices.SortFunc(pts, func(a, b pt) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		}
		return 0
	})
}

// upperChainSorted returns the upper convex hull of pts, which must
// already be sorted by t ascending, built over dst's storage; pts is
// not modified.
func upperChainSorted(dst, pts []pt) []pt {
	h := dst[:0]
	for _, p := range pts {
		// Keep only the topmost point per τ.
		if len(h) > 0 && h[len(h)-1].t == p.t {
			if h[len(h)-1].x >= p.x {
				continue
			}
			h = h[:len(h)-1]
		}
		for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) >= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h
}

// lowerChainSorted returns the lower convex hull of pts, which must
// already be sorted by t ascending, built over dst's storage.
func lowerChainSorted(dst, pts []pt) []pt {
	h := dst[:0]
	for _, p := range pts {
		if len(h) > 0 && h[len(h)-1].t == p.t {
			if h[len(h)-1].x <= p.x {
				continue
			}
			h = h[:len(h)-1]
		}
		for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h
}

// bridgeOf returns the line through the hull edge that spans τ = m.
// When m falls outside the hull's τ range, the nearest edge is used;
// a single-vertex hull yields the horizontal line through it.
func bridgeOf(h []pt, m float64) line {
	if len(h) == 1 {
		return line{h[0].x, 0}
	}
	i := sort.Search(len(h), func(k int) bool { return h[k].t >= m })
	switch {
	case i == 0:
		i = 1
	case i == len(h):
		i = len(h) - 1
	}
	p, q := h[i-1], h[i]
	if q.t == p.t { // degenerate duplicate τ (should not happen after dedupe)
		return line{math.Max(p.x, q.x), 0}
	}
	b := (q.x - p.x) / (q.t - p.t)
	return line{p.x - b*p.t, b}
}

// upperBridgeHull computes the bridge on a precomputed upper hull.
// The slope-constrained fallback needs only the hull vertices: the
// intercept maximum of a linear functional over the point set is
// attained on the upper chain.
func upperBridgeHull(hull []pt, m, minSlope float64) line {
	l := bridgeOf(hull, m)
	if l.b >= minSlope {
		return l
	}
	a := math.Inf(-1)
	for _, p := range hull {
		if v := p.x - minSlope*p.t; v > a {
			a = v
		}
	}
	return line{a, minSlope}
}

// lowerBridgeHull is the mirror of upperBridgeHull.
func lowerBridgeHull(hull []pt, m, maxSlope float64) line {
	l := bridgeOf(hull, m)
	if l.b <= maxSlope {
		return l
	}
	a := math.Inf(1)
	for _, p := range hull {
		if v := p.x - maxSlope*p.t; v < a {
			a = v
		}
	}
	return line{a, maxSlope}
}
