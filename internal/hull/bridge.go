package hull

import (
	"math"
	"slices"
	"sync"

	"rexptree/internal/geom"
)

// Workspace computes near-optimal TPBRs (§4.1.4) without sorting the
// entries or building their convex hulls.  Lemma 4.1 needs one hull
// edge per bound — the bridge that crosses the median line — so the
// endpoints are split at the median and the bridge is found as the
// common tangent of the two halves (see bridge).
//
// A Workspace keeps its buffers between computations.  It is not safe
// for concurrent use: every tree owns one, and the free function
// NearOptimal draws from a pool.
//
// Usage: Reset, Add once per entry (or AddColumns once per node),
// NearOptimal.
type Workspace struct {
	tupd float64
	dims int

	// The endpoint sets of Lemma 4.1 in (τ, x) coordinates, τ = t -
	// tupd, as parallel arrays: index 0 is the anchor at τ = 0 (the
	// extreme position of all entries at tupd, filled in by
	// NearOptimal), the rest are the trajectory endpoints of the
	// entries that expire at a finite time after tupd.
	tau    []float64
	up, lo [geom.MaxDims][]float64

	xmax, xmin   [geom.MaxDims]float64 // extreme positions at tupd
	minUp, maxLo [geom.MaxDims]float64 // slope limits set by never-expiring entries
	maxExp       float64

	// left and right hold the indices of the endpoints before and at
	// or after the current median (see split).
	left, right []int32
}

// Reset starts the computation of a bounding rectangle at time tupd.
func (w *Workspace) Reset(tupd float64, dims int) {
	w.tupd, w.dims = tupd, dims
	w.tau = append(w.tau[:0], 0)
	w.maxExp = math.Inf(-1)
	for d := 0; d < dims; d++ {
		w.up[d] = append(w.up[d][:0], 0)
		w.lo[d] = append(w.lo[d][:0], 0)
		w.xmax[d], w.xmin[d] = math.Inf(-1), math.Inf(1)
		w.minUp[d], w.maxLo[d] = math.Inf(-1), math.Inf(1)
	}
}

// Add includes one entry: its rectangle and the expiration time the
// computation is to assume for it (+Inf if it never expires).  r is
// only read.
func (w *Workspace) Add(r *geom.TPRect, texp float64) {
	te := [1]float64{texp}
	w.AddColumns(r.Lo[:w.dims], r.Hi[:w.dims], r.VLo[:w.dims], r.VHi[:w.dims], te[:])
}

// AddColumns includes the entries of a columnar node, in order, as Add
// would one by one: entry i's bounds are lo, hi, vlo and vhi at
// [i*dims, (i+1)*dims) and its assumed expiration time is texp[i].  The
// slices are only read.
func (w *Workspace) AddColumns(lo, hi, vlo, vhi, texp []float64) {
	dims, tupd := w.dims, w.tupd
	n := len(texp) * dims
	lo, hi, vlo, vhi = lo[:n], hi[:n], vlo[:n], vhi[:n]
	for _, te := range texp {
		if te > w.maxExp {
			w.maxExp = te
		}
		if geom.IsFinite(te) && te > tupd {
			w.tau = append(w.tau, te-tupd)
		}
	}
	for d := range dims {
		xmax, xmin, minUp, maxLo := w.xmax[d], w.xmin[d], w.minUp[d], w.maxLo[d]
		up, low := w.up[d], w.lo[d]
		for i, te := range texp {
			j := i*dims + d
			if h := hi[j] + vhi[j]*tupd; h > xmax {
				xmax = h
			}
			if l := lo[j] + vlo[j]*tupd; l < xmin {
				xmin = l
			}
			switch {
			case !geom.IsFinite(te):
				minUp = math.Max(minUp, vhi[j])
				maxLo = math.Min(maxLo, vlo[j])
			case te > tupd:
				up = append(up, hi[j]+vhi[j]*te)
				low = append(low, lo[j]+vlo[j]*te)
			}
		}
		w.xmax[d], w.xmin[d], w.minUp[d], w.maxLo[d] = xmax, xmin, minUp, maxLo
		w.up[d], w.lo[d] = up, low
	}
}

// NearOptimal returns the near-optimal TPBR of the added entries:
// dimensions are visited in the given order (the tree passes a random
// permutation so no dimension is preferred), and each dimension's
// bridges are found at the median adjusted for the dimensions already
// computed (Lemma 4.2).
func (w *Workspace) NearOptimal(horizon float64, order []int) geom.TPRect {
	phi := clampPhi(w.maxExp, w.tupd, horizon)
	var lo, hi, vlo, vhi geom.Vec
	var hs, ws [geom.MaxDims]float64
	for k, d := range order {
		w.up[d][0], w.lo[d][0] = w.xmax[d], w.xmin[d]
		w.split(median(hs[:k], ws[:k], phi))
		u := w.upperBound(w.up[d], w.minUp[d])
		l := w.lowerBound(w.lo[d], w.maxLo[d])
		lo[d], vlo[d] = l.a, l.b
		hi[d], vhi[d] = u.a, u.b
		hs[k] = u.a - l.a
		ws[k] = u.b - l.b
	}
	return geom.TPRectAt(w.tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, w.maxExp, w.dims)
}

// split partitions the endpoints at the median m: right receives those
// with τ >= m, left the anchor and those with τ < m, so the bridge is
// the hull edge whose right end is the first hull vertex at or after
// m.  A median beyond every endpoint selects the last hull edge, which
// is the bridge at the largest τ.
func (w *Workspace) split(m float64) {
	for {
		w.left, w.right = append(w.left[:0], 0), w.right[:0]
		for i := 1; i < len(w.tau); i++ {
			if w.tau[i] < m {
				w.left = append(w.left, int32(i))
			} else {
				w.right = append(w.right, int32(i))
			}
		}
		if len(w.right) > 0 || len(w.tau) == 1 {
			return
		}
		m = slices.Max(w.tau)
	}
}

// bridge returns the end points p (left of the median) and q (right of
// it) of the edge of the upper (sgn = +1) or lower (sgn = -1) convex
// hull of the points (tau[i], x[i]) that crosses the median the
// workspace was last split at.
//
// The edge is the common tangent of the two halves: from a point p on
// the left, the right point that the steepest (upper hull) line from p
// passes through is a vertex of the right half's hull, and from that
// q the left point with the shallowest line to q is a vertex of the
// left half's hull.  Alternating the two searches moves p rightwards
// and q leftwards along those hulls until neither moves; then every
// point of both halves lies on or below the line pq, which makes pq
// the hull edge over the median.  Each search is one pass over half
// the points; random endpoint sets settle in two or three.
//
// Among collinear candidates the one farther from the median wins, and
// of several points at one τ only the outermost can win, so p and q
// are exactly the vertices a Graham scan over the sorted points keeps
// on either side of the median: collinear interior points dropped, one
// vertex per τ.
func (w *Workspace) bridge(x []float64, sgn float64) (p, q int32) {
	p = 0
	q = w.tangentRight(x, sgn, p)
	// The walk is monotone in exact arithmetic; the bound only keeps
	// inconsistent round-off in near-degenerate inputs from cycling.
	for range w.tau {
		p2 := w.tangentLeft(x, sgn, q)
		if p2 == p {
			break
		}
		p = p2
		q2 := w.tangentRight(x, sgn, p)
		if q2 == q {
			break
		}
		q = q2
	}
	return p, q
}

// tangentRight returns the right-hand point q such that no right-hand
// point lies above (sgn = +1) or below (sgn = -1) the line from p
// through q; of collinear candidates, the one with the largest τ.
func (w *Workspace) tangentRight(x []float64, sgn float64, p int32) int32 {
	tau := w.tau
	a := pt{tau[p], x[p]}
	best := w.right[0]
	b := pt{tau[best], x[best]}
	for _, i := range w.right[1:] {
		c := pt{tau[i], x[i]}
		if s := sgn * cross(a, b, c); s > 0 || (s == 0 && c.t > b.t) {
			best, b = i, c
		}
	}
	return best
}

// tangentLeft returns the left-hand point p such that no left-hand
// point lies above (sgn = +1) or below (sgn = -1) the line from p
// through q; of collinear candidates, the one with the smallest τ.
func (w *Workspace) tangentLeft(x []float64, sgn float64, q int32) int32 {
	tau := w.tau
	b := pt{tau[q], x[q]}
	best := w.left[0]
	a := pt{tau[best], x[best]}
	for _, i := range w.left[1:] {
		c := pt{tau[i], x[i]}
		if s := sgn * cross(a, b, c); s > 0 || (s == 0 && c.t < a.t) {
			best, a = i, c
		}
	}
	return best
}

// edgeLine returns the line through the bridge of x, or the horizontal
// line through the anchor when no endpoint lies right of it.
func (w *Workspace) edgeLine(x []float64, sgn float64) line {
	if len(w.right) == 0 {
		return line{x[0], 0}
	}
	p, q := w.bridge(x, sgn)
	b := (x[q] - x[p]) / (w.tau[q] - w.tau[p])
	return line{x[p] - b*w.tau[p], b}
}

// upperBound returns the minimum-area upper bound line for the points
// (tau[i], x[i]) at the current split, then raises its slope to at
// least minSlope (the constraint contributed by never-expiring
// trajectories) while keeping it above every point.
func (w *Workspace) upperBound(x []float64, minSlope float64) line {
	l := w.edgeLine(x, +1)
	if l.b >= minSlope {
		return l
	}
	a := math.Inf(-1)
	for i, t := range w.tau {
		if v := x[i] - minSlope*t; v > a {
			a = v
		}
	}
	return line{a, minSlope}
}

// lowerBound is the mirror image of upperBound: the bound line below
// all points whose slope is lowered to at most maxSlope.
func (w *Workspace) lowerBound(x []float64, maxSlope float64) line {
	l := w.edgeLine(x, -1)
	if l.b <= maxSlope {
		return l
	}
	a := math.Inf(1)
	for i, t := range w.tau {
		if v := x[i] - maxSlope*t; v < a {
			a = v
		}
	}
	return line{a, maxSlope}
}

// workspaces serves the free function NearOptimal.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// NearOptimal computes the near-optimal TPBR of §4.1.4 of items, each
// assumed to expire at its TExp; see Workspace.NearOptimal.
func NearOptimal(items []geom.TPRect, tupd, horizon float64, dims int, order []int) geom.TPRect {
	w := workspaces.Get().(*Workspace)
	defer workspaces.Put(w)
	w.Reset(tupd, dims)
	for i := range items {
		w.Add(&items[i], items[i].TExp)
	}
	return w.NearOptimal(horizon, order)
}
