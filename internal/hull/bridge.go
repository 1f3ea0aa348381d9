package hull

import (
	"math"
	"slices"
	"sync"

	"rexptree/internal/geom"
)

// Workspace computes the TPBR of a node's entries with any of the five
// kinds from one pass over the node's columns.  The pass gathers what
// every kind reads: the extreme positions at tupd, the trajectory
// endpoints at each finite expiration time after tupd, the slope limits
// of the entries that never expire and the latest expiration time.  A
// finisher per kind turns that into a rectangle.
//
// Near-optimal TPBRs (§4.1.4) are computed without sorting the entries
// or building their convex hulls.  Lemma 4.1 needs one hull edge per
// bound — the bridge that crosses the median line — so the endpoints
// are split at the median and the bridge is found as the common
// tangent of the two halves (see bridge).  Only the optimal kind builds
// hull chains.
//
// A Workspace keeps its buffers between computations.  It is not safe
// for concurrent use: every tree owns one, and the free function
// NearOptimal draws from a pool.
//
// Usage: Reset; AddPoints for a node of points (a leaf) or AddColumns
// for a node of rectangles, each entry read once in one pass over the
// node, or over runs of it in entry order; then a finisher —
// Conservative, Static, UpdateMinimum, NearOptimal or Optimal.  A
// finisher reads the pass's results without consuming them.  The
// entries' velocities must be finite (a tree stores no other); any
// expiration time is allowed.
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

	cols []float64 // the free function's items as columns

	// Optimal's hull chains and bound-line pairs per dimension, and the
	// endpoint list and sweep breakpoints they are built from.
	opt    [geom.MaxDims]optDim
	pts    []pt
	breaks []float64
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

// An entry expiring at te has endpoints if te is finite and after tupd;
// if te is infinite or NaN, its velocities limit the slopes instead.
func hasEnds(te, tupd float64) bool { return te > tupd && te <= math.MaxFloat64 }
func neverExpires(te float64) bool  { return te-te != 0 }

// raise and lower update a running maximum (minimum) m with x as
// `if x > m { m = x }` does, so a NaN x never enters.
func raise(m, x float64) float64 {
	if x > m {
		return x
	}
	return m
}

func lower(m, x float64) float64 {
	if x < m {
		return x
	}
	return m
}

// maxf and minf are math.Max and math.Min, bit for bit, NaN included,
// inlined: a call, as those are on amd64, makes a pass spill its state.
func maxf(x, y float64) float64 {
	if x > y || x > math.MaxFloat64 || x == y && !math.Signbit(x) {
		return x
	}
	if y > x || y > math.MaxFloat64 || x == y {
		return y
	}
	return math.NaN()
}

func minf(x, y float64) float64 {
	if x < y || x < -math.MaxFloat64 || x == y && math.Signbit(x) {
		return x
	}
	if y < x || y < -math.MaxFloat64 || x == y {
		return y
	}
	return math.NaN()
}

// resize sets tau and the endpoint columns to n entries and returns the
// old length; a pass sizes them first, so its loop stores without a call.
func (w *Workspace) resize(n int) (old int) {
	old = len(w.tau)
	w.tau = slices.Grow(w.tau, max(0, n-len(w.tau)))[:n]
	for d := range w.dims {
		w.up[d] = slices.Grow(w.up[d], max(0, n-len(w.up[d])))[:n]
		w.lo[d] = slices.Grow(w.lo[d], max(0, n-len(w.lo[d])))[:n]
	}
	return old
}

// AddColumns includes the entries of a columnar node, in order: entry
// i's bounds are lo, hi, vlo and vhi at [i*dims, (i+1)*dims) and its
// assumed expiration time is texp[i] (+Inf if it never expires).  The
// slices are only read.  The pass is entry-major, but each dimension
// keeps its own running values and takes the entries in order, so it
// computes what a pass over that dimension alone would.
func (w *Workspace) AddColumns(lo, hi, vlo, vhi, texp []float64) {
	dims, tupd := w.dims, w.tupd
	if dims == 2 {
		w.addColumns2(lo, hi, vlo, vhi, texp)
		return
	}
	k := w.resize(len(w.tau) + len(texp))
	for i, te := range texp {
		w.maxExp = raise(w.maxExp, te)
		never := neverExpires(te)
		// Endpoints are stored for every entry and kept by moving k.
		w.tau[k] = te - tupd
		for d := range dims {
			j := i*dims + d
			w.xmax[d] = raise(w.xmax[d], hi[j]+vhi[j]*tupd)
			w.xmin[d] = lower(w.xmin[d], lo[j]+vlo[j]*tupd)
			w.up[d][k], w.lo[d][k] = hi[j]+vhi[j]*te, lo[j]+vlo[j]*te
			if never {
				w.minUp[d], w.maxLo[d] = maxf(w.minUp[d], vhi[j]), minf(w.maxLo[d], vlo[j])
			}
		}
		if hasEnds(te, tupd) {
			k++
		}
	}
	w.resize(k)
}

// addColumns2 is AddColumns in two dimensions, its state in locals.
func (w *Workspace) addColumns2(lo, hi, vlo, vhi, texp []float64) {
	tupd, maxExp := w.tupd, w.maxExp
	xmax0, xmax1, xmin0, xmin1 := w.xmax[0], w.xmax[1], w.xmin[0], w.xmin[1]
	k := w.resize(len(w.tau) + len(texp))
	// Columns of one length let the compiler drop most bounds checks.
	tau := w.tau
	up0, up1, lo0, lo1 := w.up[0][:len(tau)], w.up[1][:len(tau)], w.lo[0][:len(tau)], w.lo[1][:len(tau)]
	hi = hi[:2*len(texp)]
	vhi, lo, vlo = vhi[:len(hi)], lo[:len(hi)], vlo[:len(hi)]
	for j := 0; j+1 < len(hi); j += 2 {
		te := texp[j/2]
		xmax0, xmin0 = raise(xmax0, hi[j]+vhi[j]*tupd), lower(xmin0, lo[j]+vlo[j]*tupd)
		xmax1, xmin1 = raise(xmax1, hi[j+1]+vhi[j+1]*tupd), lower(xmin1, lo[j+1]+vlo[j+1]*tupd)
		maxExp = raise(maxExp, te)
		switch {
		case neverExpires(te):
			w.minUp[0], w.maxLo[0] = maxf(w.minUp[0], vhi[j]), minf(w.maxLo[0], vlo[j])
			w.minUp[1], w.maxLo[1] = maxf(w.minUp[1], vhi[j+1]), minf(w.maxLo[1], vlo[j+1])
		case hasEnds(te, tupd):
			tau[k] = te - tupd
			up0[k], lo0[k] = hi[j]+vhi[j]*te, lo[j]+vlo[j]*te
			up1[k], lo1[k] = hi[j+1]+vhi[j+1]*te, lo[j+1]+vlo[j+1]*te
			k++
		}
	}
	w.maxExp = maxExp
	w.xmax[0], w.xmax[1], w.xmin[0], w.xmin[1] = xmax0, xmax1, xmin0, xmin1
	w.resize(k)
}

// AddPoints includes the entries of a node of points (a leaf, whose
// hi and vhi columns alias lo and vlo): entry i's position and
// velocity are pos and vel at [i*dims, (i+1)*dims).  It is
// AddColumns(pos, pos, vel, vel, texp) bit for bit, with each
// trajectory evaluated once per instant instead of once per bound.
func (w *Workspace) AddPoints(pos, vel, texp []float64) {
	if w.dims != 2 {
		w.AddColumns(pos, pos, vel, vel, texp)
		return
	}
	tupd, maxExp := w.tupd, w.maxExp
	xmax0, xmax1, xmin0, xmin1 := w.xmax[0], w.xmax[1], w.xmin[0], w.xmin[1]
	k0 := w.resize(len(w.tau) + len(texp))
	k, tau, up0, up1 := k0, w.tau, w.up[0], w.up[1]
	for i, te := range texp {
		j := 2 * i
		x0, x1 := pos[j]+vel[j]*tupd, pos[j+1]+vel[j+1]*tupd
		xmax0, xmin0 = raise(xmax0, x0), lower(xmin0, x0)
		xmax1, xmin1 = raise(xmax1, x1), lower(xmin1, x1)
		maxExp = raise(maxExp, te)
		switch {
		case neverExpires(te):
			w.minUp[0], w.maxLo[0] = maxf(w.minUp[0], vel[j]), minf(w.maxLo[0], vel[j])
			w.minUp[1], w.maxLo[1] = maxf(w.minUp[1], vel[j+1]), minf(w.maxLo[1], vel[j+1])
		case hasEnds(te, tupd):
			tau[k] = te - tupd
			up0[k], up1[k] = pos[j]+vel[j]*te, pos[j+1]+vel[j+1]*te
			k++
		}
	}
	w.maxExp = maxExp
	w.xmax[0], w.xmax[1], w.xmin[0], w.xmin[1] = xmax0, xmax1, xmin0, xmin1
	copy(w.lo[0][k0:k], up0[k0:k])
	copy(w.lo[1][k0:k], up1[k0:k])
	w.resize(k)
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
		up, low := w.up[d], w.lo[d]
		up[0], low[0] = w.xmax[d], w.xmin[d]
		qu, ql := w.split(median(hs[:k], ws[:k], phi), up, low)
		u := w.bound(up, w.minUp[d], qu, true)
		l := w.bound(low, w.maxLo[d], ql, false)
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
// is the bridge at the largest τ.  The same pass makes the first
// search of both bridges: it returns the points qu and ql that
// tangentRight finds from the anchor for the endpoints up and lo.
func (w *Workspace) split(m float64, up, lo []float64) (qu, ql int32) {
	tau := w.tau
	up, lo = up[:len(tau)], lo[:len(tau)]
	left := slices.Grow(w.left[:0], len(tau))[:len(tau)]
	right := slices.Grow(w.right[:0], len(tau))[:len(tau)]
	au, al := pt{tau[0], up[0]}, pt{tau[0], lo[0]}
	for {
		var u, l tangentScan
		nl, nr := 1, 0
		left[0] = 0
		for i := 1; i < len(tau); i++ {
			t := tau[i]
			switch {
			case t < m:
				left[nl] = int32(i)
				nl++
				continue
			case nr == 0:
				u.start(au, int32(i), t, up[i])
				l.start(al, int32(i), t, lo[i])
			default:
				u.visit(au, int32(i), t, up[i], true)
				l.visit(al, int32(i), t, lo[i], false)
			}
			right[nr] = int32(i)
			nr++
		}
		if nr > 0 || len(tau) == 1 {
			w.left, w.right = left[:nl], right[:nr]
			return u.best, l.best
		}
		m = slices.Max(tau)
	}
}

// bound returns the minimum-area upper (or lower) bound line for the
// points (tau[i], x[i]) at the current split — the bridge found from
// split's q, or the horizontal line through the anchor when no endpoint
// lies right of the median — then raises (lowers) its slope to limit,
// the constraint of the never-expiring trajectories, while keeping it
// above (below) every point.
func (w *Workspace) bound(x []float64, limit float64, q int32, upper bool) line {
	l := line{x[0], 0}
	if len(w.right) > 0 {
		p, q := w.bridge(x, q, upper)
		b := (x[q] - x[p]) / (w.tau[q] - w.tau[p])
		l = line{x[p] - b*w.tau[p], b}
	}
	if upper && l.b >= limit || !upper && l.b <= limit {
		return l
	}
	a := math.Inf(1)
	if upper {
		a = math.Inf(-1)
		for i, t := range w.tau {
			a = raise(a, x[i]-limit*t)
		}
	} else {
		for i, t := range w.tau {
			a = lower(a, x[i]-limit*t)
		}
	}
	return line{a, limit}
}

// bridge returns the end points p (left of the median) and q (right of
// it) of the edge of the upper or lower convex hull of the points
// (tau[i], x[i]) that crosses the median the workspace was last split
// at, starting from q, the first tangent point split found.
//
// The edge is the common tangent of the two halves: from a point p on
// the left, the right point that the steepest (upper hull) line from p
// passes through is a vertex of the right half's hull, and from that
// q the left point with the shallowest line to q is a vertex of the
// left half's hull.  Alternating the two searches moves p rightwards
// and q leftwards along those hulls until neither moves; then every
// point of both halves lies on or below the line pq, which makes pq
// the hull edge over the median.  Each search is one pass over half
// the points.
//
// Among collinear candidates the one farther from the median wins, and
// of several points at one τ only the outermost can win, so p and q
// are exactly the vertices a Graham scan over the sorted points keeps
// on either side of the median: collinear interior points dropped, one
// vertex per τ.
func (w *Workspace) bridge(x []float64, q int32, upper bool) (int32, int32) {
	var p int32
	// The walk is monotone in exact arithmetic; the bound only keeps
	// inconsistent round-off in near-degenerate inputs from cycling.
	for range w.tau {
		p2 := w.tangentLeft(x, upper, q)
		if p2 == p {
			break
		}
		p = p2
		q2 := w.tangentRight(x, upper, p)
		if q2 == q {
			break
		}
		q = q2
	}
	return p, q
}

// tangentScan searches the right-hand points for the tangent point
// from a fixed point a: best is the candidate, at τ bt, and dt, dx are
// the candidate minus a (four fields, so a scan stays in registers).
type tangentScan struct {
	best       int32
	bt, dt, dx float64
}

// start makes point i, at (t, x), the candidate.
func (s *tangentScan) start(a pt, i int32, t, x float64) {
	s.best, s.bt, s.dt, s.dx = i, t, t-a.t, x-a.x
}

// visit offers point i, at (t, x): it becomes the candidate if it lies
// above (upper) or below the line from a through the candidate, or on
// it and farther right; c is cross(a, candidate, (t, x)) exactly.
func (s *tangentScan) visit(a pt, i int32, t, x float64, upper bool) {
	if c := s.dt*(x-a.x) - s.dx*(t-a.t); upper && c > 0 || !upper && c < 0 || c == 0 && t > s.bt {
		s.start(a, i, t, x)
	}
}

// tangentRight returns the right-hand point q such that no right-hand
// point lies above (upper) or below the line from p through q; of
// collinear candidates, the one with the largest τ.
func (w *Workspace) tangentRight(x []float64, upper bool, p int32) int32 {
	tau, q := w.tau, w.right[0]
	a, s := pt{tau[p], x[p]}, tangentScan{}
	s.start(a, q, tau[q], x[q])
	for _, i := range w.right[1:] {
		s.visit(a, i, tau[i], x[i], upper)
	}
	return s.best
}

// tangentLeft returns the left-hand point p such that no left-hand
// point lies above (upper) or below the line from p through q; of
// collinear candidates, the one with the smallest τ.  dt and dx are q
// minus the candidate, recomputed only when the candidate moves.
func (w *Workspace) tangentLeft(x []float64, upper bool, q int32) int32 {
	tau := w.tau
	bt, bx := tau[q], x[q]
	best := w.left[0]
	at, ax := tau[best], x[best]
	dt, dx := bt-at, bx-ax
	for _, i := range w.left[1:] {
		t, v := tau[i], x[i]
		if c := dt*(v-ax) - dx*(t-at); upper && c > 0 || !upper && c < 0 || c == 0 && t < at {
			best, at, ax = i, t, v
			dt, dx = bt-at, bx-ax
		}
	}
	return best
}

// workspaces serves the free function NearOptimal.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// NearOptimal computes the near-optimal TPBR of §4.1.4 of items, each
// assumed to expire at its TExp; see Workspace.NearOptimal.
func NearOptimal(items []geom.TPRect, tupd, horizon float64, dims int, order []int) geom.TPRect {
	w := workspaces.Get().(*Workspace)
	defer workspaces.Put(w)
	w.Reset(tupd, dims)
	w.addRects(items)
	return w.NearOptimal(horizon, order)
}

// addRects includes items, each assumed to expire at its TExp, by one
// AddColumns call over their columns.
func (w *Workspace) addRects(items []geom.TPRect) {
	dims, n := w.dims, len(items)*w.dims
	c := slices.Grow(w.cols[:0], 4*n+len(items))[:4*n+len(items)]
	for i := range items {
		r, j := &items[i], i*dims
		copy(c[j:], r.Lo[:dims])
		copy(c[n+j:], r.Hi[:dims])
		copy(c[2*n+j:], r.VLo[:dims])
		copy(c[3*n+j:], r.VHi[:dims])
		c[4*n+i] = r.TExp
	}
	w.cols = c
	w.AddColumns(c[:n], c[n:2*n], c[2*n:3*n], c[3*n:4*n], c[4*n:])
}
