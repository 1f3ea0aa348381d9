package hull

import (
	"math"

	"rexptree/internal/geom"
)

// Kind selects one of the paper's bounding-rectangle types (§4.1).
type Kind int

const (
	// KindConservative bounds are minimum at computation time and move
	// their edges with the extreme velocities of the enclosed entries,
	// ignoring expiration times (the TPR-tree's rectangles).
	KindConservative Kind = iota
	// KindStatic bounds have zero edge velocities; they rely entirely
	// on expiration times to stay small (§4.1.2).
	KindStatic
	// KindUpdateMinimum bounds are minimum at computation time with
	// edge speeds reduced as far as the expiration times allow
	// (§4.1.2).
	KindUpdateMinimum
	// KindNearOptimal bounds minimize the bounding-trapezoid area per
	// dimension with bridge edges and dependency-adjusted medians,
	// visiting dimensions in a random order (§4.1.4).
	KindNearOptimal
	// KindOptimal bounds minimize the trapezoid hyper-volume exactly by
	// sweeping median lines through all bridge combinations (§4.1.4).
	KindOptimal
)

func (k Kind) String() string {
	switch k {
	case KindConservative:
		return "conservative"
	case KindStatic:
		return "static"
	case KindUpdateMinimum:
		return "update-minimum"
	case KindNearOptimal:
		return "near-optimal"
	case KindOptimal:
		return "optimal"
	}
	return "unknown"
}

// clampPhi returns Φ = min(horizon, t_expmax - t_upd), floored at a
// tiny positive value so the median is always well defined.
func clampPhi(texpmax, tupd, horizon float64) float64 {
	phi := horizon
	if geom.IsFinite(texpmax) && texpmax-tupd < phi {
		phi = texpmax - tupd
	}
	if phi < 1e-9 {
		phi = 1e-9
	}
	return phi
}

// Conservative returns the TPR-tree bounding rectangle of the added
// entries: tight at tupd, edge velocities equal to the extreme entry
// velocities.  vlo and vhi are the velocity columns the entries were
// added from (a leaf passes its one velocity column twice): the pass
// keeps the velocities of the entries that never expire only.
func (w *Workspace) Conservative(vlo, vhi []float64) geom.TPRect {
	dims := w.dims
	vhi = vhi[:len(vlo)]
	var lo, hi, vl, vh geom.Vec
	for d := range dims {
		lo[d], hi[d] = w.xmin[d], w.xmax[d]
		l, h := math.Inf(1), math.Inf(-1)
		for j := d; j < len(vlo); j += dims {
			l, h = minf(l, vlo[j]), maxf(h, vhi[j])
		}
		vl[d], vh[d] = l, h
	}
	return geom.TPRectAt(w.tupd, geom.Rect{Lo: lo, Hi: hi}, vl, vh, w.maxExp, dims)
}

// Static returns a zero-velocity bounding rectangle of the added
// entries that contains each until its expiration time: the extremes
// of their positions at tupd and of their endpoints.  Entries that
// never expire and still move are clamped to the world extent.
func (w *Workspace) Static(world geom.Rect) geom.TPRect {
	var lo, hi geom.Vec
	for d := range w.dims {
		lo[d], hi[d] = w.xmin[d], w.xmax[d]
		for k := 1; k < len(w.tau); k++ {
			lo[d], hi[d] = minf(lo[d], w.lo[d][k]), maxf(hi[d], w.up[d][k])
		}
		if w.maxLo[d] < 0 {
			lo[d] = minf(lo[d], world.Lo[d])
		}
		if w.minUp[d] > 0 {
			hi[d] = maxf(hi[d], world.Hi[d])
		}
	}
	return geom.TPRectAt(w.tupd, geom.Rect{Lo: lo, Hi: hi}, geom.Vec{}, geom.Vec{}, w.maxExp, w.dims)
}

// UpdateMinimum returns a bounding rectangle of the added entries that
// is minimum at tupd and whose edge speeds are reduced (upper) or
// increased (lower) as far as the entries' expiration times permit
// (§4.1.2, Figure 4): each edge runs from the extreme position at tupd
// through the farthest endpoint, and no slower than the entries that
// never expire.  Entries already expired at tupd only need containment
// at tupd, which the extremes provide; if no entry is left to bound a
// velocity, the rectangle stands still.
func (w *Workspace) UpdateMinimum() geom.TPRect {
	var lo, hi, vlo, vhi geom.Vec
	for d := range w.dims {
		lo[d], hi[d] = w.xmin[d], w.xmax[d]
		vl, vh := w.maxLo[d], w.minUp[d]
		for k := 1; k < len(w.tau); k++ {
			dt := w.tau[k]
			vl, vh = minf(vl, (w.lo[d][k]-lo[d])/dt), maxf(vh, (w.up[d][k]-hi[d])/dt)
		}
		// Some entry has endpoints, or never expires and has raised
		// minUp to its (finite) velocity.
		if len(w.tau) > 1 || w.minUp[d] != math.Inf(-1) {
			vlo[d], vhi[d] = vl, vh
		}
	}
	return geom.TPRectAt(w.tupd, geom.Rect{Lo: lo, Hi: hi}, vlo, vhi, w.maxExp, w.dims)
}
