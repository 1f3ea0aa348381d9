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

// Conservative computes the TPR-tree bounding rectangle: tight at tupd,
// edge velocities equal to the extreme entry velocities.
func Conservative(items []geom.TPRect, tupd float64, dims int) geom.TPRect {
	var lo, hi, vlo, vhi geom.Vec
	for i := 0; i < dims; i++ {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
		vlo[i], vhi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, it := range items {
		s := it.At(tupd)
		for i := 0; i < dims; i++ {
			lo[i] = math.Min(lo[i], s.Lo[i])
			hi[i] = math.Max(hi[i], s.Hi[i])
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
	var lo, hi geom.Vec
	for i := 0; i < dims; i++ {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, it := range items {
		s := it.At(tupd)
		for i := 0; i < dims; i++ {
			lo[i] = math.Min(lo[i], s.Lo[i])
			hi[i] = math.Max(hi[i], s.Hi[i])
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
	var lo, hi, vlo, vhi geom.Vec
	for i := 0; i < dims; i++ {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, it := range items {
		s := it.At(tupd)
		for i := 0; i < dims; i++ {
			lo[i] = math.Min(lo[i], s.Lo[i])
			hi[i] = math.Max(hi[i], s.Hi[i])
		}
	}
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
	xmax, xmin := math.Inf(-1), math.Inf(1)
	for _, it := range items {
		s := it.At(tupd)
		xmax = math.Max(xmax, s.Hi[i])
		xmin = math.Min(xmin, s.Lo[i])
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
	up = append(up, pt{0, xmax})
	lo = append(lo, pt{0, xmin})
	return up, lo, minUpSlope, maxLoSlope
}
