package geom

import (
	"fmt"
	"math"
)

// MovingPoint is the record the index stores for one object: a linear
// trajectory x(t) = Pos + Vel·t (Pos is the position at the tree epoch
// t = 0) that is valid until the absolute expiration time TExp.
type MovingPoint struct {
	Pos  Vec
	Vel  Vec
	TExp float64
}

// At returns the predicted position of p at time t.
func (p MovingPoint) At(t float64) Vec {
	return p.Pos.Add(p.Vel.Scale(t))
}

// Expired reports whether p's positional information has expired at
// time now.
func (p MovingPoint) Expired(now float64) bool { return p.TExp < now }

// TPRect is a time-parameterized bounding rectangle: in each dimension
// the lower bound moves as Lo + VLo·t and the upper bound as
// Hi + VHi·t (coordinates stored at the tree epoch t = 0).  The
// rectangle is a valid bound for its contents for all t in
// [computation time, TExp]; TExp is +Inf when the bounded entries never
// all expire.
type TPRect struct {
	Lo, Hi   Vec
	VLo, VHi Vec
	TExp     float64
}

// TPRectAt builds a TPRect whose snapshot at time t equals r, with the
// given bound velocities and expiration time.  It back-extrapolates r
// to the epoch representation.
func TPRectAt(t float64, r Rect, vlo, vhi Vec, texp float64, dims int) TPRect {
	tp := TPRect{VLo: vlo, VHi: vhi, TExp: texp}
	for i := 0; i < dims; i++ {
		tp.Lo[i] = r.Lo[i] - vlo[i]*t
		tp.Hi[i] = r.Hi[i] - vhi[i]*t
	}
	return tp
}

// At returns the snapshot of r at time t.
func (r TPRect) At(t float64) Rect {
	var s Rect
	for i := range s.Lo {
		s.Lo[i] = r.Lo[i] + r.VLo[i]*t
		s.Hi[i] = r.Hi[i] + r.VHi[i]*t
	}
	return s
}

// Expired reports whether the rectangle's validity has ended at time
// now.
func (r TPRect) Expired(now float64) bool { return r.TExp < now }

// PointTPRect returns the degenerate TPRect tracing p's trajectory.
func PointTPRect(p MovingPoint) TPRect {
	return TPRect{Lo: p.Pos, Hi: p.Pos, VLo: p.Vel, VHi: p.Vel, TExp: p.TExp}
}

// ContainsTrajectory reports whether r bounds the trajectory of p for
// every t in [t1, t2].  Because both r's bounds and p are linear in t,
// it suffices to test the two endpoints.
func (r TPRect) ContainsTrajectory(p MovingPoint, t1, t2 float64, dims int) bool {
	return r.At(t1).ContainsPoint(p.At(t1), dims) &&
		r.At(t2).ContainsPoint(p.At(t2), dims)
}

// ContainsTPRect reports whether r bounds the child rectangle s for
// every t in [t1, t2] (endpoint test; both are linear in t).
func (r TPRect) ContainsTPRect(s TPRect, t1, t2 float64, dims int) bool {
	return r.At(t1).ContainsRect(s.At(t1), dims) &&
		r.At(t2).ContainsRect(s.At(t2), dims)
}

// UnionConservative returns the conservative union of a and b: the
// tightest TPRect at time now whose bound velocities are the
// min/max of a's and b's bound velocities.  This is the "what if"
// enlargement used by ChooseSubtree; it is bounding for all t >= now
// whenever a and b are.  The expiration time is the max of the two.
// The builtin min and max treat NaN and ±0 as math.Min and math.Max do
// (they differ only on a NaN against an infinity) and, unlike them,
// inline.
func UnionConservative(a, b TPRect, now float64, dims int) TPRect {
	var r TPRect
	r.TExp = max(a.TExp, b.TExp)
	for i := 0; i < dims; i++ {
		r.VLo[i] = min(a.VLo[i], b.VLo[i])
		r.VHi[i] = max(a.VHi[i], b.VHi[i])
		lo := min(a.Lo[i]+a.VLo[i]*now, b.Lo[i]+b.VLo[i]*now)
		hi := max(a.Hi[i]+a.VHi[i]*now, b.Hi[i]+b.VHi[i]*now)
		r.Lo[i] = lo - r.VLo[i]*now
		r.Hi[i] = hi - r.VHi[i]*now
	}
	return r
}

// WithInfiniteExp returns a copy of r whose expiration time is +Inf.
// The modified ChooseSubtree variant of the paper (§4.2.2) treats all
// entries as infinite when making insertion decisions.
func (r TPRect) WithInfiniteExp() TPRect {
	r.TExp = math.Inf(1)
	return r
}

func (r TPRect) String() string {
	return fmt.Sprintf("TPRect[%v..%v v[%v..%v] exp=%g]", r.Lo, r.Hi, r.VLo, r.VHi, r.TExp)
}
