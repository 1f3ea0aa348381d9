package geom

import "math"

// Interval is a closed time interval [Lo, Hi].  It is empty when
// Lo > Hi.
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether iv contains no time instant.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// clipLE narrows iv to the sub-interval where a0+a1·t <= b0+b1·t.
func clipLE(iv Interval, a0, a1, b0, b1 float64) Interval {
	c0 := a0 - b0
	c1 := a1 - b1
	if c1 == 0 {
		if c0 <= 0 {
			return iv
		}
		return Interval{1, 0}
	}
	x := -c0 / c1
	if c1 > 0 {
		// holds for t <= x
		if x < iv.Hi {
			iv.Hi = x
		}
	} else {
		// holds for t >= x
		if x > iv.Lo {
			iv.Lo = x
		}
	}
	return iv
}

// ClipLE exposes clipLE for columnar traversal kernels that evaluate
// the same clip sequence over decomposed coordinates: it narrows iv to
// the sub-interval where a0+a1·t <= b0+b1·t.  Callers must apply clips
// in OverlapInterval's order to reproduce its verdicts bit for bit.
func ClipLE(iv Interval, a0, a1, b0, b1 float64) Interval {
	return clipLE(iv, a0, a1, b0, b1)
}

// OverlapInterval returns the interval of times within [t1, t2] during
// which the snapshots of a and b intersect, using the first dims
// dimensions.  The returned interval is empty when they never meet.
func OverlapInterval(a, b TPRect, t1, t2 float64, dims int) Interval {
	iv := Interval{t1, t2}
	for i := 0; i < dims && !iv.Empty(); i++ {
		// a.Lo_i(t) <= b.Hi_i(t)
		iv = clipLE(iv, a.Lo[i], a.VLo[i], b.Hi[i], b.VHi[i])
		// b.Lo_i(t) <= a.Hi_i(t)
		iv = clipLE(iv, b.Lo[i], b.VLo[i], a.Hi[i], a.VHi[i])
	}
	return iv
}

// Intersects reports whether a and b intersect at some instant of
// [t1, t2].
func Intersects(a, b TPRect, t1, t2 float64, dims int) bool {
	if t1 > t2 {
		return false
	}
	return !OverlapInterval(a, b, t1, t2, dims).Empty()
}

// Query is the unified representation of the paper's three query
// types: a (possibly moving) rectangle Region evaluated over the time
// interval [T1, T2].
//
//   - Type 1 (timeslice):  T1 == T2, zero Region velocities.
//   - Type 2 (window):     T1 <  T2, zero Region velocities.
//   - Type 3 (moving):     T1 <  T2, Region interpolates R1 -> R2.
type Query struct {
	Region TPRect
	T1, T2 float64
}

// Timeslice builds a Type 1 query: rectangle r at time t.
func Timeslice(r Rect, t float64) Query {
	return Query{Region: TPRect{Lo: r.Lo, Hi: r.Hi, TExp: math.Inf(1)}, T1: t, T2: t}
}

// Window builds a Type 2 query: rectangle r throughout [t1, t2].
func Window(r Rect, t1, t2 float64) Query {
	return Query{Region: TPRect{Lo: r.Lo, Hi: r.Hi, TExp: math.Inf(1)}, T1: t1, T2: t2}
}

// Moving builds a Type 3 query: the trapezoid connecting r1 at t1 to
// r2 at t2.  It requires t1 < t2.
func Moving(r1, r2 Rect, t1, t2 float64, dims int) Query {
	var tp TPRect
	tp.TExp = math.Inf(1)
	dt := t2 - t1
	for i := 0; i < dims; i++ {
		tp.VLo[i] = (r2.Lo[i] - r1.Lo[i]) / dt
		tp.VHi[i] = (r2.Hi[i] - r1.Hi[i]) / dt
		tp.Lo[i] = r1.Lo[i] - tp.VLo[i]*t1
		tp.Hi[i] = r1.Hi[i] - tp.VHi[i]*t1
	}
	return Query{Region: tp, T1: t1, T2: t2}
}

// MatchesRect reports whether the query trapezoid intersects the
// bounding rectangle br, honoring br's expiration time: intersection
// is checked over [T1, min(T2, br.TExp)] (paper §4.1.5).  When
// useExp is false the expiration time is ignored, which yields the
// plain TPR-tree behaviour.
func (q Query) MatchesRect(br TPRect, dims int, useExp bool) bool {
	t2 := q.T2
	if useExp && br.TExp < t2 {
		t2 = br.TExp
	}
	return Intersects(q.Region, br, q.T1, t2, dims)
}

// MatchesPoint reports whether the trajectory of p crosses the query
// trapezoid, honoring p's expiration time when useExp is set.
func (q Query) MatchesPoint(p MovingPoint, dims int, useExp bool) bool {
	return q.MatchesRect(PointTPRect(p), dims, useExp)
}
