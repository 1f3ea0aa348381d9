package geom

import (
	"math"
	"sort"
)

// The R^exp-tree replaces the R*-tree objective functions (area,
// margin, overlap, center distance of bounding rectangles) with their
// integrals over [t_upd, t_upd+H] (paper Eq. 1).  Because TPBR bounds
// are linear in t, per-dimension extents and overlaps are piecewise
// linear, so the integrands are piecewise polynomials of degree <=
// MaxDims.  Two-point Gauss-Legendre quadrature per piece is exact for
// polynomials up to degree 3, which covers every case here exactly.

// gl2 integrates f over [a, b] with two-point Gauss-Legendre
// quadrature (exact for cubics).
func gl2(f func(float64) float64, a, b float64) float64 {
	h := b - a
	if h <= 0 {
		return 0
	}
	m := (a + b) / 2
	d := h / (2 * math.Sqrt(3))
	return h / 2 * (f(m-d) + f(m+d))
}

// lin is the linear function c0 + c1*t.
type lin struct{ c0, c1 float64 }

func (l lin) at(t float64) float64 { return l.c0 + l.c1*t }

// root appends to ts the zero of l inside (t1, t2), if any.
func (l lin) root(ts []float64, t1, t2 float64) []float64 {
	if l.c1 == 0 {
		return ts
	}
	x := -l.c0 / l.c1
	if x > t1 && x < t2 {
		ts = append(ts, x)
	}
	return ts
}

// extent returns dimension i's extent of r as a linear function of t.
func extent(r TPRect, i int) lin {
	return lin{r.Hi[i] - r.Lo[i], r.VHi[i] - r.VLo[i]}
}

// integratePieces splits [t1, t2] at the given breakpoints and sums
// gl2 over pieces on which pred (evaluated at the midpoint) holds.
func integratePieces(f func(float64) float64, pred func(float64) bool, breaks []float64, t1, t2 float64) float64 {
	sort.Float64s(breaks)
	var total float64
	prev := t1
	for _, b := range append(breaks, t2) {
		if b <= prev || b > t2 {
			continue
		}
		if pred((prev + b) / 2) {
			total += gl2(f, prev, b)
		}
		prev = b
	}
	return total
}

// AreaIntegral returns the integral over [t1, t2] of the (clamped)
// area of r, i.e. of prod_i max(0, extent_i(t)).
func AreaIntegral(r TPRect, t1, t2 float64, dims int) float64 {
	if t2 <= t1 {
		return 0
	}
	var c0, c1 Vec
	for i := 0; i < dims; i++ {
		c0[i] = r.Hi[i] - r.Lo[i]
		c1[i] = r.VHi[i] - r.VLo[i]
	}
	if area, ok := areaIntegralFast(&c0, &c1, t1, t2, dims); ok {
		return area
	}
	return areaIntegralSlow(r, t1, t2, dims)
}

// Enlargement returns the area integral of a over [t1, t2] and how much
// it grows when a is extended by b at t1:
//
//	area = AreaIntegral(*a, t1, t2, dims)
//	enl  = AreaIntegral(UnionConservative(*a, *b, t1, dims), t1, t2, dims) - area
//
// computed term for term — bit for bit — but without building the
// union or copying either rectangle.  It is ChooseSubtree's metric.
func Enlargement(a, b *TPRect, t1, t2 float64, dims int) (area, enl float64) {
	if t2 <= t1 {
		return 0, 0
	}
	var ac0, ac1, uc0, uc1 Vec
	for i := 0; i < dims; i++ {
		ac0[i] = a.Hi[i] - a.Lo[i]
		ac1[i] = a.VHi[i] - a.VLo[i]
		// UnionConservative's dimension i, as differences of its bounds.
		vlo := min(a.VLo[i], b.VLo[i])
		vhi := max(a.VHi[i], b.VHi[i])
		lo := min(a.Lo[i]+a.VLo[i]*t1, b.Lo[i]+b.VLo[i]*t1) - vlo*t1
		hi := max(a.Hi[i]+a.VHi[i]*t1, b.Hi[i]+b.VHi[i]*t1) - vhi*t1
		uc0[i] = hi - lo
		uc1[i] = vhi - vlo
	}
	area, ok := areaIntegralFast(&ac0, &ac1, t1, t2, dims)
	if !ok {
		area = areaIntegralSlow(*a, t1, t2, dims)
	}
	union, ok := areaIntegralFast(&uc0, &uc1, t1, t2, dims)
	if !ok {
		union = areaIntegralSlow(UnionConservative(*a, *b, t1, dims), t1, t2, dims)
	}
	return area, union - area
}

// areaIntegralFast integrates the product of the extents c0[i] +
// c1[i]·t over [t1, t2], t1 < t2, when every extent stays positive
// there (the common case on the insertion hot path): the integrand is
// then a polynomial of degree <= 3, integrated exactly by two-point
// Gauss-Legendre.  ok is false when an extent reaches zero.
func areaIntegralFast(c0, c1 *Vec, t1, t2 float64, dims int) (area float64, ok bool) {
	for i := 0; i < dims; i++ {
		if c0[i]+c1[i]*t1 <= 0 || c0[i]+c1[i]*t2 <= 0 {
			return 0, false
		}
	}
	h := t2 - t1
	m := (t1 + t2) / 2
	d := h / (2 * math.Sqrt(3))
	pa, pb := 1.0, 1.0
	for i := 0; i < dims; i++ {
		pa *= c0[i] + c1[i]*(m-d)
		pb *= c0[i] + c1[i]*(m+d)
	}
	return h / 2 * (pa + pb), true
}

func areaIntegralSlow(r TPRect, t1, t2 float64, dims int) float64 {
	exts := make([]lin, dims)
	var breaks []float64
	for i := 0; i < dims; i++ {
		exts[i] = extent(r, i)
		breaks = exts[i].root(breaks, t1, t2)
	}
	f := func(t float64) float64 {
		p := 1.0
		for i := 0; i < dims; i++ {
			p *= exts[i].at(t)
		}
		return p
	}
	pred := func(t float64) bool {
		for i := 0; i < dims; i++ {
			if exts[i].at(t) <= 0 {
				return false
			}
		}
		return true
	}
	return integratePieces(f, pred, breaks, t1, t2)
}

// MarginIntegral returns the integral over [t1, t2] of the sum of the
// (individually clamped) extents of r.
func MarginIntegral(r TPRect, t1, t2 float64, dims int) float64 {
	if t2 <= t1 {
		return 0
	}
	var total float64
	for i := 0; i < dims; i++ {
		e := extent(r, i)
		breaks := e.root(nil, t1, t2)
		total += integratePieces(
			func(t float64) float64 { return e.at(t) },
			func(t float64) bool { return e.at(t) > 0 },
			breaks, t1, t2)
	}
	return total
}

// overlap1 returns dimension i's overlap of a and b at time t:
// min(hi_a, hi_b) - max(lo_a, lo_b), not clamped.
func overlap1(a, b TPRect, i int, t float64) float64 {
	hi := math.Min(a.Hi[i]+a.VHi[i]*t, b.Hi[i]+b.VHi[i]*t)
	lo := math.Max(a.Lo[i]+a.VLo[i]*t, b.Lo[i]+b.VLo[i]*t)
	return hi - lo
}

// OverlapIntegral returns the integral over [t1, t2] of the volume of
// the intersection of a and b.
func OverlapIntegral(a, b TPRect, t1, t2 float64, dims int) float64 {
	if t2 <= t1 {
		return 0
	}
	var breaks []float64
	for i := 0; i < dims; i++ {
		// Branch switches of the min/max envelopes and zero crossings
		// of the overlap under each branch combination.  Extraneous
		// candidates only split the integral into more (still exact)
		// pieces.
		pairs := [...][2]lin{
			{lin{a.Hi[i], a.VHi[i]}, lin{b.Hi[i], b.VHi[i]}},
			{lin{a.Lo[i], a.VLo[i]}, lin{b.Lo[i], b.VLo[i]}},
			{lin{a.Hi[i], a.VHi[i]}, lin{a.Lo[i], a.VLo[i]}},
			{lin{a.Hi[i], a.VHi[i]}, lin{b.Lo[i], b.VLo[i]}},
			{lin{b.Hi[i], b.VHi[i]}, lin{a.Lo[i], a.VLo[i]}},
			{lin{b.Hi[i], b.VHi[i]}, lin{b.Lo[i], b.VLo[i]}},
		}
		for _, p := range pairs {
			diff := lin{p[0].c0 - p[1].c0, p[0].c1 - p[1].c1}
			breaks = diff.root(breaks, t1, t2)
		}
	}
	f := func(t float64) float64 {
		p := 1.0
		for i := 0; i < dims; i++ {
			p *= overlap1(a, b, i, t)
		}
		return p
	}
	pred := func(t float64) bool {
		for i := 0; i < dims; i++ {
			if overlap1(a, b, i, t) <= 0 {
				return false
			}
		}
		return true
	}
	return integratePieces(f, pred, breaks, t1, t2)
}

// CenterDistIntegral returns the integral over [t1, t2] of the
// Euclidean distance between the centers of a and b.  The integrand is
// sqrt of a quadratic; composite Simpson quadrature with a fixed panel
// count is used because the value is only ever compared against other
// such integrals (forced-reinsertion ranking), where a smooth
// approximation is sufficient.
func CenterDistIntegral(a, b TPRect, t1, t2 float64, dims int) float64 {
	if t2 <= t1 {
		return 0
	}
	f := func(t float64) float64 {
		var s float64
		for i := 0; i < dims; i++ {
			ca := (a.Lo[i] + a.VLo[i]*t + a.Hi[i] + a.VHi[i]*t) / 2
			cb := (b.Lo[i] + b.VLo[i]*t + b.Hi[i] + b.VHi[i]*t) / 2
			d := ca - cb
			s += d * d
		}
		return math.Sqrt(s)
	}
	const panels = 16
	h := (t2 - t1) / panels
	total := f(t1) + f(t2)
	for k := 1; k < panels; k++ {
		w := 2.0
		if k%2 == 1 {
			w = 4.0
		}
		total += w * f(t1+float64(k)*h)
	}
	return total * h / 3
}
