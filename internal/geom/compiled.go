package geom

import "math"

// shape is the form of a query's trapezoid, which picks the leaf loop.
type shape uint8

const (
	shapeTimeslice shape = iota // T1 == T2, static region: one instant
	shapeWindow                 // static region: the same bounds at both ends
	shapeMoving                 // the bounds at a capped end are computed per entry
)

// verdict is the filter's answer for one entry.
type verdict int8

const (
	reject    verdict = -1 // no instant of the interval intersects
	undecided verdict = 0  // too close to a boundary to tell: run the clip sequence
	accept    verdict = 1  // some end of the interval intersects
)

// The margin.  clipLE decides a constraint a(t) <= b(t), with
// a(t) = a0 + a1·t and b(t) = b0 + b1·t, from c0 = fl(a0-b0) and
// c1 = fl(a1-b1): it keeps the part of the interval where
// l(t) = c0 + c1·t <= 0 and cuts it at x = fl(-c0/c1).  The filter
// instead evaluates the entry's side e = fl(e0 + fl(e1·t)), the region's
// centre c and half-width h (from its bounds at t, fl(r0 + fl(r1·t)), or
// r0 itself when it is static) and g = fl(fl(c - e) - h) or
// fl(fl(e - c) - h) — or, for a point, w = fl(|fl(e - c)| - h), which
// is the larger of its dimension's two constraints in exact arithmetic.
// Let u = 2^-53, eta = 2^-1075 (the absolute error of an underflowing
// product), E = |e0| + |e1|·|t| and R = |r0| + |r1|·|t| (the larger of
// the region's two bounds).
//
//  1. Counting roundings, |g - l(t)| <= 5u·E + 10u·R + 5·eta, l's own two
//     included; a fused multiply-add only removes roundings.  When a
//     point's w clears the margin, |fl(e - c)| exceeds that error, so
//     its sign names the violated constraint.
//  2. Accept needs l(s) < 0 for every constraint at one end s of
//     [t1, t2].  Each root -c0/c1 then lies strictly on the side of s
//     the clip keeps (or c1 == 0 and c0 < 0); rounding is monotone and
//     s is a float, so every cut x lands on s or beyond it, and the
//     reference's interval keeps s: it is nonempty.
//  3. Reject needs l > 0 at both ends of one constraint, and x strictly
//     beyond the end it moves, so the clip leaves Lo > Hi.  x is within
//     u·|x| + eta of the root, which lies |l(t)|/|c1| from the end t, and
//     |c1| <= (1+u)·(|a1|+|b1|); so l(t) > (1+3u)·(|a1|+|b1|)·(u·|t| + eta)
//     suffices, which is at most 1.01u·(E+R) + 1.01·(|a1|+|b1|)·eta.
//
// Hence |g| > 6.01u·E + 11.01u·R + 5·eta + 1.01·(|a1|+|b1|)·eta decides
// l's sign and the division's side.  The filter's margin is
//
//	m = 2^-48·(|e0| + |e1|·tm) + 2^-48·(|r0| + |r1|·tm) + 2^-1000,
//	tm = max(|T1|, |T2|) + 2^-1000,
//
// which covers it with room for its own rounding: 2^-48 = 32u, the tm
// terms carry (|a1|+|b1|)·2^-1048 >= 1.01·(|a1|+|b1|)·eta, and the floor
// 2^-1000 absorbs 5·eta and any underflow in computing m.  An entry's
// capped end lies in [T1, T2], so tm bounds its |t| too.  marginOf makes
// a term infinite once its magnitude reaches 2^964, so no finite margin
// sits beside an overflowed evaluation; an infinite or NaN margin, like
// a NaN value, leaves every comparison false and the constraint
// undecided.  The page format's float32 coordinates (|x| <= 2^128) keep
// every margin finite for any realistic t.
const marginFloor = 0x1p-1000

// marginOf returns 2^-48·s for s < 2^964 and +Inf above: s·2^60 is exact
// until it overflows, and the second factor scales it back exactly.
func marginOf(s float64) float64 { return s * 0x1p60 * 0x1p-108 }

// Compiled is a Query compiled for one traversal: it returns
// Query.MatchesRect's and Query.MatchesPoint's verdicts bit for bit, but
// decides almost every entry with multiplies, adds and compares.  An
// entry near a boundary, or one that crosses the region's boundary
// during the interval without being inside at either end, runs the
// reference clip sequence.  Build it once per query with Compile; it is
// a value and does not escape.
type Compiled struct {
	q      Query
	dims   int
	useExp bool
	shape  shape
	tm     float64 // max(|T1|, |T2|) + 2^-1000: the |t| of the margin
	c1, h1 Vec     // the region's centre and half-width at T1
	c2, h2 Vec     // and at T2
	qm     Vec     // the region's share of each dimension's margin, floor included
}

// Compile prepares q for testing entries of a dims-dimensional index,
// honoring entry expiration times when useExp is set (see MatchesRect).
func Compile(q Query, dims int, useExp bool) Compiled {
	c := Compiled{q: q, dims: dims, useExp: useExp, shape: shapeWindow}
	c.tm = max(math.Abs(q.T1), math.Abs(q.T2)) + marginFloor
	r := &q.Region
	for d := 0; d < dims; d++ {
		if r.VLo[d] != 0 || r.VHi[d] != 0 {
			c.shape = shapeMoving
		}
	}
	if c.shape == shapeWindow && q.T1 == q.T2 {
		c.shape = shapeTimeslice
	}
	for d := 0; d < dims; d++ {
		if c.shape == shapeMoving {
			c.c1[d], c.h1[d] = c.regionAt(d, q.T1)
			c.c2[d], c.h2[d] = c.regionAt(d, q.T2)
		} else {
			c.c1[d], c.h1[d] = midHalf(r.Lo[d], r.Hi[d])
			c.c2[d], c.h2[d] = c.c1[d], c.h1[d]
		}
		lo := math.Abs(r.Lo[d]) + math.Abs(r.VLo[d])*c.tm
		hi := math.Abs(r.Hi[d]) + math.Abs(r.VHi[d])*c.tm
		c.qm[d] = marginOf(max(lo, hi)) + marginFloor
		if !(c.h1[d] >= 0 && c.h2[d] >= 0) {
			// An inverted or non-finite region: leave the dimension to
			// the clip sequence.
			c.qm[d] = math.Inf(1)
		}
	}
	return c
}

// midHalf returns the midpoint and half-width of [lo, hi].
func midHalf(lo, hi float64) (mid, half float64) { return (lo + hi) * 0.5, (hi - lo) * 0.5 }

// regionAt returns the moving region's centre and half-width in
// dimension d at time t.
func (c *Compiled) regionAt(d int, t float64) (mid, half float64) {
	r := &c.q.Region
	return midHalf(r.Lo[d]+r.VLo[d]*t, r.Hi[d]+r.VHi[d]*t)
}

// end caps the query interval at an entry's expiration time as
// MatchesRect does; ok is false when the capped interval is empty.
func (c *Compiled) end(texp float64) (t2 float64, ok bool) {
	t2 = c.q.T2
	if c.useExp && texp < t2 {
		t2 = texp
	}
	return t2, !(c.q.T1 > t2)
}

// Points calls hit(i), in column order, for every point i of a leaf's
// columns that the query matches: what MatchesPoint reports for the
// trajectory pos[i·dims:] + vel[i·dims:]·t expiring at texp[i].  When
// expiration times are honored it skips points that expired before
// live.  It returns false as soon as hit does.
func (c *Compiled) Points(pos, vel, texp []float64, live float64, hit func(i int) bool) bool {
	// A point's filter is rectOver's on its degenerate rectangle, bit for
	// bit: w = |x| − h is the larger of rectOver's x − h and −x − h, and
	// fl(c − e) = −fl(e − c).  It is written out rather than called per
	// entry: the call made BenchmarkSearchSnap 10–18 % slower.  A
	// timeslice has its own loop, one instant and one evaluation per
	// dimension, which beats the interval loop there by about a fifth.
	dims, tm, t1 := c.dims, c.tm, c.q.T1
	if c.shape == shapeTimeslice {
	instant:
		for i, te := range texp {
			if c.useExp && (te < live || te < t1) {
				continue // expired, or expired before the instant (the capped interval is empty)
			}
			b, in := i*dims, true
			for d := 0; d < dims; d++ {
				p, v := pos[b+d], vel[b+d]
				m := marginOf(math.Abs(p)+math.Abs(v)*tm) + c.qm[d]
				w := math.Abs(p+v*t1-c.c1[d]) - c.h1[d]
				if w > m {
					continue instant
				}
				in = in && w < -m
			}
			if (in || c.exact(pos[b:b+dims], pos[b:b+dims], vel[b:b+dims], vel[b:b+dims], t1)) && !hit(i) {
				return false
			}
		}
		return true
	}
interval:
	for i, te := range texp {
		if c.useExp && te < live {
			continue
		}
		t2, ok := c.end(te)
		if !ok {
			continue
		}
		b, capped := i*dims, c.capped(t2)
		in1, in2 := true, true
		for d := 0; d < dims; d++ {
			p, v := pos[b+d], vel[b+d]
			c2, h2 := c.c2[d], c.h2[d]
			if capped {
				c2, h2 = c.regionAt(d, t2)
			}
			m := marginOf(math.Abs(p)+math.Abs(v)*tm) + c.qm[d]
			d1, d2 := p+v*t1-c.c1[d], p+v*t2-c2
			w1, w2 := math.Abs(d1)-c.h1[d], math.Abs(d2)-h2
			if w1 > m && w2 > m && (d1 < 0) == (d2 < 0) {
				continue interval // outside on the same side at both ends
			}
			in1, in2 = in1 && w1 < -m, in2 && w2 < -m
		}
		if (in1 || in2 || c.exact(pos[b:b+dims], pos[b:b+dims], vel[b:b+dims], vel[b:b+dims], t2)) && !hit(i) {
			return false
		}
	}
	return true
}

// MatchesPoint is the compiled query's MatchesPoint(*p, dims, useExp).
func (c *Compiled) MatchesPoint(p *MovingPoint) bool {
	te := [1]float64{p.TExp}
	return !c.Points(p.Pos[:c.dims], p.Vel[:c.dims], te[:], math.Inf(-1), func(int) bool { return false })
}

// MatchesRect is the compiled query's MatchesRect(*br, dims, useExp).
func (c *Compiled) MatchesRect(br *TPRect) bool {
	return c.Rect(br.Lo[:c.dims], br.Hi[:c.dims], br.VLo[:c.dims], br.VHi[:c.dims], br.TExp)
}

// Rect reports MatchesRect for the rectangle with the given bound
// columns (the first dims coordinates each) expiring at texp.
func (c *Compiled) Rect(lo, hi, vlo, vhi []float64, texp float64) bool {
	t2, ok := c.end(texp)
	if !ok {
		return false
	}
	if v := c.rectOver(lo, hi, vlo, vhi, t2); v != undecided {
		return v == accept
	}
	return c.exact(lo, hi, vlo, vhi, t2)
}

// Rejects reports that the filter rejects the rectangle over the whole
// query interval [T1, T2].  The constraint that fails there fails at T1
// and beyond any capped end in [T1, T2], so Rect is then false whatever
// the expiration time: a caller may skip computing one.
func (c *Compiled) Rejects(lo, hi, vlo, vhi []float64) bool {
	return c.q.T1 > c.q.T2 || c.rectOver(lo, hi, vlo, vhi, c.q.T2) == reject
}

// rectOver is the two-end filter of a rectangle over [T1, t2]: the
// region's low bound against the entry's high bound, and the entry's
// low bound against the region's high bound.
func (c *Compiled) rectOver(lo, hi, vlo, vhi []float64, t2 float64) verdict {
	t1, tm := c.q.T1, c.tm
	capped := c.capped(t2)
	hi, vlo, vhi = hi[:len(lo)], vlo[:len(lo)], vhi[:len(lo)]
	in1, in2 := true, true
	for d, l0 := range lo {
		c2, h2 := c.c2[d], c.h2[d]
		if capped {
			c2, h2 = c.regionAt(d, t2)
		}
		mb := marginOf(math.Abs(hi[d])+math.Abs(vhi[d])*tm) + c.qm[d]
		ma := marginOf(math.Abs(l0)+math.Abs(vlo[d])*tm) + c.qm[d]
		below1 := c.c1[d] - (hi[d] + vhi[d]*t1) - c.h1[d]
		below2 := c2 - (hi[d] + vhi[d]*t2) - h2
		above1 := (l0 + vlo[d]*t1) - c.c1[d] - c.h1[d]
		above2 := (l0 + vlo[d]*t2) - c2 - h2
		if (below1 > mb && below2 > mb) || (above1 > ma && above2 > ma) {
			return reject
		}
		in1 = in1 && below1 < -mb && above1 < -ma
		in2 = in2 && below2 < -mb && above2 < -ma
	}
	if in1 || in2 {
		return accept
	}
	return undecided
}

// capped reports that the region's bounds at t2 are not the precomputed
// ones: a moving region whose interval an expiration time cut short.
func (c *Compiled) capped(t2 float64) bool {
	return c.shape == shapeMoving && t2 != c.q.T2
}

// exact is Intersects(q.Region, entry, T1, t2, dims) over columns: the
// reference clip sequence, same operands in the same order.
func (c *Compiled) exact(lo, hi, vlo, vhi []float64, t2 float64) bool {
	r := &c.q.Region
	iv := Interval{c.q.T1, t2}
	for d := 0; d < c.dims && !iv.Empty(); d++ {
		iv = ClipLE(iv, r.Lo[d], r.VLo[d], hi[d], vhi[d])
		iv = ClipLE(iv, lo[d], vlo[d], r.Hi[d], r.VHi[d])
	}
	return !iv.Empty()
}
