package geom

import (
	"math"
	"math/rand"
	"testing"
)

// ulps returns x moved k units in the last place (toward +Inf for k > 0).
func ulps(x float64, k int64) float64 {
	if x < 0 || (x == 0 && k < 0) {
		return -ulps(-x, -k)
	}
	return math.Float64frombits(uint64(int64(math.Float64bits(x)) + k))
}

// checkCompiled requires the compiled predicate to return the reference
// verdict for entry e (a point when point is set), and Rejects to imply
// a false MatchesRect.  It returns the verdict and whether the exact
// clip sequence decided it: whether rectOver left the entry undecided
// (a point's filter is rectOver's on its degenerate rectangle).
func checkCompiled(t *testing.T, q Query, e TPRect, point bool, dims int, useExp bool) (match, exact bool) {
	t.Helper()
	c := Compile(q, dims, useExp)
	var want bool
	if point {
		p := MovingPoint{Pos: e.Lo, Vel: e.VLo, TExp: e.TExp}
		match, want = c.MatchesPoint(&p), q.MatchesPoint(p, dims, useExp)
		e = PointTPRect(p)
	} else {
		match, want = c.MatchesRect(&e), q.MatchesRect(e, dims, useExp)
	}
	t2, ok := c.end(e.TExp)
	exact = ok && c.rectOver(e.Lo[:dims], e.Hi[:dims], e.VLo[:dims], e.VHi[:dims], t2) == undecided
	if match != want {
		t.Fatalf("compiled %v, reference %v (exact fallback %v, useExp %v, dims %d)\nquery %+v\nentry %+v",
			match, want, exact, useExp, dims, q, e)
	}
	if c.Rejects(e.Lo[:dims], e.Hi[:dims], e.VLo[:dims], e.VHi[:dims]) && q.MatchesRect(e, dims, useExp) {
		t.Fatalf("Rejects over [T1, T2] but MatchesRect holds\nquery %+v\nentry %+v", q, e)
	}
	return match, exact
}

// verdictCount tallies how the compiled predicate decided entries:
// rejected or accepted by the filter, or by the exact clip sequence.
type verdictCount struct{ rejected, accepted, exact int }

func (n *verdictCount) add(match, exact bool) {
	switch {
	case exact:
		n.exact++
	case match:
		n.accepted++
	default:
		n.rejected++
	}
}

// TestCompiledMatchesReference places entries on the region's edges and
// a few ulps off them, for every query shape in one to three
// dimensions, and requires the compiled predicate's verdict to be the
// reference's.  It also requires the table to reach the exact fallback
// and both filter decisions, so each path is exercised.
func TestCompiledMatchesReference(t *testing.T) {
	type window struct {
		shape  shape
		t1, t2 float64
		vel    float64 // the region's velocity in every dimension (moving only)
	}
	windows := []window{
		{shapeTimeslice, 0, 0, 0},
		{shapeTimeslice, 8, 8, 0},
		{shapeTimeslice, 3e9, 3e9, 0},
		{shapeWindow, 8, 24, 0},
		{shapeWindow, 1 << 40, 1<<40 + 16, 0},
		{shapeMoving, 8, 24, 0.75},
		{shapeMoving, 1e9, 1e9 + 16, -1.5},
	}
	regions := []struct{ lo, hi float64 }{{100.25, 350}, {-50.5, 0}}
	offsets := []int64{0, 1, -1, 2, -2, 1 << 20, -(1 << 20)}
	var n verdictCount
	for dims := 1; dims <= MaxDims; dims++ {
		for _, w := range windows {
			for _, reg := range regions {
				var r Rect
				var rv Vec
				for d := 0; d < dims; d++ {
					r.Lo[d], r.Hi[d] = reg.lo+float64(d), reg.hi+float64(d)
					rv[d] = w.vel
				}
				q := Window(r, w.t1, w.t2)
				if w.shape == shapeMoving {
					q.Region = TPRectAt(w.t1, r, rv, rv, math.Inf(1), dims)
				}
				if c := Compile(q, dims, true); c.shape != w.shape {
					t.Fatalf("shape %d, want %d", c.shape, w.shape)
				}
				texps := []float64{math.Inf(1), w.t1, math.Nextafter(w.t1, math.Inf(-1)), (w.t1 + w.t2) / 2, w.t2}
				// Entry velocities: static, two arbitrary ones, and the
				// region's own (c1 == 0 in every constraint).
				vels := []struct{ lo, hi float64 }{{0, 0}, {0.5, 0.5}, {-1.25, 2}, {1, -0.5}, {w.vel, w.vel}}
				for _, tp := range []float64{w.t1, w.t2} {
					at := q.Region.At(tp)
					for d := 0; d < dims; d++ {
						for _, edge := range []float64{at.Lo[d], at.Hi[d]} {
							for _, k := range offsets {
								x := ulps(edge, k)
								for _, v := range vels {
									for _, texp := range texps {
										for _, useExp := range []bool{true, false} {
											// A point through x at tp; other dimensions
											// at the region's centre.
											var e TPRect
											for j := 0; j < dims; j++ {
												pos := (at.Lo[j] + at.Hi[j]) / 2
												if j == d {
													pos = x
												}
												e.Lo[j] = pos - v.lo*tp
												e.VLo[j] = v.lo
											}
											e.Hi, e.VHi, e.TExp = e.Lo, e.VLo, texp
											n.add(checkCompiled(t, q, e, true, dims, useExp))
											// A rectangle of width 5 whose high edge
											// (against the region's low) or low edge
											// (against its high) is at x at tp.
											for j := 0; j < dims; j++ {
												e.VLo[j], e.VHi[j] = v.lo, v.hi
												lo := (at.Lo[j]+at.Hi[j])/2 - 2.5
												if j == d && edge == at.Lo[d] {
													lo = x - 5
												} else if j == d {
													lo = x
												}
												e.Lo[j] = lo - v.lo*tp
												e.Hi[j] = lo + 5 - v.hi*tp
											}
											if v.hi < v.lo { // shrinking: capped at its derived expiry
												e.TExp = DerivedExp(&e, w.t1, dims)
											}
											n.add(checkCompiled(t, q, e, false, dims, useExp))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d rejected and %d accepted by the filter, %d decided by the clip sequence", n.rejected, n.accepted, n.exact)
	if n.rejected == 0 || n.accepted == 0 || n.exact == 0 {
		t.Errorf("the table misses a path: %+v", n)
	}
}

// TestCompiledFallbackRare draws queries and entries from the property
// generator and requires the filter to decide at least 99 % of them
// itself — the fast path is the one taken — while every verdict still
// matches the reference.
func TestCompiledFallbackRare(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	draw := func() TPRect { return TPRect{}.Generate(rng, 0).Interface().(TPRect) }
	const dims = 2
	var n verdictCount
	for i := 0; i < 20000; i++ {
		reg, e := draw(), draw()
		t1 := rng.Float64() * 5
		var q Query
		switch i % 3 {
		case 0:
			q = Timeslice(Rect{Lo: reg.Lo, Hi: reg.Hi}, t1)
		case 1:
			q = Window(Rect{Lo: reg.Lo, Hi: reg.Hi}, t1, t1+rng.Float64()*10)
		default:
			q = Query{Region: reg, T1: t1, T2: t1 + rng.Float64()*10}
		}
		for _, point := range []bool{true, false} {
			n.add(checkCompiled(t, q, e, point, dims, true))
		}
	}
	total := n.rejected + n.accepted + n.exact
	t.Logf("exact fallback decided %d of %d entries", n.exact, total)
	if n.exact*100 >= total {
		t.Errorf("exact fallback decided %d of %d entries, want under 1%%", n.exact, total)
	}
}

// FuzzCompiledVsIntersects drives the compiled predicate against the
// reference with entries placed k ulps from a region edge at an end of
// the interval.  mode picks the dimensions (1-3), the shape, point or
// rectangle, the edge, the end and useExp.
func FuzzCompiledVsIntersects(f *testing.F) {
	// mode = dims-1 + 3·shape + 9·rect + 18·highEdge + 36·atT2 + 72·noExp
	f.Add(100.25, 249.75, 0.0, 0.0, 8.0, 0.0, 0.0, 0.0, 0.0, math.Inf(1), int64(0), uint8(1))
	f.Add(100.25, 249.75, 0.0, 0.0, 8.0, 0.0, 0.0, 0.0, 0.0, math.Inf(1), int64(1), uint8(1+18))
	f.Add(100.25, 249.75, 0.0, 0.0, 8.0, 16.0, 0.5, 0.5, 0.0, 8.0, int64(-2), uint8(1+3+36))
	f.Add(100.25, 249.75, 0.0, 0.0, 8.0, 16.0, -1.25, 2.0, 5.0, math.Nextafter(8, 0), int64(1<<20), uint8(2+3+9))
	f.Add(-50.5, 50.5, 0.75, 0.75, 8.0, 16.0, 0.75, 0.75, 0.0, math.Inf(1), int64(0), uint8(1+6+18))
	f.Add(-50.5, 50.5, 0.75, 0.75, 8.0, 16.0, 0.75, 0.75, 5.0, math.Inf(1), int64(-1), uint8(6+9+36))
	f.Add(100.25, 249.75, -1.5, 2.0, 1e9, 16.0, 1.0, -0.5, 5.0, 1e9+3, int64(2), uint8(2+6+9+18))
	f.Add(0.0, 1.0, 0.0, 0.0, 3e9, 0.0, 3.0, 3.0, 0.0, 3e9, int64(-(1 << 20)), uint8(0+72))
	f.Fuzz(func(t *testing.T, rlo, rw, rvlo, rvhi, t1, dt, evlo, evhi, ew, texp float64, k int64, mode uint8) {
		dims := 1 + int(mode%3)
		sh := shape(mode / 3 % 3)
		rect := mode/9%2 == 1
		highEdge := mode/18%2 == 1
		atT2 := mode/36%2 == 1
		useExp := mode/72%2 == 0
		k %= 1 << 21

		t2 := t1 + math.Abs(dt)
		if sh == shapeTimeslice {
			t2 = t1
		}
		var r Rect
		var rvl, rvh Vec
		for d := 0; d < dims; d++ {
			r.Lo[d] = rlo + float64(d)
			r.Hi[d] = r.Lo[d] + math.Abs(rw)
			if sh == shapeMoving {
				rvl[d], rvh[d] = rvlo, rvhi
			}
		}
		q := Window(r, t1, t2)
		if sh == shapeMoving {
			q.Region = TPRectAt(t1, r, rvl, rvh, math.Inf(1), dims)
		}
		tp := t1
		if atT2 {
			tp = t2
		}
		at := q.Region.At(tp)
		var e TPRect
		e.TExp = texp
		if !rect {
			evhi, ew = evlo, 0
		}
		for d := 0; d < dims; d++ {
			lo := (at.Lo[d]+at.Hi[d])/2 - math.Abs(ew)/2
			if d == 0 && highEdge {
				lo = ulps(at.Hi[d], k)
			} else if d == 0 {
				lo = ulps(at.Lo[d], k) - math.Abs(ew)
			}
			e.Lo[d] = lo - evlo*tp
			e.Hi[d] = lo + math.Abs(ew) - evhi*tp
			e.VLo[d], e.VHi[d] = evlo, evhi
		}
		checkCompiled(t, q, e, !rect, dims, useExp)
	})
}
