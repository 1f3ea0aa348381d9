package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMovingPointAt(t *testing.T) {
	p := MovingPoint{Pos: Vec{10, 20}, Vel: Vec{1, -2}, TExp: 5}
	if got := p.At(0); got != (Vec{10, 20}) {
		t.Errorf("At(0) = %v", got)
	}
	if got := p.At(3); got != (Vec{13, 14}) {
		t.Errorf("At(3) = %v", got)
	}
	if p.Expired(4.9) {
		t.Error("expired before TExp")
	}
	if !p.Expired(5.1) {
		t.Error("not expired after TExp")
	}
}

func TestTPRectAt(t *testing.T) {
	r := TPRect{Lo: Vec{0, 0}, Hi: Vec{10, 10}, VLo: Vec{-1, 0}, VHi: Vec{2, 1}, TExp: Inf()}
	s := r.At(2)
	want := Rect{Lo: Vec{-2, 0}, Hi: Vec{14, 12}}
	if s != want {
		t.Errorf("At(2) = %v, want %v", s, want)
	}
}

func TestTPRectAtRoundTrip(t *testing.T) {
	// TPRectAt(t, r, ...).At(t) must recover r.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		r := randRect(rng, 2)
		var vlo, vhi Vec
		for i := 0; i < 2; i++ {
			vlo[i] = rng.Float64()*4 - 2
			vhi[i] = rng.Float64()*4 - 2
		}
		now := rng.Float64() * 100
		tp := TPRectAt(now, r, vlo, vhi, Inf(), 2)
		got := tp.At(now)
		for i := 0; i < 2; i++ {
			if math.Abs(got.Lo[i]-r.Lo[i]) > 1e-9 || math.Abs(got.Hi[i]-r.Hi[i]) > 1e-9 {
				t.Fatalf("round trip: got %v want %v", got, r)
			}
		}
	}
}

func TestPointTPRectDegenerate(t *testing.T) {
	p := MovingPoint{Pos: Vec{1, 2}, Vel: Vec{3, 4}, TExp: 9}
	r := PointTPRect(p)
	for _, tt := range []float64{0, 1, 5.5} {
		s := r.At(tt)
		if s.Lo != p.At(tt) || s.Hi != p.At(tt) {
			t.Fatalf("degenerate rect at %v: %v vs %v", tt, s, p.At(tt))
		}
	}
	if r.TExp != 9 {
		t.Errorf("TExp = %v", r.TExp)
	}
}

func TestContainsTrajectory(t *testing.T) {
	// A conservative interval around two 1-D points.
	br := TPRect{Lo: Vec{0}, Hi: Vec{10}, VLo: Vec{-1}, VHi: Vec{2}, TExp: Inf()}
	in := MovingPoint{Pos: Vec{5}, Vel: Vec{1}, TExp: Inf()}
	out := MovingPoint{Pos: Vec{5}, Vel: Vec{3}, TExp: Inf()} // escapes through the top
	if !br.ContainsTrajectory(in, 0, 100, 1) {
		t.Error("inside trajectory reported outside")
	}
	if br.ContainsTrajectory(out, 0, 100, 1) {
		t.Error("escaping trajectory reported inside")
	}
	// ...but over a short horizon the fast point is still inside.
	if !br.ContainsTrajectory(out, 0, 2, 1) {
		t.Error("fast point should be inside over [0,2]")
	}
}

func TestUnionConservativeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		now := rng.Float64() * 10
		mk := func() TPRect {
			r := randRect(rng, 2)
			var vlo, vhi Vec
			for i := 0; i < 2; i++ {
				vlo[i] = rng.Float64()*4 - 2
				vhi[i] = vlo[i] + rng.Float64()*2
			}
			return TPRectAt(now, r, vlo, vhi, Inf(), 2)
		}
		a, b := mk(), mk()
		u := UnionConservative(a, b, now, 2)
		// The union must contain both operands at now and far in the
		// future, up to round-off from the epoch back-extrapolation.
		contains := func(outer, inner Rect, eps float64) bool {
			for i := 0; i < 2; i++ {
				if inner.Lo[i] < outer.Lo[i]-eps || inner.Hi[i] > outer.Hi[i]+eps {
					return false
				}
			}
			return true
		}
		for _, tt := range []float64{now, now + 1, now + 50, now + 1000} {
			eps := 1e-9 * (1 + tt)
			if !contains(u.At(tt), a.At(tt), eps) || !contains(u.At(tt), b.At(tt), eps) {
				t.Fatalf("union does not bound operands at t=%v", tt)
			}
		}
	}
}

func TestUnionConservativeExpiration(t *testing.T) {
	a := TPRect{Lo: Vec{0}, Hi: Vec{1}, TExp: 5}
	b := TPRect{Lo: Vec{2}, Hi: Vec{3}, TExp: 9}
	u := UnionConservative(a, b, 0, 1)
	if u.TExp != 9 {
		t.Errorf("union TExp = %v, want 9 (max)", u.TExp)
	}
	c := TPRect{Lo: Vec{0}, Hi: Vec{1}, TExp: Inf()}
	u2 := UnionConservative(a, c, 0, 1)
	if !math.IsInf(u2.TExp, 1) {
		t.Errorf("union with infinite TExp = %v", u2.TExp)
	}
}
