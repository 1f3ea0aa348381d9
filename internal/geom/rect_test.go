package geom

import (
	"math/rand"
	"testing"
)

func TestRectExtendContains(t *testing.T) {
	r := Rect{Lo: Vec{0, 0}, Hi: Vec{2, 3}}
	if !r.ContainsPoint(Vec{1, 1}, 2) {
		t.Error("does not contain interior point")
	}
	if !r.ContainsPoint(Vec{0, 0}, 2) || !r.ContainsPoint(Vec{2, 3}, 2) {
		t.Error("does not contain corner")
	}
	if r.ContainsPoint(Vec{2.1, 1}, 2) {
		t.Error("contains outside point")
	}
	s := Rect{Lo: Vec{0.5, 0.5}, Hi: Vec{1, 1}}
	if !r.ContainsRect(s, 2) {
		t.Error("does not contain inner rect")
	}
	if s.ContainsRect(r, 2) {
		t.Error("inner rect contains outer")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Lo: Vec{0, 0}, Hi: Vec{2, 2}}
	b := Rect{Lo: Vec{1, 1}, Hi: Vec{3, 3}}
	c := Rect{Lo: Vec{2.5, 0}, Hi: Vec{3, 1}}
	d := Rect{Lo: Vec{2, 2}, Hi: Vec{4, 4}} // touches corner
	if !a.Intersects(b, 2) || !b.Intersects(a, 2) {
		t.Error("overlapping rects do not intersect")
	}
	if a.Intersects(c, 2) {
		t.Error("disjoint rects intersect")
	}
	if !a.Intersects(d, 2) {
		t.Error("corner-touching rects should intersect (closed rects)")
	}
}

func TestRectAreaMarginCenter(t *testing.T) {
	r := Rect{Lo: Vec{1, 2}, Hi: Vec{4, 6}}
	if got := r.Area(2); got != 12 {
		t.Errorf("area = %v", got)
	}
	if got := r.Center(2); got != (Vec{2.5, 4}) {
		t.Errorf("center = %v", got)
	}
	// 1D view of the same rect
	if got := r.Area(1); got != 3 {
		t.Errorf("1d area = %v", got)
	}
	// 3D with zero extent in z
	if got := r.Area(3); got != 0 {
		t.Errorf("3d area = %v", got)
	}
}

func randRect(rng *rand.Rand, dims int) Rect {
	var r Rect
	for i := 0; i < dims; i++ {
		a := rng.Float64()*100 - 50
		b := a + rng.Float64()*20
		r.Lo[i], r.Hi[i] = a, b
	}
	return r
}
