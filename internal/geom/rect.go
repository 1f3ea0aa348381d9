package geom

import "fmt"

// Rect is a static (snapshot) d-dimensional axis-parallel rectangle.
type Rect struct {
	Lo, Hi Vec
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Vec, dims int) bool {
	for i := 0; i < dims; i++ {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies fully inside r.
func (r Rect) ContainsRect(s Rect, dims int) bool {
	for i := 0; i < dims; i++ {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect, dims int) bool {
	for i := 0; i < dims; i++ {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of r (0 if empty).
func (r Rect) Area(dims int) float64 {
	a := 1.0
	for i := 0; i < dims; i++ {
		e := r.Hi[i] - r.Lo[i]
		if e < 0 {
			return 0
		}
		a *= e
	}
	return a
}

// Center returns the midpoint of r.
func (r Rect) Center(dims int) Vec {
	var c Vec
	for i := 0; i < dims; i++ {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

func (r Rect) String() string {
	return fmt.Sprintf("Rect[%v..%v]", r.Lo, r.Hi)
}
