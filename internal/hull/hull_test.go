package hull

import (
	"math"
	"math/rand"
	"testing"
)

// at evaluates the line at τ = t.
func (l line) at(t float64) float64 { return l.a + l.b*t }

func TestUpperChainSimple(t *testing.T) {
	pts := []pt{{0, 0}, {1, 2}, {2, 1}, {3, 3}, {4, 0}}
	h := upperChain(append([]pt(nil), pts...))
	// Upper hull: slopes decrease 2, 0.5, -3; (2,1) lies below.
	want := []pt{{0, 0}, {1, 2}, {3, 3}, {4, 0}}
	if len(h) != len(want) {
		t.Fatalf("upper chain = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("upper chain = %v, want %v", h, want)
		}
	}
}

func TestLowerChainSimple(t *testing.T) {
	pts := []pt{{0, 0}, {1, -2}, {2, 1}, {3, -1}, {4, 0}}
	h := lowerChain(append([]pt(nil), pts...))
	want := []pt{{0, 0}, {1, -2}, {3, -1}, {4, 0}}
	if len(h) != len(want) {
		t.Fatalf("lower chain = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("lower chain = %v, want %v", h, want)
		}
	}
}

func TestChainsDedupeSameT(t *testing.T) {
	pts := []pt{{0, 1}, {0, 5}, {0, -3}, {2, 0}}
	up := upperChain(append([]pt(nil), pts...))
	if up[0] != (pt{0, 5}) {
		t.Errorf("upper chain kept wrong duplicate: %v", up)
	}
	lo := lowerChain(append([]pt(nil), pts...))
	if lo[0] != (pt{0, -3}) {
		t.Errorf("lower chain kept wrong duplicate: %v", lo)
	}
}

// bruteUpperMin finds the minimum trapezoid area over [0,phi] among all
// lines through pairs of points (plus horizontals through each point)
// that dominate every point — an exhaustive oracle for upperBridge.
func bruteUpperMin(pts []pt, phi float64) float64 {
	best := math.Inf(1)
	try := func(a, b float64) {
		for _, p := range pts {
			if a+b*p.t < p.x-1e-9 {
				return
			}
		}
		// Area of the region below the line over [0,phi] relative to 0:
		// integral a + b t = a*phi + b*phi^2/2.
		if v := a*phi + b*phi*phi/2; v < best {
			best = v
		}
	}
	for i := range pts {
		try(pts[i].x, 0)
		for j := i + 1; j < len(pts); j++ {
			if pts[i].t == pts[j].t {
				continue
			}
			b := (pts[j].x - pts[i].x) / (pts[j].t - pts[i].t)
			try(pts[i].x-b*pts[i].t, b)
		}
	}
	return best
}

func TestUpperBridgeIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(10)
		phi := 1 + rng.Float64()*9
		pts := make([]pt, n)
		for i := range pts {
			pts[i] = pt{rng.Float64() * phi * 1.5, rng.Float64()*20 - 10}
		}
		pts[0].t = 0 // always an anchor at the computation time
		// The paper guarantees phi <= max expiry (phi = min(H,
		// texpmax-tupd)), so at least one endpoint lies at or beyond
		// the optimization window.
		pts[1].t = phi * (1 + rng.Float64()*0.5)
		l := upperBridge(pts, phi/2, math.Inf(-1))
		// Must dominate every point.
		for _, p := range pts {
			if l.at(p.t) < p.x-1e-9 {
				t.Fatalf("iter %d: bridge %v below point %v", iter, l, p)
			}
		}
		got := l.a*phi + l.b*phi*phi/2
		want := bruteUpperMin(pts, phi)
		if got > want+1e-6*(1+math.Abs(want)) {
			t.Fatalf("iter %d: bridge area %v > brute-force optimum %v", iter, got, want)
		}
	}
}

func TestLowerBridgeIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(10)
		phi := 1 + rng.Float64()*9
		pts := make([]pt, n)
		neg := make([]pt, n)
		for i := range pts {
			pts[i] = pt{rng.Float64() * phi * 1.5, rng.Float64()*20 - 10}
		}
		pts[0].t = 0
		pts[1].t = phi * (1 + rng.Float64()*0.5) // see upper-bridge test
		for i := range pts {
			neg[i] = pt{pts[i].t, -pts[i].x}
		}
		l := lowerBridge(pts, phi/2, math.Inf(1))
		for _, p := range pts {
			if l.at(p.t) > p.x+1e-9 {
				t.Fatalf("iter %d: lower bridge %v above point %v", iter, l, p)
			}
		}
		// Mirror check: -lowerBridge(pts) should achieve the mirrored
		// brute-force optimum.
		got := -(l.a*phi + l.b*phi*phi/2)
		want := bruteUpperMin(neg, phi)
		if got > want+1e-6*(1+math.Abs(want)) {
			t.Fatalf("iter %d: lower bridge area %v > optimum %v", iter, got, want)
		}
	}
}

func TestUpperBridgeSlopeConstraint(t *testing.T) {
	pts := []pt{{0, 0}, {4, -4}} // unconstrained bridge slope -1
	l := upperBridge(pts, 2, 0.5)
	if l.b != 0.5 {
		t.Errorf("slope = %v, want raised to 0.5", l.b)
	}
	for _, p := range pts {
		if l.at(p.t) < p.x-1e-12 {
			t.Errorf("constrained bridge below point %v", p)
		}
	}
	// Constraint already satisfied: untouched.
	l2 := upperBridge(pts, 2, -3)
	if l2.b != -1 {
		t.Errorf("slope = %v, want unconstrained -1", l2.b)
	}
}

func TestLowerBridgeSlopeConstraint(t *testing.T) {
	pts := []pt{{0, 0}, {4, 4}} // unconstrained slope 1
	l := lowerBridge(pts, 2, -0.5)
	if l.b != -0.5 {
		t.Errorf("slope = %v, want lowered to -0.5", l.b)
	}
	for _, p := range pts {
		if l.at(p.t) > p.x+1e-12 {
			t.Errorf("constrained bridge above point %v", p)
		}
	}
}

func TestBridgeSinglePoint(t *testing.T) {
	l := upperBridge([]pt{{0, 7}}, 3, math.Inf(-1))
	if l.a != 7 || l.b != 0 {
		t.Errorf("single point bridge = %v", l)
	}
}
