package hull

import (
	"math"
	"testing"
)

func TestMedianNoComputedDims(t *testing.T) {
	if m := median(nil, nil, 8); m != 4 {
		t.Errorf("median with no dims = %v, want phi/2", m)
	}
}

func TestMedianPaperExample(t *testing.T) {
	// Paper (§4.1.4): for k=1, m = phi(3h1+2w1*phi) / (6h1+3w1*phi).
	h1, w1, phi := 3.0, 0.5, 10.0
	want := phi * (3*h1 + 2*w1*phi) / (6*h1 + 3*w1*phi)
	got := median([]float64{h1}, []float64{w1}, phi)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("median = %v, want %v", got, want)
	}
}

func TestMedianStaticComputedDim(t *testing.T) {
	// A computed dimension with zero velocity must not shift the
	// median: weight is uniform in time.
	got := median([]float64{5}, []float64{0}, 6)
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestMedianGrowingDimShiftsRight(t *testing.T) {
	// A growing computed dimension weights later times more heavily,
	// so the median moves right of phi/2 (Figure 6).
	got := median([]float64{1}, []float64{2}, 10)
	if got <= 5 {
		t.Errorf("median = %v, want > phi/2", got)
	}
	if got >= 10 {
		t.Errorf("median = %v, exceeded phi", got)
	}
}

func TestMedianShrinkingDimShiftsLeft(t *testing.T) {
	got := median([]float64{10}, []float64{-0.5}, 10)
	if got >= 5 {
		t.Errorf("median = %v, want < phi/2", got)
	}
}

func TestMedianClamped(t *testing.T) {
	// Pathological negative-volume inputs must still yield a median
	// inside [0, phi].
	got := median([]float64{-3}, []float64{-1}, 4)
	if got < 0 || got > 4 {
		t.Errorf("median = %v outside [0,4]", got)
	}
}

func TestPolyMul(t *testing.T) {
	// (1)(2+3t) = 2+3t
	p := polyMul(poly{1}, 1, 2, 3)
	if p != (poly{2, 3}) {
		t.Fatalf("polyMul = %v", p)
	}
	// (2+3t)(1+t) = 2+5t+3t^2
	p = polyMul(p, 2, 1, 1)
	if want := (poly{2, 5, 3}); p != want {
		t.Fatalf("polyMul = %v, want %v", p, want)
	}
}
