package geom

import (
	"math"
	"math/rand"
	"testing"
)

// refUnionConservative is UnionConservative written with math.Min and
// math.Max, the reference the builtin min/max version must match.
func refUnionConservative(a, b TPRect, now float64, dims int) TPRect {
	var r TPRect
	r.TExp = math.Max(a.TExp, b.TExp)
	for i := 0; i < dims; i++ {
		r.VLo[i] = math.Min(a.VLo[i], b.VLo[i])
		r.VHi[i] = math.Max(a.VHi[i], b.VHi[i])
		lo := math.Min(a.Lo[i]+a.VLo[i]*now, b.Lo[i]+b.VLo[i]*now)
		hi := math.Max(a.Hi[i]+a.VHi[i]*now, b.Hi[i]+b.VHi[i]*now)
		r.Lo[i] = lo - r.VLo[i]*now
		r.Hi[i] = hi - r.VHi[i]*now
	}
	return r
}

// kernelRect draws a kernel input: signed zeros among coordinates and
// velocities, extents that grow, shrink through zero or start inverted,
// degenerate (point) rectangles, and finite or infinite expiration.
func kernelRect(rng *rand.Rand, dims int) TPRect {
	val := func(scale float64) float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return (2*rng.Float64() - 1) * scale
	}
	r := TPRect{TExp: math.Inf(1)}
	if rng.Intn(2) == 0 {
		r.TExp = val(100)
	}
	for i := 0; i < dims; i++ {
		r.Lo[i], r.VLo[i] = val(100), val(4)
		switch rng.Intn(4) {
		case 0: // a point, or a rectangle of unrelated bounds
			r.Hi[i], r.VHi[i] = val(100), val(4)
		case 1:
			r.Hi[i], r.VHi[i] = r.Lo[i], r.VLo[i]
		default: // shrinking about one time in three
			r.Hi[i] = r.Lo[i] + 20*rng.Float64()
			r.VHi[i] = r.VLo[i] + 3*rng.Float64() - 1
		}
	}
	return r
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRect(a, b TPRect) bool {
	for i := 0; i < MaxDims; i++ {
		if !sameBits(a.Lo[i], b.Lo[i]) || !sameBits(a.Hi[i], b.Hi[i]) ||
			!sameBits(a.VLo[i], b.VLo[i]) || !sameBits(a.VHi[i], b.VHi[i]) {
			return false
		}
	}
	return sameBits(a.TExp, b.TExp)
}

// TestEnlargementMatchesIntegrals pins ChooseSubtree's kernel to the
// arithmetic it replaced, bit for bit: Enlargement returns what
// AreaIntegral and the area integral of the conservative union return,
// and UnionConservative what its math.Min/math.Max form returned — on
// both paths of the integral (every extent positive, or one reaching
// zero), with signed zeros, infinite expiration times and empty windows
// among the inputs.
func TestEnlargementMatchesIntegrals(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for dims := 1; dims <= MaxDims; dims++ {
		fast, slow, empty := map[bool]int{}, map[bool]int{}, 0
		for k := 0; k < 20000; k++ {
			a, b := kernelRect(rng, dims), kernelRect(rng, dims)
			t1 := 10 * rng.Float64()
			switch rng.Intn(8) {
			case 0:
				t1 = 0
			case 1:
				t1 = math.Copysign(0, -1)
			}
			t2 := t1 + 24*rng.Float64() - 4
			if rng.Intn(16) == 0 {
				t2 = t1
			}

			u := UnionConservative(a, b, t1, dims)
			if ref := refUnionConservative(a, b, t1, dims); !sameRect(u, ref) {
				t.Fatalf("dims %d: UnionConservative(%v, %v, %g) = %v, math.Min/Max form %v", dims, a, b, t1, u, ref)
			}
			wantArea := AreaIntegral(a, t1, t2, dims)
			wantEnl := AreaIntegral(u, t1, t2, dims) - wantArea
			area, enl := Enlargement(&a, &b, t1, t2, dims)
			if !sameBits(area, wantArea) || !sameBits(enl, wantEnl) {
				t.Fatalf("dims %d: Enlargement(%v, %v, %g, %g) = (%v, %v), integrals (%v, %v)",
					dims, a, b, t1, t2, area, enl, wantArea, wantEnl)
			}

			if t2 <= t1 {
				empty++
				continue
			}
			for _, r := range []*TPRect{&a, &u} {
				var c0, c1 Vec
				for i := 0; i < dims; i++ {
					c0[i], c1[i] = r.Hi[i]-r.Lo[i], r.VHi[i]-r.VLo[i]
				}
				if _, ok := areaIntegralFast(&c0, &c1, t1, t2, dims); ok {
					fast[r == &u]++
				} else {
					slow[r == &u]++
				}
			}
		}
		for _, union := range []bool{false, true} {
			if fast[union] < 100 || slow[union] < 100 || empty < 100 {
				t.Errorf("dims %d, union %v: %d fast, %d slow integrals and %d empty windows; the inputs miss a path",
					dims, union, fast[union], slow[union], empty)
			}
		}
	}
}
