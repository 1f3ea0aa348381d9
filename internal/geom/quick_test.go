package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate lets testing/quick draw well-formed TPRects: finite
// coordinates, Hi >= Lo, VHi >= VLo.
func (TPRect) Generate(rng *rand.Rand, size int) reflect.Value {
	var r TPRect
	r.TExp = math.Inf(1)
	if rng.Intn(2) == 0 {
		r.TExp = rng.Float64() * 100
	}
	for i := 0; i < MaxDims; i++ {
		r.Lo[i] = rng.Float64()*200 - 100
		r.Hi[i] = r.Lo[i] + rng.Float64()*20
		r.VLo[i] = rng.Float64()*8 - 4
		r.VHi[i] = r.VLo[i] + rng.Float64()*2
	}
	return reflect.ValueOf(r)
}

func qcfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}
}

func TestQuickIntersectsSymmetric(t *testing.T) {
	f := func(a, b TPRect) bool {
		return Intersects(a, b, 0, 10, 2) == Intersects(b, a, 0, 10, 2)
	}
	if err := quick.Check(f, qcfg(1)); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectsSelf(t *testing.T) {
	f := func(a TPRect) bool {
		return Intersects(a, a, 0, 5, 2)
	}
	if err := quick.Check(f, qcfg(2)); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapIntervalWithinWindow(t *testing.T) {
	f := func(a, b TPRect) bool {
		iv := OverlapInterval(a, b, 1, 9, 2)
		if iv.Empty() {
			return true
		}
		return iv.Lo >= 1-1e-9 && iv.Hi <= 9+1e-9 && iv.Lo <= iv.Hi
	}
	if err := quick.Check(f, qcfg(3)); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionContainsOperands(t *testing.T) {
	f := func(a, b TPRect) bool {
		u := UnionConservative(a, b, 3, 2)
		for _, tt := range []float64{3, 10, 200} {
			ur := u.At(tt)
			for _, op := range []TPRect{a, b} {
				or := op.At(tt)
				for i := 0; i < 2; i++ {
					eps := 1e-7 * (1 + math.Abs(or.Lo[i]) + math.Abs(or.Hi[i]))
					if or.Lo[i] < ur.Lo[i]-eps || or.Hi[i] > ur.Hi[i]+eps {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(4)); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCommutativeArea(t *testing.T) {
	f := func(a, b TPRect) bool {
		u1 := UnionConservative(a, b, 2, 2)
		u2 := UnionConservative(b, a, 2, 2)
		i1 := AreaIntegral(u1, 2, 12, 2)
		i2 := AreaIntegral(u2, 2, 12, 2)
		return math.Abs(i1-i2) <= 1e-9*(1+math.Abs(i1))
	}
	if err := quick.Check(f, qcfg(5)); err != nil {
		t.Error(err)
	}
}

func TestQuickAreaIntegralNonNegativeMonotone(t *testing.T) {
	f := func(a TPRect) bool {
		i1 := AreaIntegral(a, 0, 5, 2)
		i2 := AreaIntegral(a, 0, 10, 2)
		return i1 >= 0 && i2 >= i1-1e-9
	}
	if err := quick.Check(f, qcfg(6)); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapBoundedByArea(t *testing.T) {
	f := func(a, b TPRect) bool {
		ov := OverlapIntegral(a, b, 0, 8, 2)
		aa := AreaIntegral(a, 0, 8, 2)
		bb := AreaIntegral(b, 0, 8, 2)
		return ov >= -1e-9 && ov <= aa+1e-6*(1+aa) && ov <= bb+1e-6*(1+bb)
	}
	if err := quick.Check(f, qcfg(7)); err != nil {
		t.Error(err)
	}
}

func TestQuickDerivedExp(t *testing.T) {
	f := func(a TPRect) bool {
		// Make dimension 0 shrink.
		a.VHi[0] = a.VLo[0] - 0.5
		e := DerivedExp(&a, 0, 2)
		if !IsFinite(e) {
			return false
		}
		// At the derived time some extent is (numerically) zero.
		s := a.At(e)
		minExt := math.Inf(1)
		for i := 0; i < 2; i++ {
			minExt = math.Min(minExt, s.Hi[i]-s.Lo[i])
		}
		return math.Abs(minExt) < 1e-6*(1+e)
	}
	if err := quick.Check(f, qcfg(8)); err != nil {
		t.Error(err)
	}
}

// TestDerivedExpNeverBeforeNow pins the bound the purge relies on:
// DerivedExp(r, now) >= now for any rectangle — extents that are zero
// or already negative at now, velocities up to the float64 range —
// and any clock.
func TestDerivedExpNeverBeforeNow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	for n := 0; n < 200000; n++ {
		var r TPRect
		for i := 0; i < 3; i++ {
			r.Lo[i] = pick(0, -1, 1e6, rng.Float64()*1000, -rng.Float64()*1e12)
			r.Hi[i] = r.Lo[i] + pick(0, -1e-300, -rng.Float64(), rng.Float64(), rng.Float64()*1e12, 1e300)
			r.VLo[i] = pick(0, rng.NormFloat64(), 1e-300, 1e300, -1e300, rng.NormFloat64()*1e150)
			r.VHi[i] = r.VLo[i] + pick(0, -1e-300, -rng.Float64(), rng.Float64(), -1e300, -rng.Float64()*1e200)
		}
		now := pick(0, 1, 1e-9, 123.456, 1e6, 1e15, rng.Float64()*1e4)
		dims := 1 + rng.Intn(3)
		if e := DerivedExp(&r, now, dims); !(e >= now) {
			t.Fatalf("DerivedExp(%+v, %v, %d) = %v, before now", r, now, dims, e)
		}
	}
}

func TestQuickDerivedExpGrowingIsInfinite(t *testing.T) {
	f := func(a TPRect) bool {
		// Generator guarantees VHi >= VLo, so nothing shrinks.
		return !IsFinite(DerivedExp(&a, 0, 2))
	}
	if err := quick.Check(f, qcfg(9)); err != nil {
		t.Error(err)
	}
}

func TestQuickExitTimePointLeavesWorld(t *testing.T) {
	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	f := func(px, py, vx, vy float64) bool {
		p := MovingPoint{
			Pos: Vec{math.Mod(math.Abs(px), 1000), math.Mod(math.Abs(py), 1000)},
			Vel: Vec{math.Mod(vx, 3), math.Mod(vy, 3)},
		}
		e := ExitTime(p, world, 0, 2)
		if !IsFinite(e) {
			// Only possible if both velocity components are zero.
			return p.Vel[0] == 0 && p.Vel[1] == 0
		}
		// Just before the exit the point is inside (or on the border);
		// just after, outside.
		before := p.At(math.Max(0, e-1e-6))
		after := p.At(e + 1e-3)
		insideEps := func(v Vec, eps float64) bool {
			for i := 0; i < 2; i++ {
				if v[i] < world.Lo[i]-eps || v[i] > world.Hi[i]+eps {
					return false
				}
			}
			return true
		}
		return insideEps(before, 1e-3) && !insideEps(after, -1e-9) || e == 0
	}
	cfg := qcfg(10)
	cfg.MaxCount = 500
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
