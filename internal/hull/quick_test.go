package hull

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rexptree/internal/geom"
)

// genItems draws a small random item set from the given source.
func genItems(rng *rand.Rand) []geom.TPRect {
	return randItems(rng, 1+rng.Intn(12), 2, 0, true)
}

func TestQuickAllKindsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for iter := 0; iter < 150; iter++ {
		items := genItems(rng)
		horizon := 5 + rng.Float64()*50
		for _, k := range kinds {
			its := items
			if k == KindStatic {
				// Static rectangles bound never-expiring movers only up
				// to the world extent; give them finite expiry here (the
				// engine derives one from the world exit time anyway).
				its = append([]geom.TPRect(nil), items...)
				for i := range its {
					if !geom.IsFinite(its[i].TExp) {
						its[i].TExp = 50 + rng.Float64()*100
					}
				}
			}
			br := workspaceBR(k, its, 0, horizon, 2, testWorld, rng.Perm(2))
			checkBounds(t, br, its, 0, 300, 2)
		}
	}
}

func TestQuickBridgeDominates(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		pts := make([]pt, 0, len(raw)/2+1)
		phi := 5.0
		pts = append(pts, pt{0, clamp(raw[0])})
		for i := 1; i+1 < len(raw); i += 2 {
			pts = append(pts, pt{math.Abs(clamp(raw[i])) / 10 * phi, clamp(raw[i+1])})
		}
		pts = append(pts, pt{phi * 1.2, clamp(raw[len(raw)-1])})
		l := upperBridge(append([]pt(nil), pts...), phi/2, math.Inf(-1))
		for _, p := range pts {
			if l.at(p.t) < p.x-1e-6*(1+math.Abs(p.x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(103))}); err != nil {
		t.Error(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}

func TestQuickMedianWithinRange(t *testing.T) {
	f := func(h1, w1, h2, w2, phiRaw float64) bool {
		phi := math.Abs(clamp(phiRaw)) + 0.001
		m := median([]float64{clamp(h1), clamp(h2)}, []float64{clamp(w1), clamp(w2)}, phi)
		return m >= 0 && m <= phi && !math.IsNaN(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(104))}); err != nil {
		t.Error(err)
	}
}

func TestQuickUpdateMinimumTighterThanConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for iter := 0; iter < 200; iter++ {
		items := genItems(rng)
		um := UpdateMinimum(items, 0, 2)
		cons := Conservative(items, 0, 2)
		for i := 0; i < 2; i++ {
			if um.VHi[i] > cons.VHi[i]+1e-9 || um.VLo[i] < cons.VLo[i]-1e-9 {
				t.Fatalf("iter %d: update-minimum wider than conservative in dim %d", iter, i)
			}
		}
	}
}
