package hull

import (
	"math/rand"
	"testing"

	"rexptree/internal/geom"
)

// benchItems builds a full-leaf-sized item set of points and
// rectangles at tupd = 0 (170 entries).
func benchItems(n int) []geom.TPRect {
	rng := rand.New(rand.NewSource(1))
	return randItems(rng, n, 2, 0, false)
}

// BenchmarkNearOptimal measures the near-optimal kernel: on 170 items
// through the free function ("items"), and through a warm Workspace on
// the two nodes the engine hands it — a full leaf of 170 points at
// tupd = 300 expiring within 120 of it, Φ = 31 ("leaf"), and a full
// internal node of 100 rectangles, each the near-optimal rectangle of
// 20 such points, expiring at the times derived from their velocity
// spreads ("internal").
func BenchmarkNearOptimal(b *testing.B) {
	const tupd = 300
	order := []int{0, 1}
	b.Run("items", func(b *testing.B) {
		items := benchItems(170)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NearOptimal(items, 0, 60, 2, order)
		}
	})
	rng := rand.New(rand.NewSource(2))
	points := func(n int) []geom.TPRect { return asPoints(randItems(rng, n, 2, tupd, false)) }
	pos, vel, texp := pointColumns(points(170), 2)
	inner := make([]geom.TPRect, 100)
	for i := range inner {
		inner[i] = NearOptimal(points(20), tupd, 31, 2, order)
		inner[i].TExp = geom.DerivedExp(&inner[i], tupd, 2)
	}
	var lo, hi, vlo, vhi, exps []float64
	for i := range inner {
		r := &inner[i]
		lo, hi = append(lo, r.Lo[:2]...), append(hi, r.Hi[:2]...)
		vlo, vhi = append(vlo, r.VLo[:2]...), append(vhi, r.VHi[:2]...)
		exps = append(exps, r.TExp)
	}
	var w Workspace
	b.Run("leaf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset(tupd, 2)
			w.AddPoints(pos, vel, texp)
			w.NearOptimal(31, order)
		}
	})
	b.Run("internal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset(tupd, 2)
			w.AddColumns(lo, hi, vlo, vhi, exps)
			w.NearOptimal(60, order)
		}
	})
}
