package geom

import (
	"math/rand"
	"testing"
)

func benchRects(n int) []TPRect {
	rng := rand.New(rand.NewSource(1))
	out := make([]TPRect, n)
	for i := range out {
		out[i] = randTPRect(rng, 2)
	}
	return out
}

func BenchmarkIntersects(b *testing.B) {
	rs := benchRects(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Intersects(rs[i%256], rs[(i+7)%256], 0, 30, 2)
	}
}

func BenchmarkAreaIntegralFastPath(b *testing.B) {
	rs := benchRects(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AreaIntegral(rs[i%256], 0, 30, 2)
	}
}

func BenchmarkOverlapIntegral(b *testing.B) {
	rs := benchRects(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OverlapIntegral(rs[i%256], rs[(i+7)%256], 0, 30, 2)
	}
}

func BenchmarkMarginIntegral(b *testing.B) {
	rs := benchRects(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MarginIntegral(rs[i%256], 0, 30, 2)
	}
}

func BenchmarkUnionConservative(b *testing.B) {
	rs := benchRects(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UnionConservative(rs[i%256], rs[(i+7)%256], 5, 2)
	}
}

// BenchmarkEnlargement is ChooseSubtree's per-entry metric: the area
// integral of an entry and its growth by the conservative union.  The
// rectangles grow, as bounding rectangles do, so both integrals take
// the fast path.
func BenchmarkEnlargement(b *testing.B) {
	rs := benchRects(256)
	for i := range rs {
		for d := 0; d < 2; d++ {
			rs[i].VLo[d], rs[i].VHi[d] = min(rs[i].VLo[d], rs[i].VHi[d]), max(rs[i].VLo[d], rs[i].VHi[d])
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Enlargement(&rs[i%256], &rs[(i+7)%256], 5, 30, 2)
	}
}

func BenchmarkCenterDistIntegral(b *testing.B) {
	rs := benchRects(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CenterDistIntegral(rs[i%256], rs[(i+7)%256], 0, 30, 2)
	}
}
