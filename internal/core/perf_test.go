package core

import (
	"math/rand"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

func BenchmarkInsertUpdate(b *testing.B) {
	tr, _ := New(rexpConfig(), storage.NewMemStore())
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	objs := make([]geom.MovingPoint, n)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.003
		oid := uint32(i % n)
		if i >= n {
			tr.Delete(oid, objs[oid], now)
		}
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + 60 + rng.Float64()*60,
		}
		tr.Insert(oid, p, now)
		objs[oid] = tr.prepare(p)
	}
}

// brNodes builds the two inputs computeBR sees most: a full leaf of
// moving points and a full internal node whose entries are the
// near-optimal rectangles of small leaves.  The tree uses the engine's
// default R^exp configuration (no expiration times in internal
// entries, so the internal node's entries expire at derived times).
func brNodes(tb testing.TB) (tr *Tree, leaf, inner *vnode) {
	tb.Helper()
	tr, err := New(Config{Dims: 2, ExpireAware: true, BRKind: hull.KindNearOptimal, Seed: 1}, storage.NewMemStore())
	if err != nil {
		tb.Fatal(err)
	}
	const now = 100
	tr.Advance(now)
	rng := rand.New(rand.NewSource(3))
	points := func(n int) *vnode {
		es := make([]entry, n)
		for i := range es {
			p := quantize(geom.MovingPoint{
				Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
				TExp: now + rng.Float64()*120,
			}, 2)
			es[i] = entry{id: uint32(i), rect: geom.PointTPRect(p)}
		}
		return nodeOf(tr.lay, 0, 0, es)
	}
	leaf = points(tr.lay.leafCap)
	es := make([]entry, tr.lay.innerCap)
	for i := range es {
		es[i] = entry{id: uint32(i), rect: tr.computeBR(points(20))}
	}
	return tr, leaf, nodeOf(tr.lay, 0, 1, es)
}

// BenchmarkComputeBR measures the bounding-rectangle computation of a
// full node, the kernel that runs for every node an update touches,
// with each kind.
func BenchmarkComputeBR(b *testing.B) {
	tr, leaf, inner := brNodes(b)
	for k := hull.KindConservative; k <= hull.KindOptimal; k++ {
		for _, c := range []struct {
			name string
			n    *vnode
		}{{"leaf", leaf}, {"internal", inner}} {
			b.Run(k.String()+"/"+c.name, func(b *testing.B) {
				tr.cfg.BRKind = k
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkBR = tr.computeBR(c.n)
				}
			})
		}
	}
}

// BenchmarkEncode measures rendering a full node into its page image:
// what a file-backed tree pays per write-back and per checkpoint image.
// An internal entry's bounds are rounded outward to float32, a leaf
// entry's coordinates are exact.
func BenchmarkEncode(b *testing.B) {
	tr, leaf, inner := brNodes(b)
	buf := make([]byte, storage.PageSize)
	for _, c := range []struct {
		name string
		n    *vnode
	}{{"leaf", leaf}, {"internal", inner}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.lay.encode(c.n, buf)
			}
		})
	}
}

var sinkBR geom.TPRect
