package core

import (
	"math"
	"math/rand"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

// chooseChildRef is ChooseSubtree as it was written before chooseChild
// read the columns in place: each entry copied into a rectangle and
// measured by geom.Enlargement.  It is the reference chooseChild must
// agree with, index for index.
func (t *Tree) chooseChildRef(n *vnode, r *geom.TPRect) int {
	rNew := *r
	rNew.TExp = t.decisionExp(r, n.level-1)
	now, dims, src := t.Now(), t.cfg.Dims, t.expSource(n.level)
	horizon := now + t.metricH()
	best := -1
	bestEnl, bestArea := 0.0, 0.0
	var e geom.TPRect
	for i := 0; i < n.count; i++ {
		exp := t.expAt(n, i, src, now)
		if exp < now {
			continue
		}
		if !t.cfg.AlgsUseExp {
			exp = math.Inf(1)
		}
		end := clampEnd(now, horizon, exp, rNew.TExp)
		n.rect(i, &e)
		area, enl := geom.Enlargement(&e, &rNew, now, end, dims)
		if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// randomChooseRect returns a rectangle of one of the shapes ChooseSubtree
// meets: an ordinary growing one, one whose extent shrinks to zero within
// the horizon (geom.Enlargement's piecewise path), a point, and a static
// one.  Its expiration time may lie before now.
func randomChooseRect(rng *rand.Rand, dims int, now float64) geom.TPRect {
	var r geom.TPRect
	shape := rng.Intn(4)
	for d := 0; d < dims; d++ {
		ext, vlo, dv := rng.Float64()*100, rng.Float64()*6-3, rng.Float64()*2
		switch shape {
		case 1: // shrinking to zero before the horizon ends
			dv = -(ext / (1 + rng.Float64()*80))
		case 2: // a point
			ext, dv = 0, 0
		case 3: // static
			vlo, dv = 0, 0
		}
		lo := rng.Float64()*1000 - vlo*now
		r.Lo[d], r.Hi[d] = lo, lo+ext-dv*now
		r.VLo[d], r.VHi[d] = vlo, vlo+dv
	}
	r.TExp = now - 5 + rng.Float64()*200
	return r
}

// TestChooseChildMatchesReference checks on random internal nodes that
// chooseChild returns the index the reference returns, for every way the
// engine reads expiration times, in one to three dimensions.  The nodes
// mix in entries that take geom.Enlargement's zero-extent fallback,
// expired entries (where a level records expiration times), repeated
// entries whose metrics tie exactly, and nodes whose entries all expired.
func TestChooseChildMatchesReference(t *testing.T) {
	cfgs := []Config{
		{BRKind: hull.KindNearOptimal, ExpireAware: true},
		{BRKind: hull.KindNearOptimal, ExpireAware: true, StoreBRExp: true, AlgsUseExp: true},
		{BRKind: hull.KindNearOptimal, ExpireAware: true, AlgsUseExp: true},
		{BRKind: hull.KindNearOptimal, ExpireAware: true, StoreBRExp: true},
		{BRKind: hull.KindConservative},
	}
	rng := rand.New(rand.NewSource(9))
	checked, ties, fallbacks := 0, 0, 0
	for dims := 1; dims <= 3; dims++ {
		for _, cfg := range cfgs {
			cfg.Dims, cfg.Seed = dims, 1
			tr, err := New(cfg, storage.NewMemStore())
			if err != nil {
				t.Fatal(err)
			}
			now := 50 + rng.Float64()*100
			tr.Advance(now)
			for trial := 0; trial < 300; trial++ {
				count := 1 + rng.Intn(tr.lay.innerCap)
				es := make([]entry, count)
				for i := range es {
					if i > 0 && rng.Intn(5) == 0 {
						es[i] = es[rng.Intn(i)] // an exact tie
						ties++
						continue
					}
					es[i] = entry{id: uint32(i), rect: randomChooseRect(rng, dims, now)}
				}
				if trial%50 == 0 {
					for i := range es {
						es[i].rect.TExp = now - 1 // every entry expired
					}
				}
				n := nodeOf(tr.lay, 1, 1, es)
				r := geom.PointTPRect(geom.MovingPoint{
					Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000},
					Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3, rng.Float64()*6 - 3},
					TExp: now + rng.Float64()*150,
				})
				if rng.Intn(3) == 0 {
					r = randomChooseRect(rng, dims, now)
				}
				fallbacks += countFallbacks(tr, n, &r)
				if got, want := tr.chooseChild(n, &r), tr.chooseChildRef(n, &r); got != want {
					t.Fatalf("dims %d %+v trial %d: chooseChild = %d, reference = %d", dims, cfg, trial, got, want)
				}
				checked++
			}
		}
	}
	if ties == 0 || fallbacks == 0 {
		t.Fatalf("%d tied entries and %d fallbacks: the nodes must have both", ties, fallbacks)
	}
	t.Logf("%d nodes, %d tied entries, %d fallbacks to geom.Enlargement", checked, ties, fallbacks)
}

// countFallbacks returns how many of n's entries enlargementAt leaves to
// geom.Enlargement when r is inserted with an unbounded expiration time.
func countFallbacks(t *Tree, n *vnode, r *geom.TPRect) int {
	now := t.Now()
	end := clampEnd(now, now+t.metricH(), math.Inf(1), math.Inf(1))
	var bLo, bHi geom.Vec
	for d := 0; d < n.dims; d++ {
		bLo[d] = r.Lo[d] + r.VLo[d]*now
		bHi[d] = r.Hi[d] + r.VHi[d]*now
	}
	g := newGauss(now, end)
	k := 0
	for i := 0; i < n.count; i++ {
		if _, _, ok := enlargementAt(n, i, r, &bLo, &bHi, now, end, &g); !ok {
			k++
		}
	}
	return k
}

// BenchmarkChooseChild measures one ChooseSubtree over a full internal
// node, with the default configuration's expiration reading.
func BenchmarkChooseChild(b *testing.B) {
	tr, _, inner := brNodes(b)
	r := geom.PointTPRect(geom.MovingPoint{Pos: geom.Vec{500, 500}, Vel: geom.Vec{1, -1}, TExp: 150})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkIndex = tr.chooseChild(inner, &r)
	}
}

var sinkIndex int
