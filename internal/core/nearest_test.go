package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rexptree/internal/geom"
)

func TestNearestBasic(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	pts := map[uint32]geom.MovingPoint{
		1: {Pos: geom.Vec{100, 100}, TExp: geom.Inf()},
		2: {Pos: geom.Vec{200, 100}, TExp: geom.Inf()},
		3: {Pos: geom.Vec{900, 900}, TExp: geom.Inf()},
	}
	for oid, p := range pts {
		if err := tr.Insert(oid, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tr.Nearest(geom.Vec{110, 100}, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].OID != 1 || res[1].OID != 2 {
		t.Fatalf("nearest = %v", res)
	}
}

func TestNearestUsesPredictedPositions(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	// Object 1 is nearest now, but object 2 is moving toward the query
	// point and will be nearest at t=50.
	tr.Insert(1, geom.MovingPoint{Pos: geom.Vec{450, 500}, TExp: geom.Inf()}, 0)
	tr.Insert(2, geom.MovingPoint{Pos: geom.Vec{100, 500}, Vel: geom.Vec{8, 0}, TExp: geom.Inf()}, 0)
	q := geom.Vec{500, 500}
	res, _ := tr.Nearest(q, 0, 1, 0)
	if len(res) != 1 || res[0].OID != 1 {
		t.Fatalf("nearest at t=0 = %v", res)
	}
	res, _ = tr.Nearest(q, 50, 1, 0)
	if len(res) != 1 || res[0].OID != 2 {
		t.Fatalf("nearest at t=50 = %v", res)
	}
}

func TestNearestSkipsExpired(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	tr.Insert(1, geom.MovingPoint{Pos: geom.Vec{500, 500}, TExp: 10}, 0)
	tr.Insert(2, geom.MovingPoint{Pos: geom.Vec{600, 600}, TExp: 100}, 0)
	// At query time 50, object 1's report has expired.
	res, err := tr.Nearest(geom.Vec{500, 500}, 50, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].OID != 2 {
		t.Fatalf("nearest = %v", res)
	}
}

func TestNearestValidation(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	if _, err := tr.Nearest(geom.Vec{0, 0}, 5, 1, 10); err == nil {
		t.Error("past query time accepted")
	}
	res, err := tr.Nearest(geom.Vec{0, 0}, 10, 0, 10)
	if err != nil || res != nil {
		t.Errorf("k=0: %v %v", res, err)
	}
}

func TestNearestAgainstBruteForce(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	rng := rand.New(rand.NewSource(81))
	oracle := map[uint32]geom.MovingPoint{}
	now := 0.0
	for i := 0; i < 3000; i++ {
		now += 0.01
		p := geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: now + rng.Float64()*100,
		}
		if err := tr.Insert(uint32(i), p, now); err != nil {
			t.Fatal(err)
		}
		oracle[uint32(i)] = tr.prepare(p)
	}
	for iter := 0; iter < 50; iter++ {
		q := geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000}
		at := now + rng.Float64()*20
		k := 1 + rng.Intn(10)
		got, err := tr.Nearest(q, at, k, now)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		type cand struct {
			oid  uint32
			dist float64
		}
		var cands []cand
		for oid, p := range oracle {
			if p.TExp < at {
				continue
			}
			cands = append(cands, cand{oid, q.Dist(p.At(at), 2)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].oid < cands[j].oid
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		if len(got) != len(cands) {
			t.Fatalf("iter %d: got %d results, want %d", iter, len(got), len(cands))
		}
		for i := range got {
			gd := q.Dist(got[i].Point.At(at), 2)
			if gd > cands[i].dist*(1+1e-9)+1e-9 {
				t.Fatalf("iter %d: result %d at distance %v, optimal %v", iter, i, gd, cands[i].dist)
			}
			if i > 0 {
				prev := q.Dist(got[i-1].Point.At(at), 2)
				if gd < prev-1e-9 {
					t.Fatalf("iter %d: results not sorted by distance", iter)
				}
			}
		}
	}
}

func TestNearestMoreThanStored(t *testing.T) {
	tr := newTestTree(t, rexpConfig())
	tr.Insert(1, geom.MovingPoint{Pos: geom.Vec{1, 1}, TExp: geom.Inf()}, 0)
	res, err := tr.Nearest(geom.Vec{0, 0}, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results from a 1-entry tree", len(res))
	}
}

// TestNearestMatchesBruteForce checks the kernel's answer element by
// element — ids, stored points, distances, order — against a scan of
// every stored report, in two and three dimensions.  The objects come
// partly in clusters that share one stored trajectory, so whole runs
// of them tie at any distance, and one crowd of them spans several
// leaves.  Expiries are drawn around the query times, so some reports
// expire just before the query time and some just after.  The draws
// cover k = 1, k cut inside a run of ties, k at least the number of
// live objects, and a bound equal to a tied distance (0 on the crowd):
// the answer is then the brute-force answer cut at the bound.
func TestNearestMatchesBruteForce(t *testing.T) {
	for _, dims := range []int{2, 3} {
		cfg := rexpConfig()
		cfg.Dims = dims
		if dims == 3 {
			cfg.World = geom.Rect{Lo: geom.Vec{0, 0, 0}, Hi: geom.Vec{1000, 1000, 1000}}
		}
		tr := newTestTree(t, cfg)
		rng := rand.New(rand.NewSource(int64(90 + dims)))
		draw := func() geom.MovingPoint {
			var p geom.MovingPoint
			for d := 0; d < dims; d++ {
				p.Pos[d] = rng.Float64() * 1000
				p.Vel[d] = rng.Float64()*4 - 2
			}
			return p
		}
		stored := map[uint32]geom.MovingPoint{}
		now := 0.0
		for oid := uint32(0); oid < 1200; {
			now += 0.02
			p, n := draw(), 1
			if rng.Intn(4) == 0 {
				n = 2 + rng.Intn(5) // a cluster: n objects, one trajectory
			}
			for ; n > 0; n-- {
				p.TExp = now + rng.Float64()*60
				if err := tr.Insert(oid, p, now); err != nil {
					t.Fatal(err)
				}
				stored[oid] = tr.prepare(p)
				oid++
			}
		}
		// One trajectory shared by more objects than a leaf holds, with
		// ids in shuffled order: a query on it ties at distance 0 across
		// leaves whose rectangles lie at exactly that distance.
		crowd := draw()
		crowd.TExp = geom.Inf()
		for _, i := range rng.Perm(3000) {
			oid := uint32(5000 + i)
			if err := tr.Insert(oid, crowd, now); err != nil {
				t.Fatal(err)
			}
			stored[oid] = tr.prepare(crowd)
		}
		// brute is every report live at at, by ascending (distance, id),
		// with the kernel's arithmetic.
		brute := func(q geom.Vec, at float64) []Neighbor {
			var all []Neighbor
			for oid, p := range stored {
				if p.TExp < at {
					continue
				}
				var s float64
				for d := 0; d < dims; d++ {
					dd := q[d] - (p.Pos[d] + p.Vel[d]*at)
					s += dd * dd
				}
				all = append(all, Neighbor{Result: Result{OID: oid, Point: p}, Dist: math.Sqrt(s)})
			}
			slices.SortFunc(all, func(a, b Neighbor) int {
				if a.Dist != b.Dist {
					if a.Dist < b.Dist {
						return -1
					}
					return 1
				}
				return int(a.OID) - int(b.OID)
			})
			return all
		}
		var tiedCuts, bounded, beyond int
		for iter := 0; iter < 120; iter++ {
			at := now + rng.Float64()*30
			q := draw().Pos
			switch {
			case iter%8 >= 6: // on the crowd
				q = stored[5000].At(at)
			case iter%2 == 0: // next to a stored trajectory, often a cluster's
				q = stored[uint32(rng.Intn(1200))].At(at)
				q[0] += rng.Float64()*20 - 10
			}
			all := brute(q, at)
			k, bound := 1+rng.Intn(12), math.Inf(1)
			switch iter % 4 {
			case 0:
				k = 1
			case 1: // k ends inside a run of ties
				for j := rng.Intn(20); j+1 < len(all); j++ {
					if all[j].Dist == all[j+1].Dist {
						k = j + 1
						tiedCuts++
						break
					}
				}
			case 2: // a bound equal to a tied distance
				for j := rng.Intn(20); j+1 < len(all); j++ {
					if all[j].Dist == all[j+1].Dist {
						bound = all[j].Dist
						k = j + 1 + rng.Intn(4)
						bounded++
						break
					}
				}
			}
			switch {
			case iter%10 == 9:
				k = len(all) + rng.Intn(3)
				beyond++
			case iter%8 == 7:
				k = 1 + rng.Intn(250)
			}
			if iter%8 == 6 && bound != 0 {
				t.Fatalf("dims %d iter %d: bound %v on the crowd, want 0", dims, iter, bound)
			}
			want := all[:min(k, len(all))]
			for len(want) > 0 && want[len(want)-1].Dist > bound {
				want = want[:len(want)-1]
			}
			got, err := tr.NearestSnapStats(q, at, k, now, bound, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(bound, 1) {
				if locked, err := tr.Nearest(q, at, k, now); err != nil || !slices.Equal(locked, got) {
					t.Fatalf("dims %d iter %d: locked and snapshot answers differ (%v)", dims, iter, err)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("dims %d iter %d (k %d, bound %v): got %d neighbors, want %d\n got %v\nwant %v",
					dims, iter, k, bound, len(got), len(want), got, want)
			}
		}
		if tiedCuts == 0 || bounded == 0 || beyond == 0 {
			t.Fatalf("dims %d: draws missed a case: %d tied cuts, %d tied bounds, %d k beyond the live count",
				dims, tiedCuts, bounded, beyond)
		}
	}
}
