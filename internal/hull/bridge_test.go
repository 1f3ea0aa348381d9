package hull

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rexptree/internal/geom"
)

// pointWorkspace loads pts — anchors at t = 0, endpoints at t > 0 —
// into a workspace split at m and returns it with the x column, as
// NearOptimal would for the upper (or lower) endpoints of a dimension.
func pointWorkspace(pts []pt, m float64, upper bool) (*Workspace, []float64) {
	w := &Workspace{tau: []float64{0}}
	anchor := math.Inf(1)
	if upper {
		anchor = math.Inf(-1)
	}
	x := []float64{anchor}
	for _, p := range pts {
		switch {
		case p.t > 0:
			w.tau = append(w.tau, p.t)
			x = append(x, p.x)
		case upper:
			x[0] = math.Max(x[0], p.x)
		default:
			x[0] = math.Min(x[0], p.x)
		}
	}
	w.split(m)
	return w, x
}

// upperBridge runs the bridge search on a bare point set.
func upperBridge(pts []pt, m, minSlope float64) line {
	w, x := pointWorkspace(pts, m, true)
	return w.upperBound(x, minSlope)
}

// lowerBridge mirrors upperBridge.
func lowerBridge(pts []pt, m, maxSlope float64) line {
	w, x := pointWorkspace(pts, m, false)
	return w.lowerBound(x, maxSlope)
}

// TestBridgeMatchesChains holds the bridge search to the Graham-scan
// chains on bare point sets drawn from a small integer grid, where
// every product is exact: duplicate points, several points per τ and
// collinear runs are the rule there, and the two must agree on which
// vertices delimit the edge for every median, including medians at a
// vertex, before the first endpoint and beyond the last.
func TestBridgeMatchesChains(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 20000; iter++ {
		n := rng.Intn(12)
		span := 1 + rng.Intn(8)
		pts := []pt{{0, float64(rng.Intn(9) - 4)}}
		for i := 0; i < n; i++ {
			pts = append(pts, pt{float64(1 + rng.Intn(span)), float64(rng.Intn(9) - 4)})
		}
		slope := math.Inf(-1)
		if rng.Intn(3) == 0 {
			slope = float64(rng.Intn(7)-3) / 2
		}
		sorted := append([]pt(nil), pts...)
		sortPts(sorted)
		for _, m := range []float64{-1, 0, 0.5, 1, 1.5, 2, 3, float64(span) / 2, float64(span), float64(span) + 1} {
			if got, want := upperBridge(pts, m, slope), refUpperBridge(sorted, m, slope); got != want {
				t.Fatalf("iter %d: upper bridge of %v at m=%v, slope >= %v: got %v, want %v", iter, pts, m, slope, got, want)
			}
			if got, want := lowerBridge(pts, m, -slope), refLowerBridge(sorted, m, -slope); got != want {
				t.Fatalf("iter %d: lower bridge of %v at m=%v, slope <= %v: got %v, want %v", iter, pts, m, -slope, got, want)
			}
		}
	}
}

// referenceCase is one differential comparison: the same items through
// the bridge search and through the sort-and-scan reference must give
// == rectangles, every coordinate and velocity.
func referenceCase(t *testing.T, label string, items []geom.TPRect, tupd, horizon float64, dims int, order []int) {
	t.Helper()
	got := NearOptimal(items, tupd, horizon, dims, order)
	want := referenceNearOptimal(items, tupd, horizon, dims, order)
	if got != want {
		t.Fatalf("%s: %d items, tupd=%v horizon=%v dims=%d order=%v:\n got  %v\n want %v", label, len(items), tupd, horizon, dims, order, got, want)
	}
}

// orders returns the dimension orders a case is tried with.
func orders(dims int) [][]int {
	if dims == 2 {
		return [][]int{{0, 1}, {1, 0}}
	}
	return [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}
}

func TestNearOptimalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4104))
	// shapes edits a random item set into one of the cases that stress
	// the vertex rules.
	shapes := []struct {
		name string
		edit func(items []geom.TPRect, tupd float64, dims int)
	}{
		{"random", func([]geom.TPRect, float64, int) {}},
		{"points", func(items []geom.TPRect, _ float64, _ int) {
			for i := range items {
				items[i].Hi, items[i].VHi = items[i].Lo, items[i].VLo
			}
		}},
		{"duplicate expiry", func(items []geom.TPRect, tupd float64, _ int) {
			for i := range items {
				items[i].TExp = tupd + float64(1+rng.Intn(4))*10
			}
		}},
		{"all expired", func(items []geom.TPRect, tupd float64, _ int) {
			for i := range items {
				items[i].TExp = tupd - rng.Float64()*10
			}
		}},
		{"expiring now", func(items []geom.TPRect, tupd float64, _ int) {
			for i := range items {
				if i%2 == 0 {
					items[i].TExp = tupd
				}
			}
		}},
		{"never expiring", func(items []geom.TPRect, _ float64, _ int) {
			for i := range items {
				items[i].TExp = geom.Inf()
			}
		}},
		{"mixed finite and infinite", func(items []geom.TPRect, _ float64, _ int) {
			for i := range items {
				if rng.Intn(3) == 0 {
					items[i].TExp = geom.Inf()
				}
			}
		}},
		{"collinear", func(items []geom.TPRect, tupd float64, dims int) {
			// Stationary points on an integer lattice expiring at
			// integer times: every endpoint set is full of exactly
			// collinear triples and repeated points.
			for i := range items {
				var r geom.TPRect
				for d := 0; d < dims; d++ {
					r.Lo[d] = float64(rng.Intn(5))
					r.VLo[d] = float64(rng.Intn(3) - 1)
				}
				r.Hi, r.VHi = r.Lo, r.VLo
				r.TExp = math.Floor(tupd) + float64(rng.Intn(6))
				items[i] = r
			}
		}},
		{"shared velocity", func(items []geom.TPRect, _ float64, dims int) {
			// A convoy: one velocity, positions on a line.
			for i := range items {
				for d := 0; d < dims; d++ {
					items[i].Lo[d] = float64(i)
					items[i].VLo[d] = 1.5
				}
				items[i].Hi, items[i].VHi = items[i].Lo, items[i].VLo
			}
		}},
	}
	for iter := 0; iter < 3000; iter++ {
		dims := 2 + iter%2
		n := 1 + rng.Intn(200)
		if iter%7 == 0 {
			n = 1 + rng.Intn(3)
		}
		tupd := float64(rng.Intn(3)) * rng.Float64() * 100
		horizon := 1 + rng.Float64()*150
		sh := shapes[iter%len(shapes)]
		items := randItems(rng, n, dims, tupd, false)
		sh.edit(items, tupd, dims)
		for _, order := range orders(dims) {
			referenceCase(t, sh.name, items, tupd, horizon, dims, order)
		}
	}
}

// TestNearOptimalQuantizedMatchesReference repeats the comparison on
// entries as the tree stores them: float32 coordinates, velocities and
// expiry times evaluated in float64.
func TestNearOptimalQuantizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4105))
	q := func(v float64) float64 { return float64(float32(v)) }
	for iter := 0; iter < 2000; iter++ {
		dims := 2 + iter%2
		tupd := rng.Float64() * 600
		items := randItems(rng, 1+rng.Intn(200), dims, tupd, iter%5 == 0)
		for i := range items {
			it := &items[i]
			for d := 0; d < dims; d++ {
				it.Lo[d], it.Hi[d] = q(it.Lo[d]), q(it.Hi[d])
				it.VLo[d], it.VHi[d] = q(it.VLo[d]), q(it.VHi[d])
			}
			it.TExp = q(it.TExp)
		}
		for _, order := range orders(dims) {
			referenceCase(t, "quantized", items, tupd, 90, dims, order)
		}
	}
}

// TestWorkspaceReuse checks that a workspace carries nothing over from
// one computation to the next, whatever the sizes and dimensionality.
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var w Workspace
	for iter := 0; iter < 300; iter++ {
		dims := 1 + rng.Intn(3)
		items := randItems(rng, 1+rng.Intn(150), dims, 5, true)
		order := rng.Perm(dims)
		w.Reset(5, dims)
		for i := range items {
			w.Add(&items[i], items[i].TExp)
		}
		if got, want := w.NearOptimal(40, order), referenceNearOptimal(items, 5, 40, dims, order); got != want {
			t.Fatalf("iter %d: reused workspace gave %v, want %v", iter, got, want)
		}
	}
}

// TestWorkspaceAllocs pins the kernel at zero allocations once its
// buffers have grown.  (The free function adds only its pool, which
// the race detector deliberately makes lossy, so it is the workspace
// that is measured.)
func TestWorkspaceAllocs(t *testing.T) {
	items := benchItems(170)
	order := []int{0, 1}
	var w Workspace
	run := func() {
		w.Reset(0, 2)
		for i := range items {
			w.Add(&items[i], items[i].TExp)
		}
		w.NearOptimal(60, order)
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("a warm workspace allocates %.1f objects per rectangle, want 0", n)
	}
}

// FuzzNearOptimalBridge feeds the bridge search entry sets decoded
// from the fuzz input onto a small grid (positions, velocities and
// times that are small multiples of 1/4), where all the endpoint
// arithmetic is exact, and requires the reference's rectangle.  On
// such inputs ties — repeated endpoints, equal expiry times, collinear
// runs, a median exactly at a vertex — are the common case, not the
// exception.
func FuzzNearOptimalBridge(f *testing.F) {
	f.Add([]byte{2, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add([]byte{3, 8, 1, 255, 0, 255, 0, 255, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(binary.LittleEndian.AppendUint64([]byte{2, 120, 2}, 0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dims := 2 + int(data[0])%2
		horizon := float64(1+int(data[1])) / 4
		tupd := float64(data[2]%8) / 4
		data = data[3:]
		// One entry per 1+3·dims bytes: expiry, then position, extent
		// and velocity per dimension.
		stride := 1 + 3*dims
		var items []geom.TPRect
		for ; len(data) >= stride && len(items) < 200; data = data[stride:] {
			var r geom.TPRect
			switch e := data[0]; {
			case e >= 250:
				r.TExp = geom.Inf()
			default:
				r.TExp = float64(e%32) / 4 // some at or before tupd
			}
			for d := 0; d < dims; d++ {
				b := data[1+3*d : 4+3*d]
				r.Lo[d] = float64(b[0]%16) / 4
				r.Hi[d] = r.Lo[d] + float64(b[1]%4)/4
				r.VLo[d] = float64(int(b[2]%8)-4) / 4
				r.VHi[d] = r.VLo[d] + float64(b[2]/64)/4
			}
			items = append(items, r)
		}
		if len(items) == 0 {
			return
		}
		for _, order := range orders(dims) {
			referenceCase(t, "fuzz", items, tupd, horizon, dims, order)
		}
	})
}
