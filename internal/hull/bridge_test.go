package hull

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rexptree/internal/geom"
)

// bridgeBound loads pts — anchors at t = 0, endpoints at t > 0 — into
// a workspace split at m and returns the upper (or lower) bound line
// with the given slope limit, as NearOptimal would for the upper (or
// lower) endpoints of a dimension.
func bridgeBound(pts []pt, m, limit float64, upper bool) line {
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
	qu, ql := w.split(m, x, x)
	if upper {
		return w.bound(x, limit, qu, true)
	}
	return w.bound(x, limit, ql, false)
}

// upperBridge runs the bridge search on a bare point set.
func upperBridge(pts []pt, m, minSlope float64) line {
	return bridgeBound(pts, m, minSlope, true)
}

// lowerBridge mirrors upperBridge.
func lowerBridge(pts []pt, m, maxSlope float64) line {
	return bridgeBound(pts, m, maxSlope, false)
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
	switch dims {
	case 1:
		return [][]int{{0}}
	case 2:
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
		w.addRects(items)
		if got, want := w.NearOptimal(40, order), referenceNearOptimal(items, 5, 40, dims, order); got != want {
			t.Fatalf("iter %d: reused workspace gave %v, want %v", iter, got, want)
		}
	}
}

// pointColumns returns the position, velocity and expiry columns of
// items taken as points (their Lo and VLo), as a leaf stores them.
func pointColumns(items []geom.TPRect, dims int) (pos, vel, texp []float64) {
	for i := range items {
		pos = append(pos, items[i].Lo[:dims]...)
		vel = append(vel, items[i].VLo[:dims]...)
		texp = append(texp, items[i].TExp)
	}
	return pos, vel, texp
}

// asPoints returns items with every extent and velocity spread dropped.
func asPoints(items []geom.TPRect) []geom.TPRect {
	pts := slices.Clone(items)
	for i := range pts {
		pts[i].Hi, pts[i].VHi = pts[i].Lo, pts[i].VLo
	}
	return pts
}

// sameBits reports whether two rectangles agree bit for bit, which ==
// does not check for signed zeros.
func sameBits(a, b geom.TPRect) bool {
	for d := range geom.MaxDims {
		for _, p := range [][2]float64{{a.Lo[d], b.Lo[d]}, {a.Hi[d], b.Hi[d]}, {a.VLo[d], b.VLo[d]}, {a.VHi[d], b.VHi[d]}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	return math.Float64bits(a.TExp) == math.Float64bits(b.TExp)
}

// pointsCase holds the leaf entry point to the column entry point and
// to the reference on items taken as points: AddPoints, split into two
// runs at cut, against one AddColumns(pos, pos, vel, vel, texp) call,
// bit for bit, and both against the sort-and-scan reference.
func pointsCase(t *testing.T, label string, items []geom.TPRect, tupd, horizon float64, dims, cut int, order []int) {
	t.Helper()
	pts := asPoints(items)
	pos, vel, texp := pointColumns(pts, dims)
	var a, b Workspace
	a.Reset(tupd, dims)
	a.AddPoints(pos[:cut*dims], vel[:cut*dims], texp[:cut])
	a.AddPoints(pos[cut*dims:], vel[cut*dims:], texp[cut:])
	b.Reset(tupd, dims)
	b.AddColumns(pos, pos, vel, vel, texp)
	got, cols := a.NearOptimal(horizon, order), b.NearOptimal(horizon, order)
	if !sameBits(got, cols) {
		t.Fatalf("%s: %d points, tupd=%v dims=%d: AddPoints gave\n %v, AddColumns\n %v", label, len(pts), tupd, dims, got, cols)
	}
	if want := referenceNearOptimal(pts, tupd, horizon, dims, order); got != want {
		t.Fatalf("%s: %d points, tupd=%v dims=%d order=%v:\n got  %v\n want %v", label, len(pts), tupd, dims, order, got, want)
	}
}

// edgeItems draws the iter-th item set of the edge-case tests, in one
// to three dimensions, on the expiry times that take each branch of the
// classification — never (+Inf, -Inf, NaN), at or before tupd, after
// it — on signed zeros, on a lone entry and on nodes whose every entry
// has expired (where no entry bounds a velocity).
func edgeItems(rng *rand.Rand, iter int) (items []geom.TPRect, tupd float64, dims int) {
	expiries := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1, 1}
	dims = 1 + iter%3
	tupd = float64(rng.Intn(3)) * 10
	n := 1 + rng.Intn(60)
	if iter%5 == 0 {
		n = 1
	}
	items = randItems(rng, n, dims, tupd, false)
	for i := range items {
		it := &items[i]
		switch k := rng.Intn(10); {
		case iter%4 == 3: // every entry expired, some exactly at tupd
			it.TExp = tupd - float64(rng.Intn(2))*rng.Float64()
		case k < len(expiries):
			it.TExp = tupd + expiries[k]
		}
		for d := 0; d < dims; d++ {
			switch rng.Intn(6) {
			case 0:
				it.Lo[d] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			case 1:
				it.VLo[d] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		}
	}
	return items, tupd, dims
}

// TestAddPointsMatchesColumns covers the leaf entry point on the edge
// cases of edgeItems.
func TestAddPointsMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 3000; iter++ {
		items, tupd, dims := edgeItems(rng, iter)
		order := rng.Perm(dims)
		pointsCase(t, "points", items, tupd, 1+rng.Float64()*100, dims, rng.Intn(len(items)+1), order)
	}
}

var kinds = []Kind{KindConservative, KindStatic, KindUpdateMinimum, KindNearOptimal, KindOptimal}

// finish returns the rectangle of kind over the entries added to w;
// vlo and vhi are their velocity columns (conservative reads them),
// world only matters to static, order only to near-optimal.
func finish(w *Workspace, kind Kind, vlo, vhi []float64, horizon float64, world geom.Rect, order []int) geom.TPRect {
	switch kind {
	case KindStatic:
		return w.Static(world)
	case KindUpdateMinimum:
		return w.UpdateMinimum()
	case KindNearOptimal:
		return w.NearOptimal(horizon, order)
	case KindOptimal:
		return w.Optimal(horizon)
	}
	return w.Conservative(vlo, vhi)
}

// workspaceBR computes the rectangle of kind over items through a
// workspace, the items added as columns.
func workspaceBR(kind Kind, items []geom.TPRect, tupd, horizon float64, dims int, world geom.Rect, order []int) geom.TPRect {
	var w Workspace
	w.Reset(tupd, dims)
	w.addRects(items)
	n := len(items) * dims
	return finish(&w, kind, w.cols[2*n:3*n], w.cols[3*n:4*n], horizon, world, order)
}

// kindCase holds the finisher of kind to its reference, bit for bit,
// over items added as columns and, taken as points, added by AddPoints
// in two runs split at cut.
func kindCase(t *testing.T, label string, kind Kind, items []geom.TPRect, tupd, horizon float64, dims, cut int, order []int) {
	t.Helper()
	world := geom.Rect{Lo: geom.Vec{-50, -40, -30}, Hi: geom.Vec{1000, 900, 800}}
	if got, want := workspaceBR(kind, items, tupd, horizon, dims, world, order), reference(kind, items, tupd, horizon, dims, world, order); !sameBits(got, want) {
		t.Fatalf("%s: %v over %d rectangles, tupd=%v horizon=%v dims=%d order=%v:\n got  %v\n want %v", label, kind, len(items), tupd, horizon, dims, order, got, want)
	}
	pts := asPoints(items)
	pos, vel, texp := pointColumns(pts, dims)
	var w Workspace
	w.Reset(tupd, dims)
	w.AddPoints(pos[:cut*dims], vel[:cut*dims], texp[:cut])
	w.AddPoints(pos[cut*dims:], vel[cut*dims:], texp[cut:])
	if got, want := finish(&w, kind, vel, vel, horizon, world, order), reference(kind, pts, tupd, horizon, dims, world, order); !sameBits(got, want) {
		t.Fatalf("%s: %v over %d points, tupd=%v horizon=%v dims=%d order=%v:\n got  %v\n want %v", label, kind, len(pts), tupd, horizon, dims, order, got, want)
	}
}

// TestWorkspaceKindsMatchReference holds every kind's finisher to its
// reference on the edge cases of edgeItems.
func TestWorkspaceKindsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 1500; iter++ {
		items, tupd, dims := edgeItems(rng, iter)
		horizon := 1 + rng.Float64()*100
		order := rng.Perm(dims)
		for _, k := range kinds {
			kindCase(t, "edge", k, items, tupd, horizon, dims, rng.Intn(len(items)+1), order)
		}
	}
}

// FuzzWorkspaceKinds feeds the workspace entry sets decoded from the
// fuzz input onto a small grid (positions, velocities and times that
// are small multiples of 1/4, some of them -0), where all the endpoint
// arithmetic is exact, and requires each kind's reference rectangle,
// bit for bit; near-optimal's bridge search is also held to AddColumns
// over the points.  On such inputs ties — repeated endpoints, equal
// expiry times, collinear runs, a median exactly at a vertex — are the
// common case, not the exception.  The first four bytes pick the kind,
// the dimensionality (1 to 3), the horizon and tupd.
func FuzzWorkspaceKinds(f *testing.F) {
	f.Add([]byte{3, 1, 40, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add([]byte{3, 2, 8, 1, 255, 0, 255, 0, 255, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(binary.LittleEndian.AppendUint64([]byte{3, 1, 120, 2}, 0x0123456789abcdef))
	f.Add([]byte{0, 1, 40, 3, 250, 128, 1, 12, 128, 1, 12, 7, 5, 2, 44, 9, 3, 200})
	f.Add([]byte{1, 2, 9, 5, 251, 128, 2, 77, 3, 1, 2, 30, 4, 5, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{2, 0, 16, 7, 1, 128, 2, 3, 4, 5, 6, 2, 8, 9, 10})   // every entry expired: no velocity bound
	f.Add([]byte{2, 1, 30, 4, 2, 140, 1, 12, 6, 3, 2, 200, 4, 5, 6}) // one entry expiring exactly at tupd
	f.Add([]byte{4, 1, 60, 1, 9, 3, 3, 7, 17, 2, 5, 12, 250, 8, 1, 70, 30, 14, 2, 40, 5, 6})
	f.Add([]byte{4, 2, 60, 0, 9, 3, 3, 7, 1, 2, 3, 17, 2, 5, 12, 4, 5, 6, 250, 8, 1, 70, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		kind := kinds[int(data[0])%len(kinds)]
		dims := 1 + int(data[1])%3
		horizon := float64(1+int(data[2])) / 4
		tupd := float64(data[3]%8) / 4
		data = data[4:]
		// One entry per 1+3·dims bytes: expiry, then position, extent
		// and velocity per dimension.
		stride := 1 + 3*dims
		var items []geom.TPRect
		for ; len(data) >= stride && len(items) < 200; data = data[stride:] {
			var r geom.TPRect
			switch e := data[0]; {
			case e >= 250:
				r.TExp = geom.Inf()
			case e >= 248:
				r.TExp = math.NaN()
			case e >= 246:
				r.TExp = math.Inf(-1)
			default:
				r.TExp = float64(e%32) / 4 // some at or before tupd
			}
			for d := 0; d < dims; d++ {
				b := data[1+3*d : 4+3*d]
				r.Lo[d] = float64(b[0]%16) / 4
				if b[0]%16 == 0 && b[0]&0x80 != 0 {
					r.Lo[d] = math.Copysign(0, -1)
				}
				r.Hi[d] = r.Lo[d] + float64(b[1]%4)/4
				r.VLo[d] = float64(int(b[2]%8)-4) / 4
				if b[2]%8 == 4 && b[2]&0x20 != 0 {
					r.VLo[d] = math.Copysign(0, -1)
				}
				r.VHi[d] = r.VLo[d] + float64(b[2]/64)/4
			}
			items = append(items, r)
		}
		if len(items) == 0 {
			return
		}
		for _, order := range orders(dims) {
			kindCase(t, "fuzz", kind, items, tupd, horizon, dims, len(items)/2, order)
			if kind == KindNearOptimal {
				pointsCase(t, "fuzz points", items, tupd, horizon, dims, len(items)/2, order)
			}
		}
	})
}

// TestWorkspaceAllocs pins every kind's finisher at zero allocations
// once the workspace's buffers have grown, over rectangles and over
// points.  (The free function adds only its pool, which the race
// detector deliberately makes lossy, so it is the workspace that is
// measured.)
func TestWorkspaceAllocs(t *testing.T) {
	items := benchItems(170)
	pos, vel, texp := pointColumns(items, 2)
	n := 2 * len(items)
	order := []int{0, 1}
	var w Workspace
	for _, c := range []struct {
		name     string
		add      func()
		vlo, vhi func() []float64
	}{
		{"AddColumns", func() { w.addRects(items) }, func() []float64 { return w.cols[2*n : 3*n] }, func() []float64 { return w.cols[3*n : 4*n] }},
		{"AddPoints", func() { w.AddPoints(pos, vel, texp) }, func() []float64 { return vel }, func() []float64 { return vel }},
	} {
		for _, k := range kinds {
			run := func() {
				w.Reset(0, 2)
				c.add()
				finish(&w, k, c.vlo(), c.vhi(), 60, testWorld, order)
			}
			run()
			if a := testing.AllocsPerRun(100, run); a != 0 {
				t.Errorf("%s, %v: a warm workspace allocates %.1f objects per rectangle, want 0", c.name, k, a)
			}
		}
	}
}

// TestMaxfMinfMatchMath holds the inlined extremes to math.Max and
// math.Min, bit for bit, on every pair of special and ordinary values.
func TestMaxfMinfMatchMath(t *testing.T) {
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		1, -1, 2.5, -2.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := maxf(x, y), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("maxf(%v, %v) = %v, math.Max gives %v", x, y, got, want)
			}
			if got, want := minf(x, y), math.Min(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("minf(%v, %v) = %v, math.Min gives %v", x, y, got, want)
			}
		}
	}
}
