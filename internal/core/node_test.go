package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

func TestLayoutMatchesPaperFanout(t *testing.T) {
	// §5.1: 4 KiB pages give 170 entries in a full leaf and 102 in a
	// full internal node (2-D, velocities and expiration recorded).
	l := newLayout(Config{Dims: 2, ExpireAware: true, StoreBRExp: true}.withDefaults())
	if l.leafCap != 170 {
		t.Errorf("leaf capacity = %d, want 170", l.leafCap)
	}
	if l.innerCap != 102 {
		t.Errorf("internal capacity = %d, want 102", l.innerCap)
	}
}

func TestLayoutVariants(t *testing.T) {
	// Without stored expiration times internal entries shrink.
	noExp := newLayout(Config{Dims: 2, ExpireAware: true}.withDefaults())
	if noExp.innerSize != 36 || noExp.innerCap != 113 {
		t.Errorf("no-exp internal: size %d cap %d", noExp.innerSize, noExp.innerCap)
	}
	// Static BRs drop the velocities, raising fan-out by almost a
	// factor of two (§4.1.2).
	static := newLayout(Config{Dims: 2, ExpireAware: true, StoreBRExp: true, BRKind: hull.KindStatic}.withDefaults())
	if static.innerSize != 24 || static.innerCap != 170 {
		t.Errorf("static internal: size %d cap %d", static.innerSize, static.innerCap)
	}
	// A plain TPR-tree has no expiration field in leaf entries, so its
	// leaf fan-out is higher.
	tpr := newLayout(Config{Dims: 2}.withDefaults())
	if tpr.leafSize != 20 || tpr.leafCap != 204 {
		t.Errorf("TPR leaf: size %d cap %d", tpr.leafSize, tpr.leafCap)
	}
	// 1-D and 3-D layouts.
	d1 := newLayout(Config{Dims: 1, ExpireAware: true}.withDefaults())
	if d1.leafSize != 16 {
		t.Errorf("1-D leaf size = %d", d1.leafSize)
	}
	d3 := newLayout(Config{Dims: 3, ExpireAware: true}.withDefaults())
	if d3.leafSize != 32 {
		t.Errorf("3-D leaf size = %d", d3.leafSize)
	}
}

func TestF32Rounding(t *testing.T) {
	for _, x := range []float64{0, 1, -1, 3.14159265358979, 1e9, -2.718281828e-3, 1000.0001} {
		d, u := f32Down(x), f32Up(x)
		if float64(d) > x {
			t.Errorf("f32Down(%v) = %v exceeds input", x, d)
		}
		if float64(u) < x {
			t.Errorf("f32Up(%v) = %v below input", x, u)
		}
		if math.Nextafter(float64(d), math.Inf(1)) < x && float64(u)-float64(d) > 2*math.Abs(x)*1e-7+1e-30 {
			t.Errorf("rounding of %v too wide: [%v, %v]", x, d, u)
		}
	}
	if !math.IsInf(float64(f32Up(math.Inf(1))), 1) {
		t.Error("f32Up(+Inf) lost infinity")
	}
	if !math.IsInf(float64(f32Down(math.Inf(-1))), -1) {
		t.Error("f32Down(-Inf) lost infinity")
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	p := geom.MovingPoint{Pos: geom.Vec{123.456789, 987.654321}, Vel: geom.Vec{1.234567, -2.345678}, TExp: 1234.5678}
	q1 := quantize(p, 2)
	q2 := quantize(q1, 2)
	if q1 != q2 {
		t.Errorf("quantize not idempotent: %v vs %v", q1, q2)
	}
	inf := geom.MovingPoint{TExp: geom.Inf()}
	if !math.IsInf(quantize(inf, 2).TExp, 1) {
		t.Error("quantize lost infinite expiration")
	}
}

func TestNodeEncodeDecodeLeaf(t *testing.T) {
	l := newLayout(Config{Dims: 2, ExpireAware: true, StoreBRExp: true}.withDefaults())
	rng := rand.New(rand.NewSource(41))
	n := &node{id: 7, level: 0}
	for i := 0; i < l.leafCap; i++ {
		p := quantize(geom.MovingPoint{
			Pos:  geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			TExp: rng.Float64() * 500,
		}, 2)
		n.entries = append(n.entries, entry{id: uint32(i), rect: geom.PointTPRect(p)})
	}
	buf := make([]byte, storage.PageSize)
	l.encode(n, buf)
	got, err := l.decode(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.level != 0 || len(got.entries) != len(n.entries) {
		t.Fatalf("decoded level %d count %d", got.level, len(got.entries))
	}
	for i := range n.entries {
		if got.entries[i] != n.entries[i] {
			t.Fatalf("entry %d round trip: %+v vs %+v", i, got.entries[i], n.entries[i])
		}
	}
}

func TestNodeEncodeDecodeInternalOutwardRounding(t *testing.T) {
	for _, storeExp := range []bool{true, false} {
		l := newLayout(Config{Dims: 2, ExpireAware: true, StoreBRExp: storeExp}.withDefaults())
		rng := rand.New(rand.NewSource(43))
		n := &node{id: 9, level: 2}
		for i := 0; i < 20; i++ {
			r := geom.TPRect{
				Lo:   geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				VLo:  geom.Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
				TExp: rng.Float64() * 500,
			}
			r.Hi = r.Lo.Add(geom.Vec{rng.Float64() * 10, rng.Float64() * 10})
			r.VHi = r.VLo.Add(geom.Vec{rng.Float64(), rng.Float64()})
			n.entries = append(n.entries, entry{id: uint32(100 + i), rect: r})
		}
		buf := make([]byte, storage.PageSize)
		l.encode(n, buf)
		got, err := l.decode(9, buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, ge := range got.entries {
			orig := n.entries[i].rect
			// Decoded rectangle must contain the original at any t >= 0.
			for _, tt := range []float64{0, 1, 100} {
				if !ge.rect.At(tt).ContainsRect(orig.At(tt), 2) {
					t.Fatalf("storeExp=%v entry %d: decoded rect does not contain original at t=%v", storeExp, i, tt)
				}
			}
			if storeExp {
				if ge.rect.TExp < orig.TExp {
					t.Fatalf("decoded TExp %v < original %v", ge.rect.TExp, orig.TExp)
				}
			} else if !math.IsInf(ge.rect.TExp, 1) {
				t.Fatalf("TExp should decode as +Inf when not stored, got %v", ge.rect.TExp)
			}
		}
	}
}

// The page image depends on the node alone, not on what the buffer
// held before: a longer earlier image leaves nothing behind.
func TestEncodeZeroesUnusedTail(t *testing.T) {
	l := newLayout(Config{Dims: 2, ExpireAware: true}.withDefaults())
	n := &node{id: 3, level: 0}
	for i := 0; i < 40; i++ {
		p := quantize(geom.MovingPoint{Pos: geom.Vec{float64(i), 2}, Vel: geom.Vec{1, -1}, TExp: 9}, 2)
		n.entries = append(n.entries, entry{id: uint32(i), rect: geom.PointTPRect(p)})
	}
	used := make([]byte, storage.PageSize)
	l.encode(n, used)
	n.entries = n.entries[:7]
	l.encode(n, used)
	fresh := make([]byte, storage.PageSize)
	l.encode(n, fresh)
	if !bytes.Equal(used, fresh) {
		t.Fatal("re-encoding a shrunken node left bytes of the removed entries in the page")
	}
}

func TestDecodeRejectsCorruptCount(t *testing.T) {
	l := newLayout(Config{Dims: 2}.withDefaults())
	buf := make([]byte, storage.PageSize)
	buf[2], buf[3] = 0xFF, 0xFF
	if _, err := l.decode(1, buf); err == nil {
		t.Fatal("corrupt count accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dims: 5},
		{Dims: 2, BRKind: hull.Kind(42)},
		{Dims: 2, MinFill: 0.9},
		{Dims: 2, ReinsertFrac: 0.9},
		{Dims: 2, Beta: -1},
		{Dims: 2, StoreBRExp: true}, // requires ExpireAware
	}
	for i, cfg := range bad {
		if err := cfg.withDefaults().validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := (Config{}).withDefaults().validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}
