package rexptree

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
)

const geomMaxDims = geom.MaxDims

func TestMaxDimsMatchesEngine(t *testing.T) {
	if MaxDims != geomMaxDims {
		t.Fatalf("public MaxDims %d != engine %d", MaxDims, geomMaxDims)
	}
}

func TestToInternalEpochConversion(t *testing.T) {
	p := Point{Pos: Vec{100, 200}, Vel: Vec{2, -1}, Time: 10, Expires: 50}
	mp := toInternal(p, 2)
	// Epoch position: pos - vel*time.
	if mp.Pos[0] != 80 || mp.Pos[1] != 210 {
		t.Errorf("epoch pos = %v", mp.Pos)
	}
	// At the report time the positions agree.
	at := mp.At(10)
	if at[0] != 100 || at[1] != 200 {
		t.Errorf("At(10) = %v", at)
	}
	if mp.TExp != 50 {
		t.Errorf("TExp = %v", mp.TExp)
	}
}

func TestToInternalZeroExpiryMeansNever(t *testing.T) {
	mp := toInternal(Point{Pos: Vec{1, 1}}, 2)
	if !math.IsInf(mp.TExp, 1) {
		t.Errorf("zero Expires should mean never, got %v", mp.TExp)
	}
}

func TestFromInternalRoundTrip(t *testing.T) {
	p := Point{Pos: Vec{100, 200}, Vel: Vec{2, -1}, Time: 10, Expires: 50}
	mp := toInternal(p, 2)
	back := fromInternal(mp, 25, 2)
	if back.Time != 25 {
		t.Errorf("Time = %v", back.Time)
	}
	// Predictions agree at any instant.
	for _, tt := range []float64{10, 25, 40} {
		a, b := p.At(tt), back.At(tt)
		if math.Abs(a[0]-b[0]) > 1e-9 || math.Abs(a[1]-b[1]) > 1e-9 {
			t.Errorf("prediction at %v: %v vs %v", tt, a, b)
		}
	}
	if back.Expires != 50 {
		t.Errorf("Expires = %v", back.Expires)
	}
}

func TestBoundingKindMapping(t *testing.T) {
	cases := map[BoundingKind]hull.Kind{
		Conservative:  hull.KindConservative,
		Static:        hull.KindStatic,
		UpdateMinimum: hull.KindUpdateMinimum,
		NearOptimal:   hull.KindNearOptimal,
		Optimal:       hull.KindOptimal,
	}
	for pub, want := range cases {
		if got := (Options{Bounding: pub}).internal().BRKind; got != want {
			t.Errorf("kind %d maps to %v, want %v", pub, got, want)
		}
	}
}

func TestOptionsInternalMapping(t *testing.T) {
	o := DefaultOptions()
	o.BufferPages = 7
	o.Beta = 0.25
	o.FixedW = 12
	o.Seed = 99
	cfg := o.internal()
	if cfg.Dims != 2 || !cfg.ExpireAware || !cfg.AlgsUseExp || cfg.StoreBRExp {
		t.Errorf("core config = %+v", cfg)
	}
	if cfg.BufferPages != 7 || cfg.Beta != 0.25 || cfg.FixedW != 12 || cfg.Seed != 99 {
		t.Errorf("tuning fields lost: %+v", cfg)
	}
	tpr := TPROptions().internal()
	if tpr.ExpireAware || tpr.BRKind != hull.KindConservative {
		t.Errorf("TPR config = %+v", tpr)
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	o := DefaultOptions()
	o.Dims = 9
	if _, err := Open(o); err == nil {
		t.Fatal("dims=9 accepted")
	}
	o = DefaultOptions()
	o.ExpireAware = false
	o.StoreBRExpiration = true
	if _, err := Open(o); err == nil {
		t.Fatal("StoreBRExpiration without ExpireAware accepted")
	}
}

// TestOpenRefusesOutOfRange holds Open and OpenSharded to the declared
// constants: a bounding kind or durability policy outside them is an
// error, not a conservative tree or a WAL that never syncs, and the
// refusal leaves no file behind.
func TestOpenRefusesOutOfRange(t *testing.T) {
	for _, c := range []struct {
		name       string
		bounding   BoundingKind
		durability Durability
	}{
		{"bounding 42", 42, DurabilityNone},
		{"bounding -1", -1, DurabilityNone},
		{"bounding after optimal", Optimal + 1, DurabilityOnCommit},
		{"durability 7", NearOptimal, 7},
		{"durability -1", NearOptimal, -1},
		{"durability after batched", NearOptimal, DurabilityBatched + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			o := DefaultOptions()
			o.Bounding, o.Durability = c.bounding, c.durability
			o.Path = filepath.Join(dir, "idx")
			if tr, err := Open(o); err == nil {
				tr.Close()
				t.Errorf("Open accepted bounding %d, durability %d", c.bounding, c.durability)
			}
			o.Path = filepath.Join(dir, "sharded")
			if s, err := OpenSharded(ShardedOptions{Options: o, Shards: 2}); err == nil {
				s.Close()
				t.Errorf("OpenSharded accepted bounding %d, durability %d", c.bounding, c.durability)
			}
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("the refusals left %d files behind", len(files))
			}
		})
	}
}
