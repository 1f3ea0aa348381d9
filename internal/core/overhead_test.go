package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
)

// TestMetricsOverheadAllocs is the observability layer's cost guard: a
// tree with an instrument registry and one without, fed the same seeded
// stream, must allocate the same per Insert, DeleteBySearch and Search
// and do identical page I/O.  The instruments are atomic counters and
// fixed-bucket histograms, so what they add is arithmetic; a change
// that makes one allocate, or that lets instrumentation steer the tree,
// fails here deterministically.  TestQueryAllocsRecorderOff in the root
// package guards the public query path with the flight recorder off.
// The race detector makes sync.Pool drop items at random, so under it
// only the I/O is judged.
func TestMetricsOverheadAllocs(t *testing.T) {
	race := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			race = race || (s.Key == "-race" && s.Value == "true")
		}
	}
	type reading struct {
		insert, del, search float64
		io                  storage.Stats
	}
	measure := func(met *obs.Metrics) reading {
		cfg := rexpConfig()
		cfg.Metrics = met
		tr, err := New(cfg, storage.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		const n = 3000
		rng := rand.New(rand.NewSource(41))
		stored := make([]geom.MovingPoint, n)
		now := 0.0
		for i := range stored {
			p := randPoint(rng, 1e9)
			if err := tr.Insert(uint32(i), p, now); err != nil {
				t.Fatal(err)
			}
			stored[i] = tr.Stored(p)
		}

		var r reading
		const runs = 200
		next := 0
		r.del = testing.AllocsPerRun(runs, func() {
			now += 0.01
			if ok, err := tr.DeleteBySearch(uint32(next), stored[next], now); !ok || err != nil {
				t.Fatalf("delete %d: %v, %v", next, ok, err)
			}
			next++
		})
		next = 0
		r.insert = testing.AllocsPerRun(runs, func() {
			now += 0.01
			p := randPoint(rng, 1e9)
			if err := tr.Insert(uint32(next), p, now); err != nil {
				t.Fatal(err)
			}
			stored[next] = tr.Stored(p)
			next++
		})
		q := geom.Window(geom.Rect{Lo: geom.Vec{400, 400}, Hi: geom.Vec{600, 600}}, now, now+10)
		r.search = testing.AllocsPerRun(runs, func() {
			if _, err := tr.Search(q, now); err != nil {
				t.Fatal(err)
			}
		})
		r.io = tr.IOStats()
		return r
	}

	on, off := measure(obs.New()), measure(nil)
	t.Logf("objects per operation with / without metrics: insert %.0f / %.0f, delete %.0f / %.0f, search %.0f / %.0f",
		on.insert, off.insert, on.del, off.del, on.search, off.search)
	if on.io != off.io || (!race && on != off) {
		t.Errorf("instrumented tree %+v differs from the uninstrumented one %+v", on, off)
	}
}
