package main

import (
	"context"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// smokeSizes shrink every workload to a couple of seconds.
var smokeSizes = sizes{
	objects:      2000,
	warm:         200 * time.Millisecond,
	setups:       1,
	checkQueries: 20,
	engineRate:   7000,
	ladderBodies: 12,
}

var (
	testEnv  *env
	testSpec *spec
)

func TestMain(m *testing.M) {
	os.Exit(func() int {
		root, err := findRoot()
		if err != nil {
			panic(err)
		}
		sp, err := loadSpec(root)
		if err != nil {
			panic(err)
		}
		tmp, err := os.MkdirTemp("", "bench-test-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(tmp)
		bin, err := buildRexpd(context.Background(), root, tmp)
		if err != nil {
			panic(err)
		}
		testEnv, testSpec = &env{root: root, rexpd: bin, tmp: tmp}, sp
		return m.Run()
	}())
}

// TestSmoke runs every workload's traced pass (which measures the
// end-to-end metrics too) at smoke size and holds the output to
// BENCHMARK.json: every end-to-end metric on every workload, every
// per-layer metric on at least one, no metric BENCHMARK.json does not
// name, all finite, names and counts within the contract's limits, no
// failed operation.  (That no end-to-end metric is zero holds at full
// size only: at smoke size the durable index fits its cache.)
func TestSmoke(t *testing.T) {
	sp := testSpec
	if len(sp.Workloads) > 8 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json exceeds the caps: %d workloads, %d end-to-end, %d per-layer",
			len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	known := map[string]bool{}
	for _, ms := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(ms.Name) || known[ms.Name] {
			t.Errorf("metric name %q is malformed or listed twice", ms.Name)
		}
		known[ms.Name] = true
	}

	// The workloads run side by side: the test checks what is emitted,
	// not how fast.
	var (
		mu        sync.Mutex
		layerSeen = map[string]bool{}
	)
	t.Run("workloads", func(t *testing.T) {
		for _, w := range sp.Workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(context.Background(), testEnv, smokeSizes, w.Name, 7, time.Second, true)
				if err != nil {
					t.Fatal(err)
				}
				if w.Name == wlEnginePaper {
					// Its traced pass is a replay of its own and measures no
					// end-to-end metric; take those from an untraced run.
					untraced, err := runWorkload(context.Background(), testEnv, smokeSizes, w.Name, 7, time.Second, false)
					if err != nil {
						t.Fatal(err)
					}
					for name, m := range untraced.Metrics {
						res.Metrics[name] = m
					}
					res.Attempted += untraced.Attempted
					res.Failed += untraced.Failed
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%d failed of %d attempted: %v", res.Failed, res.Attempted, res.Notes)
				}
				mu.Lock()
				defer mu.Unlock()
				for name, m := range res.Metrics {
					if !known[name] {
						t.Errorf("emits %s, which BENCHMARK.json does not list", name)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					layerSeen[name] = true
				}
				for _, ms := range sp.EndToEnd {
					if _, ok := res.Metrics[ms.Name]; !ok {
						t.Errorf("end-to-end metric %s missing", ms.Name)
					}
				}
				for _, traced := range []bool{false, true} {
					res.Trace = traced
					if err := printDriverLine(sp, res); err != nil {
						t.Error(err)
					}
				}
			})
		}
	})
	for _, ms := range sp.PerLayer {
		if !layerSeen[ms.Name] {
			t.Errorf("no workload emits per-layer metric %s", ms.Name)
		}
	}
}

// TestUntracedPass covers what the traced pass skips: repeated set-ups
// and the plain window, on the workload with the most moving parts.
func TestUntracedPass(t *testing.T) {
	sz := smokeSizes
	sz.setups = 2
	res, err := runWorkload(context.Background(), testEnv, sz, wlServeFollower, 8, 300*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d failed of %d attempted: %v", res.Failed, res.Attempted, res.Notes)
	}
	if got := res.Metrics["setup_s"].Samples; got != 2 {
		t.Errorf("setup_s rests on %d set-ups, want 2", got)
	}
	if err := printDriverLine(testSpec, res); err != nil {
		t.Error(err)
	}
}

// TestEngineCountsRepeat: engine_paper is fixed work, so the count
// metrics of one seed repeat exactly.
func TestEngineCountsRepeat(t *testing.T) {
	var runs [2]*result
	for i := range runs {
		var err error
		if runs[i], err = runWorkload(context.Background(), testEnv, smokeSizes, wlEnginePaper, 9, 300*time.Millisecond, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"nodes_per_query", "io_per_report", "index_pages"} {
		if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b || a == 0 {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
}

// TestStoredMatchesIndex pins the oracle's idea of a stored record to
// the engine's own.
func TestStoredMatchesIndex(t *testing.T) {
	tr, err := core.New(core.Config{ExpireAware: true}, storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []report{
		{id: 1, pos: [2]float64{412.123456789, 153.4}, vel: [2]float64{0.4912345678, -0.57}, t: 1234.5678, exp: 1354.5678},
		{id: 2, pos: [2]float64{0.1, 999.9}, vel: [2]float64{-3, 3}, t: 60.000001},
	} {
		p := r.point()
		mp := geom.MovingPoint{TExp: p.Expires}
		for i := 0; i < 2; i++ {
			mp.Vel[i] = p.Vel[i]
			mp.Pos[i] = p.Pos[i] - p.Vel[i]*p.Time
		}
		if got, want := r.stored(), tr.Stored(mp); got != want {
			t.Errorf("report %d: stored() = %+v, the index stores %+v", r.id, got, want)
		}
	}
}

// TestQuartileSpread checks the spread against values computed with
// Python's statistics.quantiles(values, n=4), the driver's rule.
func TestQuartileSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 15, 9}, (13.5 - 9.5) / 11},
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestCompareVerdicts drives -compare over synthetic files: runs pair
// by seed, and files whose runs do not pair up are refused.
func TestCompareVerdicts(t *testing.T) {
	sp := testSpec
	write := func(name, mname string, firstSeed int64, vals []float64) string {
		path := t.TempDir() + "/" + name
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i, v := range vals {
			res := result{Workload: wlServeMem, Seed: firstSeed + int64(i), Seconds: 10, Attempted: 10,
				Metrics: map[string]metric{mname: {Value: v}}}
			if err := appendJSON(f, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", "query_p50_ms", 1, []float64{1.00, 2.00, 0.50, 1.00})
	if err := compareFiles(sp, base, write("same", "query_p50_ms", 1, []float64{1.02, 2.02, 0.51, 1.02})); err != nil {
		t.Errorf("2%% slower on every seed is within the bound, got %v", err)
	}
	if err := compareFiles(sp, base, write("slow", "query_p50_ms", 1, []float64{1.30, 2.62, 0.64, 1.30})); err == nil {
		t.Error("30% slower on every seed must be reported worse")
	}
	if err := compareFiles(sp, base, write("noisy", "query_p50_ms", 1, []float64{0.8, 3.8, 0.55, 1.6})); err != nil {
		t.Errorf("a spread wider than the bound is unresolved, not worse: %v", err)
	}
	if err := compareFiles(sp, base, write("seeds", "query_p50_ms", 2, []float64{1.00, 2.00, 0.50, 1.00})); err == nil {
		t.Error("files with different seeds must be refused")
	}
	zero := write("zero", "io_per_report", 1, []float64{0, 0})
	if err := compareFiles(sp, zero, write("some", "io_per_report", 1, []float64{0.5, 0.4})); err == nil {
		t.Error("a lower-is-better metric that leaves 0 must be reported worse")
	}
}
