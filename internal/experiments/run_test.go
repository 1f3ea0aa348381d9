package experiments

import (
	"runtime"
	"strings"
	"testing"

	"rexptree/internal/hull"
	"rexptree/internal/workload"
)

// tinyWL is a fast workload for unit tests.
func tinyWL(seed int64) workload.Params {
	return workload.Params{Seed: seed, Objects: 400, Insertions: 4000}
}

func TestRunRexp(t *testing.T) {
	cfg := rexpCfg(hull.KindNearOptimal, false, true, 1)
	// Shrink the buffer below the index size so queries actually miss.
	cfg.BufferPages = 3
	m, err := Run(TreeConfig{Label: "rexp", Core: cfg}, tinyWL(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries == 0 || m.Updates == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.SearchIO <= 0 || m.UpdateIO <= 0 {
		t.Fatalf("no I/O recorded: %+v", m)
	}
	if m.QueueIO != 0 {
		t.Fatalf("unscheduled run reported queue I/O: %+v", m)
	}
	if m.ExpiredFrac > 0.1 {
		t.Errorf("expired fraction %v too high", m.ExpiredFrac)
	}
}

func TestRunScheduledKeepsZeroExpired(t *testing.T) {
	m, err := Run(TreeConfig{
		Label:     "rexp+sched",
		Core:      rexpCfg(hull.KindNearOptimal, false, true, 1),
		Scheduled: true,
	}, tinyWL(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.ExpiredFrac != 0 {
		t.Errorf("scheduled deletions left expired entries: %v", m.ExpiredFrac)
	}
	if m.QueueIO == 0 {
		t.Error("no B-tree I/O recorded for scheduled variant")
	}
}

func TestRunTPRKeepsEverything(t *testing.T) {
	// Without expiration support and with NewOb > 0, dead objects pile
	// up: the TPR index ends larger than the R^exp index.
	wl := tinyWL(3)
	wl.NewOb = 1.5
	tpr, err := Run(TreeConfig{Label: "tpr", Core: tprCfg(1)}, wl)
	if err != nil {
		t.Fatal(err)
	}
	rexp, err := Run(TreeConfig{Label: "rexp", Core: rexpCfg(hull.KindNearOptimal, false, true, 1)}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if tpr.LeafEntries <= rexp.LeafEntries {
		t.Errorf("TPR leaf entries %d <= Rexp %d; turned-off objects were not retained",
			tpr.LeafEntries, rexp.LeafEntries)
	}
}

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	want := []string{"9", "10", "11", "12", "13", "14", "15", "16"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if _, err := RunFigure("42", 0.001, 1, nil); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFigureTiny(t *testing.T) {
	// A micro-scale run of figure 13 exercises all four comparison
	// indexes end to end, on one worker and on four: the parallel
	// driver must give the same table and the same progress lines in
	// the same order.
	render := func(procs int) (string, []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var lines []string
		fig, err := RunFigure("13", 0.002, 7, func(l string) { lines = append(lines, l) })
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) != 4 {
			t.Fatalf("series = %d", len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) != len(fig.Xs) {
				t.Fatalf("series %q has %d points for %d xs", s.Label, len(s.Points), len(fig.Xs))
			}
			for i, m := range s.Points {
				if m.X != fig.Xs[i] || m.Updates == 0 || m.Queries == 0 {
					t.Fatalf("series %q, x=%v: point placed before its run finished: %+v", s.Label, fig.Xs[i], m)
				}
			}
		}
		if len(lines) != 4*len(fig.Xs) {
			t.Errorf("progress lines = %d", len(lines))
		}
		return fig.Render(), lines
	}
	out, lines := render(1)
	for _, frag := range []string{"Figure 13", "Rexp-tree", "TPR-tree", "scheduled"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
	out4, lines4 := render(4)
	if out4 != out {
		t.Errorf("table at GOMAXPROCS 4 differs from GOMAXPROCS 1:\n%s\nvs\n%s", out4, out)
	}
	if strings.Join(lines4, "\n") != strings.Join(lines, "\n") {
		t.Errorf("progress at GOMAXPROCS 4 differs from GOMAXPROCS 1:\n%s\nvs\n%s",
			strings.Join(lines4, "\n"), strings.Join(lines, "\n"))
	}
}

func TestSpecGrid(t *testing.T) {
	all := specs(1)
	wantSeries := map[string]int{
		"9": 4, "10": 4, "11": 5, "12": 5,
		"13": 4, "14": 4, "15": 4, "16": 4,
	}
	wantMetric := map[string]string{
		"9": "search", "10": "search", "11": "search", "12": "search",
		"13": "search", "14": "search", "15": "size", "16": "update",
	}
	for id, sp := range all {
		if len(sp.trees) != wantSeries[id] {
			t.Errorf("figure %s: %d trees, want %d", id, len(sp.trees), wantSeries[id])
		}
		if sp.metric != wantMetric[id] {
			t.Errorf("figure %s: metric %q, want %q", id, sp.metric, wantMetric[id])
		}
		if len(sp.xs) < 4 {
			t.Errorf("figure %s: only %d x values", id, len(sp.xs))
		}
		// Workload parameters must be valid at every x.
		for _, x := range sp.xs {
			if _, err := workload.NewGenerator(sp.wl(x).Scale(0.001)); err != nil {
				t.Errorf("figure %s at x=%v: %v", id, x, err)
			}
		}
		// Tree configurations must be valid.
		for _, tc := range sp.trees {
			if _, err := Run(tc, workload.Params{Seed: 1, Objects: 100, Insertions: 1000}); err != nil {
				t.Errorf("figure %s, %s: %v", id, tc.Label, err)
			}
		}
	}
	// The ExpT=30 workloads use the shorter query window (§5.1).
	p := specs(1)["9"].wl(30)
	if p.QueryW != 15 {
		t.Errorf("ExpT=30 workload QueryW = %v, want 15", p.QueryW)
	}
	if p = specs(1)["9"].wl(120); p.QueryW != 0 { // defaulted to UI/2 later
		t.Errorf("ExpT=120 workload QueryW = %v, want default", p.QueryW)
	}
}

func TestFigureValue(t *testing.T) {
	m := Metrics{SearchIO: 1, UpdateIO: 2, IndexPages: 3}
	if (Figure{Metric: "search"}).Value(m) != 1 {
		t.Error("search metric")
	}
	if (Figure{Metric: "update"}).Value(m) != 2 {
		t.Error("update metric")
	}
	if (Figure{Metric: "size"}).Value(m) != 3 {
		t.Error("size metric")
	}
}
