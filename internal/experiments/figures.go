package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rexptree/internal/core"
	"rexptree/internal/hull"
	"rexptree/internal/workload"
)

// Series is one line of a figure: a tree configuration evaluated at
// every x value.
type Series struct {
	Label  string
	Points []Metrics
}

// Figure is a reproduced experiment: the paper's figure number, the
// varied workload parameter, the plotted metric, and one series per
// tree configuration.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Metric string // "search" | "update" | "size"
	Xs     []float64
	Series []Series
}

// Value extracts the figure's metric from a run.
func (f Figure) Value(m Metrics) float64 {
	switch f.Metric {
	case "update":
		return m.UpdateIO
	case "size":
		return m.IndexPages
	default:
		return m.SearchIO
	}
}

// rexpCfg builds an R^exp-tree engine configuration.
func rexpCfg(kind hull.Kind, storeBRExp, algsUseExp bool, seed int64) core.Config {
	return core.Config{
		Dims:        2,
		BRKind:      kind,
		ExpireAware: true,
		StoreBRExp:  storeBRExp,
		AlgsUseExp:  algsUseExp,
		Seed:        seed,
	}
}

// tprCfg builds the baseline TPR-tree configuration.
func tprCfg(seed int64) core.Config {
	return core.Config{Dims: 2, BRKind: hull.KindConservative, Seed: seed}
}

// spec declares one figure's experiment grid.
type spec struct {
	id, title, xlabel, metric string
	xs                        []float64
	trees                     []TreeConfig
	wl                        func(x float64) workload.Params
}

// flavorTrees are the four R^exp-tree flavors of Figures 9 and 10:
// recording expiration times in internal entries or not, crossed with
// insertion heuristics honoring expiration times or treating all
// entries as infinite (§5.2).
func flavorTrees(seed int64) []TreeConfig {
	return []TreeConfig{
		{Label: "BRs with exp.t., algs with exp.t.", Core: rexpCfg(hull.KindNearOptimal, true, true, seed)},
		{Label: "BRs w/o exp.t., algs with exp.t.", Core: rexpCfg(hull.KindNearOptimal, false, true, seed)},
		{Label: "BRs with exp.t., algs w/o exp.t.", Core: rexpCfg(hull.KindNearOptimal, true, false, seed)},
		{Label: "BRs w/o exp.t., algs w/o exp.t.", Core: rexpCfg(hull.KindNearOptimal, false, false, seed)},
	}
}

// brTypeTrees are the five bounding-rectangle types of Figures 11 and
// 12 (§5.3).  None records expiration times in internal entries (the
// outcome of §5.2); the two update-minimum variants differ in whether
// the insertion heuristics honor expiration times.
func brTypeTrees(seed int64) []TreeConfig {
	return []TreeConfig{
		{Label: "Static", Core: rexpCfg(hull.KindStatic, false, true, seed)},
		{Label: "Update-minimum, algs w/o exp.t.", Core: rexpCfg(hull.KindUpdateMinimum, false, false, seed)},
		{Label: "Update-minimum, algs with exp.t.", Core: rexpCfg(hull.KindUpdateMinimum, false, true, seed)},
		{Label: "Near-optimal", Core: rexpCfg(hull.KindNearOptimal, false, true, seed)},
		{Label: "Optimal", Core: rexpCfg(hull.KindOptimal, false, true, seed)},
	}
}

// comparisonTrees are the four indexes of Figures 13-16: the
// R^exp-tree, the TPR-tree, and both with B-tree scheduled deletions
// (§5.4).
func comparisonTrees(seed int64) []TreeConfig {
	return []TreeConfig{
		{Label: "Rexp-tree", Core: rexpCfg(hull.KindNearOptimal, false, true, seed)},
		{Label: "TPR-tree", Core: tprCfg(seed)},
		{Label: "Rexp-tree with scheduled deletions", Core: rexpCfg(hull.KindNearOptimal, false, true, seed), Scheduled: true},
		{Label: "TPR-tree with scheduled deletions", Core: tprCfg(seed), Scheduled: true},
	}
}

// expTWorkload builds the network workload with a fixed expiration
// period.  The querying window follows the paper: W = UI/2, except 15
// for ExpT = 30 (§5.1).
func expTWorkload(expT float64, seed int64, uniform bool) workload.Params {
	p := workload.Params{Seed: seed, ExpT: expT, Uniform: uniform}
	if expT == 30 {
		p.QueryW = 15
	}
	return p
}

func specs(seed int64) map[string]spec {
	expTs := []float64{30, 60, 120, 180, 240}
	expDs := []float64{45, 90, 180, 270, 360}
	newObs := []float64{0, 0.5, 1, 1.5, 2}

	newObWL := func(x float64) workload.Params {
		return workload.Params{Seed: seed, NewOb: x}
	}
	expDWL := func(x float64) workload.Params {
		return workload.Params{Seed: seed, ExpD: x}
	}

	return map[string]spec{
		"9": {
			id: "9", title: "Search performance for varying ExpT (near-optimal TPBR flavors)",
			xlabel: "Expiration Period, ExpT", metric: "search", xs: expTs,
			trees: flavorTrees(seed),
			wl:    func(x float64) workload.Params { return expTWorkload(x, seed, false) },
		},
		"10": {
			id: "10", title: "Search performance for varying UI (near-optimal TPBR flavors)",
			xlabel: "Update Interval, UI", metric: "search", xs: []float64{30, 60, 90, 120},
			trees: flavorTrees(seed),
			wl: func(x float64) workload.Params {
				return workload.Params{Seed: seed, UI: x, ExpT: 2 * x}
			},
		},
		"11": {
			id: "11", title: "Search performance for uniform data and varying ExpT (BR types)",
			xlabel: "Expiration Period, ExpT", metric: "search", xs: expTs,
			trees: brTypeTrees(seed),
			wl:    func(x float64) workload.Params { return expTWorkload(x, seed, true) },
		},
		"12": {
			id: "12", title: "Search performance for varying ExpD (BR types)",
			xlabel: "Expiration Distance, ExpD", metric: "search", xs: expDs,
			trees: brTypeTrees(seed),
			wl:    expDWL,
		},
		"13": {
			id: "13", title: "Search performance for varying ExpD (index comparison)",
			xlabel: "Expiration Distance, ExpD", metric: "search", xs: expDs,
			trees: comparisonTrees(seed),
			wl:    expDWL,
		},
		"14": {
			id: "14", title: "Search performance for varying fraction of new objects, NewOb",
			xlabel: "Fraction of New Objects, NewOb", metric: "search", xs: newObs,
			trees: comparisonTrees(seed),
			wl:    newObWL,
		},
		"15": {
			id: "15", title: "Index size for varying fraction of new objects, NewOb",
			xlabel: "Fraction of New Objects, NewOb", metric: "size", xs: newObs,
			trees: comparisonTrees(seed),
			wl:    newObWL,
		},
		"16": {
			id: "16", title: "Update performance for varying fraction of new objects, NewOb",
			xlabel: "Fraction of New Objects, NewOb", metric: "update", xs: newObs,
			trees: comparisonTrees(seed),
			wl:    newObWL,
		},
	}
}

// FigureIDs lists the reproducible figures in order.
func FigureIDs() []string {
	ids := make([]string, 0, 8)
	for id := range specs(0) {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return len(ids[i]) < len(ids[j]) || (len(ids[i]) == len(ids[j]) && ids[i] < ids[j])
	})
	return ids
}

// RunFigure reproduces one figure at the given fraction of the paper's
// workload scale.  Its (series, x) cells share nothing, so they run on
// up to GOMAXPROCS goroutines; results, progress lines and the first
// error still come in the sequential order, series by series.
// progress, if non-nil, is invoked with a log line after every
// completed run.
func RunFigure(id string, scale float64, seed int64, progress func(string)) (Figure, error) {
	sp, ok := specs(seed)[id]
	if !ok {
		return Figure{}, fmt.Errorf("experiments: unknown figure %q (have %v)", id, FigureIDs())
	}
	type cell struct {
		m    Metrics
		err  error
		done chan struct{}
	}
	nx := len(sp.xs)
	cells := make([]cell, len(sp.trees)*nx)
	for i := range cells {
		cells[i].done = make(chan struct{})
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true) // after an error, start no further cell
		wg.Wait()
	}()
	for range min(runtime.GOMAXPROCS(0), len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells) && !stop.Load(); i = int(next.Add(1) - 1) {
				c := &cells[i]
				c.m, c.err = Run(sp.trees[i/nx], sp.wl(sp.xs[i%nx]).Scale(scale))
				close(c.done)
			}
		}()
	}

	fig := Figure{ID: sp.id, Title: sp.title, XLabel: sp.xlabel, Metric: sp.metric, Xs: sp.xs}
	for si, tc := range sp.trees {
		s := Series{Label: tc.Label}
		for xi, x := range sp.xs {
			c := &cells[si*nx+xi]
			<-c.done
			if c.err != nil {
				return fig, fmt.Errorf("figure %s, %s, x=%v: %w", id, tc.Label, x, c.err)
			}
			m := c.m
			m.X = x
			s.Points = append(s.Points, m)
			if progress != nil {
				progress(fmt.Sprintf("fig %s | %-38s | x=%-5v search=%6.2f update=%5.2f queue=%5.2f pages=%7.0f expired=%.3f",
					id, tc.Label, x, m.SearchIO, m.UpdateIO, m.QueueIO, m.IndexPages, m.ExpiredFrac))
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
