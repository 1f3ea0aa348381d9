package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// sameSeedBounds are the regression bounds -compare judges with.  It
// compares each run with the run of the same workload, seed and window
// in the other file, so the differences between seeds — which the
// bounds in BENCHMARK.json have to cover, because the driver compares
// medians over different seeds — cancel, and the counts, which on
// engine_paper repeat exactly for a seed, can be held to 2 %.
var sameSeedBounds = map[string]float64{
	"setup_s":         0.20,
	"reports_per_s":   0.10,
	"write_p50_ms":    0.10,
	"write_p95_ms":    0.20,
	"queries_per_s":   0.10,
	"query_p50_ms":    0.10,
	"query_p95_ms":    0.20,
	"nodes_per_query": 0.02,
	"io_per_report":   0.02,
	"index_pages":     0.02,
}

// readRuns loads the untraced runs of a runs.jsonl file: one result
// per line.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	return runs, sc.Err()
}

// runKey identifies the inputs of a run: two runs with one key were
// given the same work.
type runKey struct {
	workload string
	seed     int64
	seconds  float64
}

func byKey(runs []result) map[runKey][]result {
	m := map[runKey][]result{}
	for _, r := range runs {
		k := runKey{r.Workload, r.Seed, r.Seconds}
		m[k] = append(m[k], r)
	}
	return m
}

// valueOf is the metric's median over the runs of one key (a file may
// hold a key more than once).
func valueOf(runs []result, name string) (float64, bool) {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return median(vals), len(vals) > 0
}

// worseBy is by how much of a's value b is worse.  A metric that was 0
// and no longer is has no share to give: it is infinitely worse when
// lower is better, infinitely better otherwise.
func worseBy(a, b float64, better string) float64 {
	by := (b - a) / math.Abs(a)
	if a == 0 {
		by = math.Inf(1)
		if b == 0 {
			by = 0
		}
	}
	if better == "higher" {
		by = -by
	}
	return by
}

// compareFiles pairs the runs of the two files by workload, seed and
// window — and refuses files whose runs do not pair up, because a
// different seed or window is different work — and prints one row per
// workload and end-to-end metric: the median of each file's values,
// the bound, the median over the pairs of by how much b is worse than
// a, the quartile spread of that over the pairs, and a verdict.  A
// metric is "unresolved" when the spread exceeds the bound (the runs
// cannot tell), "worse" when b is worse by more than the bound, else
// "within".  Any increase of failed_share is worse.  It fails when a
// row is worse.
func compareFiles(sp *spec, pathA, pathB string) error {
	ra, err := readRuns(pathA)
	if err != nil {
		return err
	}
	rb, err := readRuns(pathB)
	if err != nil {
		return err
	}
	a, b := byKey(ra), byKey(rb)
	for _, side := range []struct {
		has, lacks       map[runKey][]result
		hasPath, lacksAt string
	}{{a, b, pathA, pathB}, {b, a, pathB, pathA}} {
		for k := range side.has {
			if _, ok := side.lacks[k]; !ok {
				return fmt.Errorf("%s has no run of %s with seed %d and a %gs window to pair with the one in %s: compare runs of the same seeds and window",
					side.lacksAt, k.workload, k.seed, k.seconds, side.hasPath)
			}
		}
	}
	keys := make([]runKey, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].seed < keys[j].seed })

	fmt.Printf("%-15s %-16s %5s %12s %12s %7s %8s %8s  %s\n", "workload", "metric", "pairs", "a", "b", "bound", "worse_by", "spread", "verdict")
	worse := 0
	for _, w := range sp.Workloads {
		var fa, na, fb, nb int64
		for _, k := range keys {
			if k.workload != w.Name {
				continue
			}
			for _, r := range a[k] {
				fa, na = fa+r.Failed, na+r.Attempted
			}
			for _, r := range b[k] {
				fb, nb = fb+r.Failed, nb+r.Attempted
			}
		}
		if na == 0 || nb == 0 {
			continue
		}
		for _, ms := range sp.EndToEnd {
			var va, vb, by []float64
			for _, k := range keys {
				x, okA := valueOf(a[k], ms.Name)
				y, okB := valueOf(b[k], ms.Name)
				if k.workload == w.Name && okA && okB {
					va, vb, by = append(va, x), append(vb, y), append(by, worseBy(x, y, ms.Better))
				}
			}
			if len(by) == 0 {
				continue
			}
			bound, ok := sameSeedBounds[ms.Name]
			if !ok {
				bound = ms.Bound
			}
			mid, spread := median(by), quartileRange(by)
			verdict := "within"
			switch {
			case spread > bound:
				verdict = "unresolved"
			case mid > bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-16s %5d %12.6g %12.6g %6.0f%% %+7.1f%% %7.1f%%  %s\n",
				w.Name, ms.Name, len(by), median(va), median(vb), bound*100, mid*100, spread*100, verdict)
		}
		sa, sb := ratio(float64(fa), float64(na)), ratio(float64(fb), float64(nb))
		verdict := "within"
		if sb > sa {
			verdict = "worse"
			worse++
		}
		fmt.Printf("%-15s %-16s %5s %12.6g %12.6g %7s %8s %8s  %s\n", w.Name, "failed_share", "", sa, sb, "any", "", "", verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
