// Command bench is the repository's one benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and — in a separate
// traced pass — a ladder of per-layer metrics from the client socket
// down to the page.  BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory is the glossary.
//
//	bash bench/run.sh                          every workload, untraced then traced
//	bash bench/run.sh --workload serve_mem --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --compare a.jsonl b.jsonl
//
// --workload, --seed, --seconds and --trace are the driver's interface
// (ISSUE.md, "Amendments"): it passes the window it read from
// BENCHMARK.json's run_seconds and asks for one workload and one pass
// at a time.  Every run appends its result, with the host envelope, to
// bench/out/runs.jsonl; the last line of standard output is the
// driver's JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds (default: BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass (default: both)")
		compare  = flag.Bool("compare", false, "compare two runs.jsonl files given as arguments, run against run of the same seed and window; exit 1 on a metric that got worse")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *compare, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two runs.jsonl files")
		}
		return compareFiles(sp, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Everything the run writes stays inside the checkout: build
	// outputs and indexes under .bench_build, results under bench/out.
	tmp, err := os.MkdirTemp(mkdir(filepath.Join(root, ".bench_build", "tmp")), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin, err := buildRexpd(ctx, root, mkdir(filepath.Join(root, ".bench_build", "bin")))
	if err != nil {
		return err
	}
	e := &env{root: root, rexpd: bin, tmp: tmp}

	var names []string
	for _, w := range sp.Workloads {
		if workload == "" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	passes := []bool{false, true}
	if trace >= 0 {
		passes = []bool{trace == 1}
	}

	window := time.Duration(seconds * float64(time.Second))
	ok := true
	var last *result
	for _, traced := range passes {
		for _, name := range names {
			res, err := runWorkload(ctx, e, defaultSizes, name, seed, window, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.Host = hostInfo(root)
			res.Correct = res.Failed == 0
			ok = ok && res.Correct
			if err := emit(e, res); err != nil {
				return err
			}
			last = res
		}
	}
	// The driver's line: the last run's result (it asks for one
	// workload and one pass at a time).
	if err := printDriverLine(sp, last); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("incorrect results or failed requests; see the notes above")
	}
	return nil
}

func mkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

// runWorkload dispatches one run.
func runWorkload(ctx context.Context, e *env, sz sizes, name string, seed int64, window time.Duration, trace bool) (*result, error) {
	if s, ok := servedWorkloads[name]; ok {
		return s.run(ctx, e, sz, seed, window, trace)
	}
	if name == wlEnginePaper {
		return runEngine(e, sz, seed, window, trace)
	}
	return nil, fmt.Errorf("BENCHMARK.json names a workload the bench does not implement")
}

// wanted lists the metrics a pass must emit: every end-to-end metric
// untraced, every per-layer metric traced.
func wanted(sp *spec, trace bool) []metricSpec {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// emit prints the run for people — every metric by name with its unit
// and, for timings, its sample count — and appends it to
// bench/out/runs.jsonl.
func emit(e *env, res *result) error {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Printf("== %s  seed %d  window %.0fs  %s  (%d CPU, GOMAXPROCS %d, %s, commit %.12s)\n",
		res.Workload, res.Seed, res.Seconds, pass, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.Go, res.Host.Commit)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf("  n=%d", m.Samples)
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-34s %14.6g %-6s  (%d failed of %d attempted)\n", "failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "share", res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}

	out := mkdir(filepath.Join(e.root, "bench", "out"))
	f, err := os.OpenFile(filepath.Join(out, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := appendJSON(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendJSON writes v as one JSON line.
func appendJSON(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

// printDriverLine prints the contract's last line: exactly the metrics
// BENCHMARK.json lists for the pass.  The result omits the metrics of a
// layer the workload bypasses, but the contract wants every per-layer
// name with a number on every workload, so here — and only here — they
// read 0 (the layer did no work).  A missing or non-finite end-to-end
// metric is a bug in the bench and fails the run.
func printDriverLine(sp *spec, res *result) error {
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, ms := range wanted(sp, res.Trace) {
		m, ok := res.Metrics[ms.Name]
		if !ok && !res.Trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", res.Workload, ms.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is not finite", res.Workload, ms.Name)
		}
		line.Metrics[ms.Name] = driverMetric{Value: m.Value, Unit: ms.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
