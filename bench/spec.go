package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// The four workloads.  Names are fixed: later issues cite them.
const (
	wlServeMem      = "serve_mem"
	wlServeDurable  = "serve_durable"
	wlServeFollower = "serve_follower"
	wlEnginePaper   = "engine_paper"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list.  Bound is absent on per-layer metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the single source of metric names,
// units, directions and bounds: the bench emits exactly the metrics it
// lists and -compare judges with its bounds.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot locates the checkout root — the directory holding
// BENCHMARK.json — from the working directory (the root itself when
// run through the command, bench/ under `go test`).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// metric is one measured value.  Samples is the number of observations
// behind a timing (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// host is the envelope every result carries (ROADMAP aim 1: a number
// counts only with its host).
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commitOf(root),
	}
}

// commitOf asks git for the checked-out commit; a checkout that is not
// a repository — the driver's — reports "unknown".
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// result is one run of one workload, traced or not: the line appended
// to bench/out/runs.jsonl and the input of -compare.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

func (r *result) put(name, unit string, v float64, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// add folds the outcome of a correctness pass into the result.
func (r *result) add(ck *checked) {
	r.Attempted += ck.attempted
	r.Failed += ck.failed
	r.Notes = append(r.Notes, ck.notes...)
}

// driverLine is the contract's last line of standard output: exactly
// these keys, each metric exactly a value and a unit.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
