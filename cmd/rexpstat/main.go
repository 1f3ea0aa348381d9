// Command rexpstat builds an index from a generated workload and
// prints structural statistics: height, nodes per level, average
// fan-out, live/expired leaf-entry counts, index size, buffer-pool
// traffic, and the self-tuned update-interval estimate.  It is a quick
// way to inspect how a configuration organizes a workload.
//
// With -json the full metrics snapshot is printed as JSON instead of
// the human-readable report; with -serve the process stays up after
// the workload and exposes the metrics in Prometheus text format at
// /metrics on the given address, Go runtime metrics appended to each
// scrape (disable with -noruntime) and net/http/pprof profiles under
// /debug/pprof/ (disable with -nopprof).
//
// With -explain the workload is loaded into a speed-partitioned
// 4-shard ShardedTree with the flight recorder on, representative
// window, timeslice and nearest queries are traced, and their EXPLAIN
// output is printed (-json: the structured traces); -serve then also
// exposes the recorder at /debug/rexp/traces.
//
// Usage:
//
//	rexpstat [-mode rexp|tpr] [-br near-optimal] [-scale 0.01] [-json] [-explain] [-serve :9090] ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"rexptree"
	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
	"rexptree/internal/workload"
)

// queryOp classifies a workload query by shape for the per-op latency
// histograms: an instant is a timeslice, a moving region a Type 3
// query, anything else a window.
func queryOp(q geom.Query) obs.Op {
	if q.T1 == q.T2 {
		return obs.OpTimeslice
	}
	for i := range q.Region.VLo {
		if q.Region.VLo[i] != 0 || q.Region.VHi[i] != 0 {
			return obs.OpMoving
		}
	}
	return obs.OpWindow
}

func brKind(name string) (hull.Kind, error) {
	for k := hull.KindConservative; k <= hull.KindOptimal; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown bounding-rectangle kind %q", name)
}

func main() {
	var (
		mode      = flag.String("mode", "rexp", "rexp (expiration-aware) or tpr (baseline)")
		br        = flag.String("br", "near-optimal", "bounding rectangles: conservative|static|update-minimum|near-optimal|optimal")
		scale     = flag.Float64("scale", 0.01, "fraction of the paper's workload scale")
		seed      = flag.Int64("seed", 1, "seed")
		expT      = flag.Float64("expt", 0, "expiration period (0 = 2*UI)")
		expD      = flag.Float64("expd", 0, "expiration distance")
		newOb     = flag.Float64("newob", 0, "fraction of replaced objects")
		uniform   = flag.Bool("uniform", false, "uniform scenario")
		storeBR   = flag.Bool("brexp", false, "record expiration times in internal entries")
		replay    = flag.String("replay", "", "replay a workload file written by rexpgen instead of generating one")
		check     = flag.Bool("check", false, "validate the tree's structural invariants after the workload")
		asJSON    = flag.Bool("json", false, "print the metrics snapshot as JSON instead of the report")
		serve     = flag.String("serve", "", "serve Prometheus metrics at /metrics on this address and block (e.g. :9090)")
		explain   = flag.Bool("explain", false, "trace representative queries on a 4-shard speed-partitioned tree and print their EXPLAIN output")
		noPprof   = flag.Bool("nopprof", false, "serve mode: do not mount net/http/pprof under /debug/pprof/")
		noRuntime = flag.Bool("noruntime", false, "serve mode: do not append Go runtime metrics to /metrics scrapes")
	)
	flag.Parse()

	if *explain {
		if err := runExplain(*scale, *seed, *expT, *expD, *newOb, *uniform, *asJSON, *serve, *noPprof, *noRuntime); err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
		return
	}

	kind, err := brKind(*br)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpstat:", err)
		os.Exit(1)
	}
	met := obs.New()
	cfg := core.Config{Dims: 2, BRKind: kind, Seed: *seed, Metrics: met}
	if *mode == "rexp" {
		cfg.ExpireAware = true
		cfg.AlgsUseExp = true
		cfg.StoreBRExp = *storeBR
	} else if *mode != "tpr" {
		fmt.Fprintf(os.Stderr, "rexpstat: unknown mode %q\n", *mode)
		os.Exit(1)
	}

	tree, err := core.New(cfg, storage.NewMemStore())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpstat:", err)
		os.Exit(1)
	}
	apply := func(op workload.Op) error {
		start := time.Now()
		var kind obs.Op
		var err error
		switch op.Kind {
		case workload.OpInsert:
			kind = obs.OpUpdate
			err = tree.Insert(op.OID, op.Point, op.Time)
		case workload.OpDelete:
			kind = obs.OpDelete
			_, err = tree.DeleteBySearch(op.OID, op.Point, op.Time)
		default:
			kind = queryOp(op.Query)
			_, err = tree.Search(op.Query, op.Time)
		}
		met.ObserveOp(kind, time.Since(start), err)
		return err
	}

	ops := 0
	var source string
	if *replay != "" {
		source = *replay
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
		defer f.Close()
		sc := workload.NewScanner(f)
		for sc.Scan() {
			if err := apply(sc.Op()); err != nil {
				fmt.Fprintf(os.Stderr, "rexpstat: op %d: %v\n", ops, err)
				os.Exit(1)
			}
			ops++
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
	} else {
		p := workload.Params{Seed: *seed, ExpT: *expT, ExpD: *expD, NewOb: *newOb, Uniform: *uniform}.Scale(*scale)
		source = fmt.Sprintf("generated: objects=%d insertions=%d seed=%d", p.Objects, p.Insertions, *seed)
		gen, err := workload.NewGenerator(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			if err := apply(op); err != nil {
				fmt.Fprintf(os.Stderr, "rexpstat: op %d: %v\n", ops, err)
				os.Exit(1)
			}
			ops++
		}
	}

	tree.SyncGauges()
	if *asJSON {
		out, err := json.MarshalIndent(met.Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
	} else {
		fmt.Printf("configuration : mode=%s br=%s brexp=%v\n", *mode, kind, cfg.StoreBRExp)
		fmt.Printf("workload      : %s, %d ops\n", source, ops)
		fmt.Printf("height        : %d\n", tree.Height())
		counts, err := tree.NodeCount()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
		for lvl := len(counts) - 1; lvl >= 0; lvl-- {
			fmt.Printf("level %-2d      : %d nodes\n", lvl, counts[lvl])
		}
		live, expired, err := tree.EntryStats()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
		total := live + expired
		fmt.Printf("leaf entries  : %d live, %d expired (%.2f%% expired)\n",
			live, expired, 100*float64(expired)/float64(max(total, 1)))
		if counts[0] > 0 {
			fmt.Printf("leaf fill     : %.1f avg entries (capacity %d)\n",
				float64(total)/float64(counts[0]), tree.LeafCapacity())
		}
		fmt.Printf("index size    : %d pages (%.1f KiB)\n", tree.Size(), float64(tree.Size())*storage.PageSize/1024)
		io := tree.IOStats()
		fmt.Printf("I/O           : %d reads, %d writes (%d dirty writebacks), %d buffer hits, %d evictions\n",
			io.Reads, io.Writes, io.DirtyWritebacks, io.Hits, io.Evictions)
		fmt.Printf("structure ops : %d splits, %d forced reinserts, %d condenses, %d purged, %d orphans reinserted\n",
			met.Splits.Load(), met.ForcedReinserts.Load(), met.Condenses.Load(),
			met.ExpiredPurged.Load(), met.OrphansReinserted.Load())
		fmt.Printf("UI estimate   : %.1f (assumed W %.1f)\n", tree.UI(), tree.W())
	}
	if *check {
		if err := tree.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "rexpstat: invariants FAILED: %v\n", err)
			os.Exit(1)
		}
		if !*asJSON {
			fmt.Println("invariants    : ok")
		}
	}

	if *serve != "" {
		mux := http.NewServeMux()
		var metricsH http.Handler = obs.Handler(func() obs.Snapshot {
			tree.SyncGauges()
			return met.Snapshot()
		})
		if !*noRuntime {
			metricsH = obs.WithRuntimeMetrics(metricsH, obs.DefaultPrefix)
		}
		mux.Handle("/metrics", metricsH)
		if !*noPprof {
			obs.RegisterPprof(mux)
		}
		fmt.Fprintf(os.Stderr, "rexpstat: serving Prometheus metrics at http://%s/metrics\n", *serve)
		if err := http.ListenAndServe(*serve, mux); err != nil {
			fmt.Fprintln(os.Stderr, "rexpstat:", err)
			os.Exit(1)
		}
	}
}

// runExplain loads the generated workload into an in-memory 4-shard
// speed-partitioned ShardedTree with the flight recorder enabled,
// traces one window, one timeslice and one nearest query, and prints
// their EXPLAIN renderings.  With an address, it then serves /metrics,
// /debug/rexp/traces and (unless disabled) /debug/pprof/.
func runExplain(scale float64, seed int64, expT, expD, newOb float64, uniform, asJSON bool, serve string, noPprof, noRuntime bool) error {
	p := workload.Params{Seed: seed, ExpT: expT, ExpD: expD, NewOb: newOb, Uniform: uniform}.Scale(scale)
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return err
	}
	opts := rexptree.DefaultOptions()
	opts.Seed = seed
	opts.FlightRecorder = 256
	st, err := rexptree.OpenSharded(rexptree.ShardedOptions{
		Options:   opts,
		Shards:    4,
		Partition: rexptree.PartitionSpeed,
	})
	if err != nil {
		return err
	}
	defer st.Close()

	// Replay the insert/delete stream (queries are re-issued traced
	// below); the workload clock is monotone, so the last op's time is
	// the tree's "now".
	now := 0.0
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		now = op.Time
		switch op.Kind {
		case workload.OpInsert:
			at := op.Point.At(op.Time)
			pt := rexptree.Point{
				Pos:     rexptree.Vec(at),
				Vel:     rexptree.Vec(op.Point.Vel),
				Time:    op.Time,
				Expires: op.Point.TExp,
			}
			if err := st.Update(op.OID, pt, op.Time); err != nil {
				return err
			}
		case workload.OpDelete:
			if _, err := st.Delete(op.OID, op.Time); err != nil {
				return err
			}
		}
	}

	// The paper's 1000x1000 world: trace a central window, a timeslice
	// a little ahead, and a k-nearest around the center.
	region := rexptree.Rect{
		Lo: rexptree.Vec{400, 400},
		Hi: rexptree.Vec{600, 600},
	}
	center := rexptree.Vec{500, 500}
	var traces []*rexptree.QueryTrace
	_, tc, err := st.TraceWindow(region, now, now+10, now)
	if err != nil {
		return err
	}
	traces = append(traces, tc)
	if _, tc, err = st.TraceTimeslice(region, now+5, now); err != nil {
		return err
	}
	traces = append(traces, tc)
	if _, tc, err = st.TraceNearest(center, now, 10, now); err != nil {
		return err
	}
	traces = append(traces, tc)

	if asJSON {
		out, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(out, '\n'))
	} else {
		for _, tc := range traces {
			fmt.Print(tc.Text())
		}
	}

	if serve != "" {
		mux := http.NewServeMux()
		var metricsH http.Handler = st.MetricsHandler()
		if !noRuntime {
			metricsH = obs.WithRuntimeMetrics(metricsH, obs.DefaultPrefix)
		}
		mux.Handle("/metrics", metricsH)
		mux.Handle("/debug/rexp/traces", st.TraceHandler())
		if !noPprof {
			obs.RegisterPprof(mux)
		}
		fmt.Fprintf(os.Stderr, "rexpstat: serving metrics at http://%s/metrics, traces at /debug/rexp/traces\n", serve)
		return http.ListenAndServe(serve, mux)
	}
	return nil
}
