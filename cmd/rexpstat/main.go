// Command rexpstat builds an index from a generated workload and
// prints structural statistics: height, nodes per level, average
// fan-out, live/expired leaf-entry counts, index size, buffer-pool
// traffic, and the self-tuned update-interval estimate.  It is a quick
// way to inspect how a configuration organizes a workload.
//
// With -json the full metrics snapshot is printed as JSON instead of
// the human-readable report.  Live /metrics, pprof profiles and
// EXPLAIN traces are rexpd's: serve the workload there (rexpgen
// -ndjson posts it) and query with ?explain=1.
//
// Usage:
//
//	rexpstat [-mode rexp|tpr] [-br near-optimal] [-scale 0.01] [-json] [-check] [-replay workload.txt] ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

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
		mode    = flag.String("mode", "rexp", "rexp (expiration-aware) or tpr (baseline)")
		br      = flag.String("br", "near-optimal", "bounding rectangles: conservative|static|update-minimum|near-optimal|optimal")
		scale   = flag.Float64("scale", 0.01, "fraction of the paper's workload scale")
		seed    = flag.Int64("seed", 1, "seed")
		expT    = flag.Float64("expt", 0, "expiration period (0 = 2*UI)")
		expD    = flag.Float64("expd", 0, "expiration distance")
		newOb   = flag.Float64("newob", 0, "fraction of replaced objects")
		uniform = flag.Bool("uniform", false, "uniform scenario")
		storeBR = flag.Bool("brexp", false, "record expiration times in internal entries")
		replay  = flag.String("replay", "", "replay a workload file written by rexpgen instead of generating one")
		check   = flag.Bool("check", false, "validate the tree's structural invariants after the workload")
		asJSON  = flag.Bool("json", false, "print the metrics snapshot as JSON instead of the report")
	)
	flag.Parse()

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
}
