// Command rexpbench regenerates the performance figures of the paper
// (Figures 9-16): it replays the §5.1 workloads against the tree
// configurations each figure compares and prints the measured series
// as a table.
//
// Usage:
//
//	rexpbench [-figure 13] [-scale 0.1] [-seed 1] [-quiet]
//	rexpbench -throughput [-shards 4] [-workers 4] [-objects 20000] [-duration 2] [-shardout BENCH_shard.json]
//	rexpbench -partitionbench [-objects 20000] [-duration 2] [-partout BENCH_partition.json]
//
// With no -figure it runs every figure.  -scale is the fraction of the
// paper's workload size (100,000 objects, 1,000,000 insertions);
// -scale 1 reproduces the full setup.
//
// With -throughput it instead runs the concurrent-throughput
// comparison (single-mutex tree vs rwmutex tree vs ShardedTree) and
// writes aggregate ops/sec to -shardout; see concurrent.go.
//
// With -partitionbench it compares the hash and speed-band shard
// partitioning policies on a spatially-correlated mixed-speed workload
// (shard visits, pruning ratio, query throughput, and a result-set
// equality check against a single tree) and writes -partout; see
// partition.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"rexptree"
	"rexptree/internal/experiments"
	"rexptree/internal/obs"
)

func main() {
	var (
		figure    = flag.String("figure", "", "figure to reproduce (9..16); empty = all")
		scale     = flag.Float64("scale", 0.1, "fraction of the paper's workload scale")
		seed      = flag.Int64("seed", 1, "workload and tree seed")
		quiet     = flag.Bool("quiet", false, "suppress per-run progress lines")
		csv       = flag.String("csv", "", "also append raw results as CSV to this file")
		asJSON    = flag.Bool("json", false, "print the aggregate metrics snapshot as JSON after all figures")
		serve     = flag.String("serve", "", "serve live Prometheus metrics at /metrics on this address while figures run (e.g. :9090)")
		noPprof   = flag.Bool("nopprof", false, "serve mode: do not mount net/http/pprof under /debug/pprof/")
		noRuntime = flag.Bool("noruntime", false, "serve mode: do not append Go runtime metrics to /metrics scrapes")

		throughput = flag.Bool("throughput", false, "run the concurrent-throughput comparison instead of figure replay")
		shards     = flag.Int("shards", 4, "number of shards for the sharded configuration (-throughput/-partitionbench modes)")
		workers    = flag.Int("workers", 4, "concurrent query workers per configuration (-throughput/-partitionbench modes)")
		objects    = flag.Int("objects", 20000, "objects loaded per configuration (-throughput/-partitionbench modes)")
		duration   = flag.Float64("duration", 2, "seconds per measurement phase (-throughput/-partitionbench modes)")
		ioLat      = flag.Duration("iolat", 100*time.Microsecond, "modeled random-access latency per page I/O, the paper's cost unit; 0 for RAM-speed stores (-throughput/-partitionbench modes)")
		shardOut   = flag.String("shardout", "BENCH_shard.json", "output file for the throughput report; - for stdout (-throughput mode)")

		partBench = flag.Bool("partitionbench", false, "run the shard-partitioning comparison (hash vs speed bands) instead of figure replay")
		partOut   = flag.String("partout", "BENCH_partition.json", "output file for the partition report; - for stdout (-partitionbench mode)")
		partition = flag.String("partition", "hash", "partition policy for the sharded configuration, hash or speed (-throughput mode)")

		liveReshard = flag.Bool("livereshard", false, "run the live-reshard cost comparison (steady state vs mid-reshard mixed load) instead of figure replay")
		reshardOut  = flag.String("reshardout", "BENCH_reshard.json", "output file for the live-reshard report; - for stdout (-livereshard mode)")

		durBench  = flag.Bool("durability", false, "run the durability-policy comparison (none vs batched vs on-commit WAL) instead of figure replay")
		durOut    = flag.String("walout", "BENCH_wal.json", "output file for the durability report; - for stdout (-durability mode)")
		batchSize = flag.Int("batch", 100, "reports per UpdateBatch in the durability bench's batched phase (-durability mode)")

		replBench = flag.Bool("replbench", false, "run the replication bench (follower catch-up, steady-state lag, leader streaming overhead) instead of figure replay")
		replOut   = flag.String("replout", "BENCH_repl.json", "output file for the replication report; - for stdout (-replbench mode)")

		remote   = flag.String("remote", "", "drive a running rexpd at this address (host:port) with mixed update/query load")
		spawn    = flag.String("spawn", "", "spawn this rexpd binary on 127.0.0.1:0, bench it, then SIGTERM it (instead of -remote)")
		replay   = flag.String("replay", "", "remote mode: replay this rexpgen workload file instead of synthetic load")
		serveOut = flag.String("serveout", "BENCH_serve.json", "output file for the serving report; - for stdout (-remote/-spawn modes)")
	)
	flag.Parse()

	if *remote != "" || *spawn != "" {
		progress := func(line string) {
			if !*quiet {
				fmt.Fprintln(os.Stderr, line)
			}
		}
		if err := runRemoteBench(*remote, *spawn, *replay, *objects, *workers, *duration, *seed, *serveOut, progress); err != nil {
			fmt.Fprintf(os.Stderr, "rexpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *throughput || *partBench || *durBench || *liveReshard || *replBench {
		progress := func(line string) {
			if !*quiet {
				fmt.Fprintln(os.Stderr, line)
			}
		}
		var err error
		if *replBench {
			err = runReplBench(*objects, *shards, *duration, *seed, *replOut, progress)
		} else if *liveReshard {
			err = runLiveReshardBench(*objects, *shards, *workers, *duration, *ioLat, *seed, *reshardOut, progress)
		} else if *durBench {
			err = runDurabilityBench(*objects, *batchSize, *duration, *seed, *durOut, progress)
		} else if *partBench {
			err = runPartitionBench(*objects, *shards, *workers, *duration, *ioLat, *seed, *partOut, progress)
		} else {
			var policy rexptree.PartitionPolicy
			policy, err = rexptree.ParsePartitionPolicy(*partition)
			if err == nil {
				err = runThroughput(*objects, *shards, *workers, *duration, *ioLat, *seed, policy, *shardOut, progress)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	met := obs.New()
	experiments.Instrument = met
	if *serve != "" {
		mux := http.NewServeMux()
		var metricsH http.Handler = obs.Handler(met.Snapshot)
		if !*noRuntime {
			metricsH = obs.WithRuntimeMetrics(metricsH, obs.DefaultPrefix)
		}
		mux.Handle("/metrics", metricsH)
		if !*noPprof {
			obs.RegisterPprof(mux)
		}
		go func() {
			fmt.Fprintf(os.Stderr, "rexpbench: serving Prometheus metrics at http://%s/metrics\n", *serve)
			if err := http.ListenAndServe(*serve, mux); err != nil {
				fmt.Fprintf(os.Stderr, "rexpbench: metrics server: %v\n", err)
			}
		}()
	}

	var csvW *os.File
	if *csv != "" {
		f, err := os.OpenFile(*csv, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexpbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		csvW = f
		st, _ := f.Stat()
		if st != nil && st.Size() == 0 {
			fmt.Fprintln(f, "figure,series,x,search_io,update_io,queue_io,index_pages,expired_frac,queries,updates,scale,seed")
		}
	}

	ids := experiments.FigureIDs()
	if *figure != "" {
		ids = []string{*figure}
	}
	progress := func(line string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := experiments.RunFigure(id, *scale, *seed, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(fig.Render())
		fmt.Printf("(scale %g, seed %d, %s)\n\n", *scale, *seed, time.Since(start).Round(time.Second))
		if csvW != nil {
			for _, s := range fig.Series {
				for _, m := range s.Points {
					fmt.Fprintf(csvW, "%s,%q,%g,%.4f,%.4f,%.4f,%.2f,%.5f,%d,%d,%g,%d\n",
						fig.ID, s.Label, m.X, m.SearchIO, m.UpdateIO, m.QueueIO,
						m.IndexPages, m.ExpiredFrac, m.Queries, m.Updates, *scale, *seed)
				}
			}
		}
	}

	if *asJSON {
		out, err := json.MarshalIndent(met.Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexpbench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
	}
}
