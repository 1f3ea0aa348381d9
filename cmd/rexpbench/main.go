// Command rexpbench regenerates the performance figures of the paper
// (Figures 9-16): it replays the §5.1 workloads against the tree
// configurations each figure compares and prints the measured series
// as a table.
//
// Usage:
//
//	rexpbench [-figure 13] [-scale 0.1] [-seed 1] [-quiet]
//	rexpbench -remote 127.0.0.1:9380 -replay workload.txt
//
// With no -figure it runs every figure.  -scale is the fraction of the
// paper's workload size (100,000 objects, 1,000,000 insertions);
// -scale 1 reproduces the full setup.
//
// With -remote and -replay it instead streams a rexpgen workload file
// to a running rexpd and prints one summary line; see remote.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

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

		remote = flag.String("remote", "", "replay -replay's workload against a running rexpd at this address (host:port)")
		replay = flag.String("replay", "", "rexpgen workload file to stream to the -remote daemon")
	)
	flag.Parse()

	if *remote != "" || *replay != "" {
		if *remote == "" || *replay == "" {
			fmt.Fprintln(os.Stderr, "rexpbench: -remote and -replay go together")
			os.Exit(2)
		}
		if err := replayWorkload(*remote, *replay); err != nil {
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
