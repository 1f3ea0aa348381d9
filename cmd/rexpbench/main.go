// Command rexpbench regenerates the performance figures of the paper
// (Figures 9-16): it replays the §5.1 workloads against the tree
// configurations each figure compares and prints the measured series
// as a table.
//
// Usage:
//
//	rexpbench [-figure 13] [-scale 0.1] [-seed 1] [-quiet] [-csv results.csv]
//
// With no -figure it runs every figure.  -scale is the fraction of the
// paper's workload size (100,000 objects, 1,000,000 insertions);
// -scale 1 reproduces the full setup.  A figure's cells run on up to
// GOMAXPROCS goroutines; tables and progress lines come out in the
// same order either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rexptree/internal/experiments"
)

func main() {
	var (
		figure = flag.String("figure", "", "figure to reproduce (9..16); empty = all")
		scale  = flag.Float64("scale", 0.1, "fraction of the paper's workload scale")
		seed   = flag.Int64("seed", 1, "workload and tree seed")
		quiet  = flag.Bool("quiet", false, "suppress per-run progress lines")
		csv    = flag.String("csv", "", "also append raw results as CSV to this file")
	)
	flag.Parse()

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
}
