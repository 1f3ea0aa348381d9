// Command rexpgen generates a workload (the §5.1 network or uniform
// scenario) and writes it to stdout or a file in the text operation
// format of internal/workload (one line per insert/delete/query).
// The output can be inspected directly or replayed with
// "rexpstat -replay".
//
// With -ndjson it writes the stream's inserts and deletes as rexpd
// /v1/batch lines instead, with no header and no queries, so one POST
// replays the workload against a running daemon:
//
//	rexpgen -scale 0.002 -ndjson -o workload.ndjson
//	curl --data-binary @workload.ndjson localhost:7364/v1/batch
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rexptree/internal/geom"
	"rexptree/internal/server"
	"rexptree/internal/workload"
)

// batchRecord converts an insert or delete to its /v1/batch line: the
// position at the report time and Expires 0 for "never".  A query has
// no line.
func batchRecord(op workload.Op) (server.Record, bool) {
	switch op.Kind {
	case workload.OpInsert:
		at := op.Point.At(op.Time)
		expires := op.Point.TExp
		if !geom.IsFinite(expires) {
			expires = 0 // the wire encoding of "never expires"
		}
		return server.Record{
			ID:      op.OID,
			Pos:     []float64{at[0], at[1]},
			Vel:     []float64{op.Point.Vel[0], op.Point.Vel[1]},
			Time:    op.Time,
			Expires: expires,
		}, true
	case workload.OpDelete:
		return server.Record{Op: "delete", ID: op.OID, Time: op.Time}, true
	}
	return server.Record{}, false
}

func main() {
	var (
		out     = flag.String("o", "", "output file (default stdout)")
		seed    = flag.Int64("seed", 1, "workload seed")
		scale   = flag.Float64("scale", 0.01, "fraction of the paper's workload scale")
		ui      = flag.Float64("ui", 60, "average update interval")
		expT    = flag.Float64("expt", 0, "expiration period (0 = default 2*UI)")
		expD    = flag.Float64("expd", 0, "expiration distance (overrides expt)")
		newOb   = flag.Float64("newob", 0, "fraction of objects replaced")
		uniform = flag.Bool("uniform", false, "uniform scenario instead of the network")
		ndjson  = flag.Bool("ndjson", false, "write inserts and deletes as rexpd /v1/batch lines (no header, no queries)")
	)
	flag.Parse()

	p := workload.Params{
		Seed: *seed, UI: *ui, ExpT: *expT, ExpD: *expD,
		NewOb: *newOb, Uniform: *uniform,
	}.Scale(*scale)
	gen, err := workload.NewGenerator(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rexpgen: %v\n", err)
		os.Exit(1)
	}

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rexpgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	write := workload.WriteOp
	if *ndjson {
		enc := json.NewEncoder(w)
		write = func(_ io.Writer, op workload.Op) error {
			if rec, ok := batchRecord(op); ok {
				return enc.Encode(rec)
			}
			return nil
		}
	} else {
		fmt.Fprintf(w, "# rexptree workload: objects=%d insertions=%d ui=%g expt=%g expd=%g newob=%g uniform=%v seed=%d\n",
			p.Objects, p.Insertions, p.UI, p.ExpT, p.ExpD, p.NewOb, p.Uniform, p.Seed)
	}
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		if err := write(w, op); err != nil {
			fmt.Fprintf(os.Stderr, "rexpgen: %v\n", err)
			os.Exit(1)
		}
	}
}
