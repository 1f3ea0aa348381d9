package rexptree

import (
	"fmt"
	"time"

	"rexptree/internal/geom"
	"rexptree/internal/obs"
)

// QueryKind names one of the index's four queries.
type QueryKind uint8

// The query kinds.  The three region queries are one trapezoid query
// (paper §2); nearest differs only in its kernel.
const (
	QueryTimeslice QueryKind = iota // Type 1: the objects inside R at At
	QueryWindow                     // Type 2: the objects that cross R at some time in [T1, T2]
	QueryMoving                     // Type 3: the objects that cross the trapezoid from R at T1 to R2 at T2
	QueryNearest                    // the K objects closest to Pos at At, nearest first
)

// kindOps maps each query kind to its operation in the metrics.
var kindOps = [...]obs.Op{obs.OpTimeslice, obs.OpWindow, obs.OpMoving, obs.OpNearest}

// Query is one query of either tree type: its kind and the parameters
// that kind reads.  Tree.Query and ShardedTree.Query run it;
// Timeslice, Window, Moving and Nearest build one and run it.
type Query struct {
	Kind QueryKind
	// R is the query region: Timeslice's and Window's, and Moving's at
	// T1.  R2 is Moving's region at T2.
	R, R2 Rect
	// T1 and T2 bound Window's and Moving's interval; At is
	// Timeslice's and Nearest's query time.
	T1, T2, At float64
	// Pos and K are Nearest's: the K objects closest to Pos.
	Pos Vec
	K   int
	// Explain returns the query's execution trace (EXPLAIN): the same
	// traversal, results, metrics and flight-recorder entry as without
	// it, with the trace handed back as well.
	Explain bool
}

// check is the query-time validation shared by both tree types, so
// both refuse an invalid query with the identical error, before any
// shard is visited.
func (q Query) check(now float64) error {
	switch q.Kind {
	case QueryTimeslice, QueryNearest:
		if q.At < now {
			return fmt.Errorf("rexptree: query time %v precedes current time %v", q.At, now)
		}
	case QueryWindow:
		if q.T1 > q.T2 || q.T1 < now {
			return fmt.Errorf("rexptree: invalid query window [%v, %v] at time %v", q.T1, q.T2, now)
		}
	case QueryMoving:
		if q.T1 >= q.T2 || q.T1 < now {
			return fmt.Errorf("rexptree: invalid moving query interval [%v, %v] at time %v", q.T1, q.T2, now)
		}
	}
	return nil
}

// region compiles a region query to the engine's trapezoid.
func (q Query) region(dims int) geom.Query {
	switch q.Kind {
	case QueryTimeslice:
		return geom.Timeslice(toRect(q.R), q.At)
	case QueryWindow:
		return geom.Window(toRect(q.R), q.T1, q.T2)
	default:
		return geom.Moving(toRect(q.R), toRect(q.R2), q.T1, q.T2, dims)
	}
}

// runQuery is the envelope of every query of both tree types.  It
// refuses an invalid query, runs the traversal — under an execution
// trace when q.Explain asks for one or a flight recorder retains every
// operation's; tc is nil otherwise, and every *QueryTrace method is a
// no-op on nil — and observes the operation in m's latency histogram
// and in the flight recorder.  The trace is returned only to an
// Explain query.
func runQuery(m *obs.Metrics, rec *obs.Recorder, q Query, now float64, run func(tc *QueryTrace) ([]Result, error)) ([]Result, *QueryTrace, error) {
	if int(q.Kind) >= len(kindOps) {
		return nil, nil, fmt.Errorf("rexptree: unknown query kind %d", q.Kind)
	}
	op := kindOps[q.Kind]
	var tc *QueryTrace
	if q.Explain || rec != nil {
		tc = newTrace(op.String())
	}
	start := time.Now()
	var res []Result
	err := q.check(now)
	if err == nil {
		res, err = run(tc)
	}
	d := time.Since(start)
	m.ObserveOp(op, d, err)
	tc.finishRecord(rec, len(res), d, err)
	if !q.Explain {
		tc = nil
	}
	return res, tc, err
}
