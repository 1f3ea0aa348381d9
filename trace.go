package rexptree

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/obs"
)

// TraceSpan is one timed phase of a traced operation.  Spans form a
// tree through Parent (an index into QueryTrace.Spans, -1 for roots);
// Start is the offset from the operation's start.  The span taxonomy
// is documented in docs/TRACING.md: shard, epoch-pin, traverse, merge
// for queries; route, lock-wait, apply, version-publish, wal-append,
// wal-fsync, checkpoint for mutations; analyze, truncate-tail,
// reapply-images, open-base, replay, checkpoint for recovery.  Traverse spans additionally carry the
// traversal's node and page accounting.
type TraceSpan struct {
	Parent    int           `json:"parent"`          // index of the parent span; -1 for roots
	Phase     string        `json:"phase"`           // span name, see docs/TRACING.md
	Shard     int           `json:"shard"`           // shard the span ran on; -1 when not shard-specific
	Start     time.Duration `json:"start_ns"`        // offset from the operation's start
	Duration  time.Duration `json:"duration_ns"`     // span length
	Nodes     uint64        `json:"nodes,omitempty"` // traverse spans: nodes visited
	Leaves    uint64        `json:"leaves,omitempty"`
	PageReads uint64        `json:"page_reads,omitempty"` // buffer misses that read the store
	PageHits  uint64        `json:"page_hits,omitempty"`  // page requests served by the buffer
	Results   int           `json:"results,omitempty"`
}

// ShardTrace is one row of a sharded query's shard table: what the
// visit of one shard cost.
type ShardTrace struct {
	Shard     int           `json:"shard"`
	Band      string        `json:"band,omitempty"` // speed band "[lo, hi)" under PartitionSpeed
	Results   int           `json:"results"`
	Nodes     uint64        `json:"nodes"`
	Leaves    uint64        `json:"leaves"`
	PageReads uint64        `json:"page_reads"`
	PageHits  uint64        `json:"page_hits"`
	Duration  time.Duration `json:"duration_ns"`
}

// QueryTrace is the structured execution trace of one operation: the
// span tree, and for sharded queries the per-shard table.  It
// is the EXPLAIN result of the Trace* methods and the unit retained by
// the flight recorder.  A trace is immutable once returned; JSON
// encodes it for the /debug/rexp/traces endpoint and Text renders it
// for humans.
type QueryTrace struct {
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Results  int           `json:"results"`
	Error    string        `json:"error,omitempty"`
	Shards   []ShardTrace  `json:"shards,omitempty"`
	Spans    []TraceSpan   `json:"spans"`
}

func newTrace(op string) *QueryTrace {
	return &QueryTrace{Op: op, Start: time.Now()}
}

// begin appends a span starting now and returns its index (-1 on a nil
// trace — the untraced fast path costs one pointer test).  Not safe
// for concurrent use: a trace belongs to the goroutine that runs its
// operation.
func (t *QueryTrace) begin(parent int, phase string, shard int) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, TraceSpan{
		Parent: parent,
		Phase:  phase,
		Shard:  shard,
		Start:  time.Since(t.Start),
	})
	return len(t.Spans) - 1
}

// startAt re-stamps span i's start to now.
func (t *QueryTrace) startAt(i int) {
	if t == nil || i < 0 {
		return
	}
	t.Spans[i].Start = time.Since(t.Start)
}

// endAt closes span i, setting its duration.
func (t *QueryTrace) endAt(i int) {
	if t == nil || i < 0 {
		return
	}
	sp := &t.Spans[i]
	sp.Duration = time.Since(t.Start) - sp.Start
}

// beginTraverse appends the two spans every tree traversal fills, the
// epoch pin and the traversal proper, under parent.
func (t *QueryTrace) beginTraverse(parent, shard int) (pinIdx, travIdx int) {
	return t.begin(parent, "epoch-pin", shard), t.begin(parent, "traverse", shard)
}

// startTraverse re-stamps traverse span travIdx's start to now and
// returns st for the core kernel to fill.  A nil trace returns nil:
// nothing would read the accounting.
func (t *QueryTrace) startTraverse(travIdx int, st *core.TravStats) *core.TravStats {
	if t == nil {
		return nil
	}
	t.startAt(travIdx)
	return st
}

// endTraverse closes traverse span travIdx with the traversal's node
// and page accounting, and fills epoch-pin span pinIdx from the pin
// time the core kernel measured: the pin is the traversal's first act,
// so the span shares its start.
func (t *QueryTrace) endTraverse(pinIdx, travIdx int, st *core.TravStats, results int) {
	if t == nil {
		return
	}
	t.endAt(travIdx)
	sp := &t.Spans[travIdx]
	sp.Nodes, sp.Leaves = st.Nodes, st.Leaves
	sp.PageReads, sp.PageHits = st.Reads, st.Hits
	sp.Results = results
	pin := &t.Spans[pinIdx]
	pin.Start = sp.Start
	pin.Duration = time.Duration(st.PinNanos)
}

// shardSpans indexes the span block of one visited shard.
type shardSpans struct{ shard, pin, trav int }

// beginShard appends shard i's span block: shard, then under it
// epoch-pin and traverse.
func (t *QueryTrace) beginShard(i int) shardSpans {
	b := shardSpans{shard: t.begin(-1, "shard", i)}
	b.pin, b.trav = t.beginTraverse(b.shard, i)
	return b
}

// endShard closes shard i's span and copies the visit's cost, as its
// traverse span recorded it, into its row of the shard table.
func (t *QueryTrace) endShard(i int, b shardSpans) {
	if t == nil {
		return
	}
	t.endAt(b.shard)
	st, sp := &t.Shards[i], &t.Spans[b.trav]
	st.Nodes, st.Leaves = sp.Nodes, sp.Leaves
	st.PageReads, st.PageHits = sp.PageReads, sp.PageHits
	st.Results = sp.Results
	st.Duration = t.Spans[b.shard].Duration
}

// addMeasured appends a root span whose length was measured elsewhere
// (e.g. the writer's snapshot version-publish, timed inside the core):
// it ends now and extends back by the measured duration.
func (t *QueryTrace) addMeasured(phase string, nanos int64) {
	if t == nil || nanos <= 0 {
		return
	}
	d := time.Duration(nanos)
	t.Spans = append(t.Spans, TraceSpan{
		Parent:   -1,
		Phase:    phase,
		Shard:    -1,
		Start:    time.Since(t.Start) - d,
		Duration: d,
	})
}

// finishRecord seals the trace and hands it to the flight recorder
// (when one is attached).  Nil-safe on both the trace and recorder.
func (t *QueryTrace) finishRecord(rec *obs.Recorder, results int, d time.Duration, err error) {
	if t == nil {
		return
	}
	t.Duration = d
	t.Results = results
	if err != nil {
		t.Error = err.Error()
	}
	if rec != nil {
		rec.Record(t, d)
	}
}

// JSON returns the trace as indented JSON (durations in nanoseconds,
// as served by /debug/rexp/traces).
func (t *QueryTrace) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Text renders the trace for humans: a header line, the per-shard
// table (sharded queries), and the indented span tree.
func (t *QueryTrace) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v", t.Op, t.Duration)
	if t.Error != "" {
		fmt.Fprintf(&b, ", error: %s", t.Error)
	} else {
		fmt.Fprintf(&b, ", %d results", t.Results)
	}
	b.WriteByte('\n')

	if len(t.Shards) > 0 {
		fmt.Fprintf(&b, "  shards: %d\n", len(t.Shards))
		for _, st := range t.Shards {
			fmt.Fprintf(&b, "    shard %d", st.Shard)
			if st.Band != "" {
				fmt.Fprintf(&b, " %s", st.Band)
			}
			fmt.Fprintf(&b, ": %d results, %d nodes, %d leaf entries, %d reads, %d cached, %v\n",
				st.Results, st.Nodes, st.Leaves, st.PageReads, st.PageHits, st.Duration)
		}
	}

	if len(t.Spans) > 0 {
		b.WriteString("  spans:\n")
		children := make([][]int, len(t.Spans))
		var roots []int
		for i := range t.Spans {
			if p := t.Spans[i].Parent; p >= 0 && p < len(t.Spans) {
				children[p] = append(children[p], i)
			} else {
				roots = append(roots, i)
			}
		}
		var walk func(i, depth int)
		walk = func(i, depth int) {
			sp := &t.Spans[i]
			label := sp.Phase
			if sp.Shard >= 0 {
				label = fmt.Sprintf("%s [shard %d]", sp.Phase, sp.Shard)
			}
			fmt.Fprintf(&b, "    %s%-24s %v", strings.Repeat("  ", depth), label, sp.Duration)
			if sp.Nodes > 0 || sp.Leaves > 0 || sp.PageReads > 0 || sp.PageHits > 0 {
				fmt.Fprintf(&b, "  nodes=%d leaves=%d reads=%d cached=%d results=%d",
					sp.Nodes, sp.Leaves, sp.PageReads, sp.PageHits, sp.Results)
			}
			b.WriteByte('\n')
			for _, c := range children[i] {
				walk(c, depth+1)
			}
		}
		for _, r := range roots {
			walk(r, 0)
		}
	}
	return b.String()
}

// newRecorder builds the flight recorder configured in opts (nil when
// disabled).  The slow threshold is SlowOpThreshold when set, else
// 10ms.
func newRecorder(opts Options) *obs.Recorder {
	if opts.FlightRecorder <= 0 {
		return nil
	}
	slow := opts.SlowOpThreshold
	if slow <= 0 {
		slow = 10 * time.Millisecond
	}
	return obs.NewRecorder(opts.FlightRecorder, slow)
}

// convTraces converts a recorder snapshot back to traces.
func convTraces(vs []any) []*QueryTrace {
	out := make([]*QueryTrace, 0, len(vs))
	for _, v := range vs {
		if t, ok := v.(*QueryTrace); ok {
			out = append(out, t)
		}
	}
	return out
}

// traceHandler serves a recorder's retained traces as JSON.
func traceHandler(rec *obs.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if rec == nil {
			w.Write([]byte(`{"enabled":false,"recent":[],"slow":[]}` + "\n"))
			return
		}
		recent, slow := rec.Snapshot()
		resp := struct {
			Enabled       bool          `json:"enabled"`
			SlowThreshold int64         `json:"slow_threshold_ns"`
			Recent        []*QueryTrace `json:"recent"`
			Slow          []*QueryTrace `json:"slow"`
		}{true, int64(rec.SlowThreshold()), convTraces(recent), convTraces(slow)}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}

// ---------------------------------------------------------------------
// Tree EXPLAIN API.

// TraceWindow runs Window and returns its execution trace alongside
// the results.  It is Window with the trace forced on: the same
// traversal, results, metrics and flight-recorder entry.
func (tr *Tree) TraceWindow(r Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return tr.query(obs.OpWindow, true, checkWindow(t1, t2, now), geom.Window(toRect(r), t1, t2), now)
}

// TraceTimeslice runs Timeslice and returns its execution trace; see
// TraceWindow.
func (tr *Tree) TraceTimeslice(r Rect, at, now float64) ([]Result, *QueryTrace, error) {
	return tr.query(obs.OpTimeslice, true, checkTimeslice(at, now), geom.Timeslice(toRect(r), at), now)
}

// TraceMoving runs Moving and returns its execution trace; see
// TraceWindow.
func (tr *Tree) TraceMoving(r1, r2 Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return tr.query(obs.OpMoving, true, checkMoving(t1, t2, now), geom.Moving(toRect(r1), toRect(r2), t1, t2, tr.dims), now)
}

// TraceNearest runs Nearest and returns its execution trace; see
// TraceWindow.
func (tr *Tree) TraceNearest(pos Vec, at float64, k int, now float64) ([]Result, *QueryTrace, error) {
	return tr.nearest(true, pos, at, k, now)
}

// Traces returns the flight recorder's retained traces, newest first.
// Both slices are nil when the recorder is disabled
// (Options.FlightRecorder == 0).
func (tr *Tree) Traces() (recent, slow []*QueryTrace) {
	if tr.rec == nil {
		return nil, nil
	}
	r, s := tr.rec.Snapshot()
	return convTraces(r), convTraces(s)
}

// TraceHandler returns an http.Handler serving the flight recorder's
// retained traces as JSON, for mounting at /debug/rexp/traces next to
// MetricsHandler.
func (tr *Tree) TraceHandler() http.Handler {
	return traceHandler(tr.rec)
}

// ---------------------------------------------------------------------
// ShardedTree EXPLAIN API.

// TraceWindow runs Window across the shards and returns the execution
// trace: the per-shard table and the span tree covering each shard's
// epoch pin and traversal, and the result merge.  It is Window with
// the trace forced on.
func (s *ShardedTree) TraceWindow(r Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return s.query(obs.OpWindow, true, checkWindow(t1, t2, now), geom.Window(toRect(r), t1, t2), now)
}

// TraceTimeslice runs Timeslice across the shards and returns the
// execution trace; see TraceWindow.
func (s *ShardedTree) TraceTimeslice(r Rect, at, now float64) ([]Result, *QueryTrace, error) {
	return s.query(obs.OpTimeslice, true, checkTimeslice(at, now), geom.Timeslice(toRect(r), at), now)
}

// TraceMoving runs Moving across the shards and returns the execution
// trace; see TraceWindow.
func (s *ShardedTree) TraceMoving(r1, r2 Rect, t1, t2, now float64) ([]Result, *QueryTrace, error) {
	return s.query(obs.OpMoving, true, checkMoving(t1, t2, now), geom.Moving(toRect(r1), toRect(r2), t1, t2, s.dims), now)
}

// TraceNearest runs Nearest across the shards and returns the
// execution trace; it has no merge span.  See TraceWindow.
func (s *ShardedTree) TraceNearest(pos Vec, at float64, k int, now float64) ([]Result, *QueryTrace, error) {
	return s.nearest(true, pos, at, k, now)
}

// Traces returns the sharded front end's flight-recorder traces,
// newest first; see Tree.Traces.  A sharded query is one trace here,
// with the shard visits as spans; the shards do not record queries of
// their own.
func (s *ShardedTree) Traces() (recent, slow []*QueryTrace) {
	if s.rec == nil {
		return nil, nil
	}
	r, sl := s.rec.Snapshot()
	return convTraces(r), convTraces(sl)
}

// TraceHandler returns an http.Handler serving the front end's flight
// recorder as JSON, for mounting at /debug/rexp/traces.
func (s *ShardedTree) TraceHandler() http.Handler {
	return traceHandler(s.rec)
}
