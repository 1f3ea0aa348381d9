package rexptree

import (
	"encoding/json"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"rexptree/internal/obs"
)

// TestTraceEquivalenceSingle checks the Trace* methods return exactly
// what the untraced queries return — tracing observes, it must never
// change the traversal — and that the trace carries the expected span
// structure.
func TestTraceEquivalenceSingle(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, r := range testWorkload(2000, 11) {
		if err := tr.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}

	region := Rect{Lo: Vec{100, 100}, Hi: Vec{400, 400}}
	region2 := Rect{Lo: Vec{150, 150}, Hi: Vec{450, 450}}

	type q struct {
		name     string
		plain    func() ([]Result, error)
		traced   func() ([]Result, *QueryTrace, error)
		wantOp   string
		minSpans int
	}
	cases := []q{
		{"window",
			func() ([]Result, error) { return tr.Window(region, 5, 15, 0) },
			func() ([]Result, *QueryTrace, error) { return tr.TraceWindow(region, 5, 15, 0) },
			"window", 2},
		{"timeslice",
			func() ([]Result, error) { return tr.Timeslice(region, 5, 0) },
			func() ([]Result, *QueryTrace, error) { return tr.TraceTimeslice(region, 5, 0) },
			"timeslice", 2},
		{"moving",
			func() ([]Result, error) { return tr.Moving(region, region2, 5, 15, 0) },
			func() ([]Result, *QueryTrace, error) { return tr.TraceMoving(region, region2, 5, 15, 0) },
			"moving", 2},
		{"nearest",
			func() ([]Result, error) { return tr.Nearest(Vec{500, 500}, 5, 10, 0) },
			func() ([]Result, *QueryTrace, error) { return tr.TraceNearest(Vec{500, 500}, 5, 10, 0) },
			"nearest", 2},
	}
	for _, c := range cases {
		want, err := c.plain()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, trace, err := c.traced()
		if err != nil {
			t.Fatalf("Trace %s: %v", c.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: traced %d results, untraced %d", c.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s result %d: traced %+v, untraced %+v", c.name, i, got[i], want[i])
			}
		}
		if trace == nil || trace.Op != c.wantOp {
			t.Fatalf("%s: trace %+v, want op %q", c.name, trace, c.wantOp)
		}
		if trace.Results != len(want) {
			t.Errorf("%s: trace.Results = %d, want %d", c.name, trace.Results, len(want))
		}
		if len(trace.Spans) < c.minSpans {
			t.Fatalf("%s: %d spans, want >= %d", c.name, len(trace.Spans), c.minSpans)
		}
		var sawTraverse, sawPin bool
		for _, sp := range trace.Spans {
			if sp.Phase == "traverse" {
				sawTraverse = true
				if want != nil && sp.Nodes == 0 {
					t.Errorf("%s: traverse span visited 0 nodes", c.name)
				}
			}
			if sp.Phase == "epoch-pin" {
				sawPin = true
			}
			if sp.Phase == "lock-wait" {
				t.Errorf("%s: lock-wait span on the snapshot read path", c.name)
			}
		}
		if !sawTraverse {
			t.Errorf("%s: no traverse span in %+v", c.name, trace.Spans)
		}
		if !sawPin {
			t.Errorf("%s: no epoch-pin span in %+v", c.name, trace.Spans)
		}
		if len(trace.Shards) != 0 {
			t.Errorf("%s: stand-alone tree trace has a shard table", c.name)
		}
		if txt := trace.Text(); !strings.Contains(txt, c.wantOp) || !strings.Contains(txt, "traverse") {
			t.Errorf("%s: Text() missing op or spans:\n%s", c.name, txt)
		}
	}
}

// TestTraceMutationPublishSpan checks that recorded mutation traces
// carry the version-publish span timing the snapshot publication, and
// that queries recorded through the flight recorder carry epoch-pin.
func TestTraceMutationPublishSpan(t *testing.T) {
	opts := DefaultOptions()
	opts.FlightRecorder = 8
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, r := range testWorkload(200, 3) {
		if err := tr.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.UpdateBatch(testWorkload(200, 4), 0); err != nil {
		t.Fatal(err)
	}
	recent, _ := tr.Traces()
	phases := map[string]map[string]bool{} // op -> span phases seen
	for _, qt := range recent {
		if phases[qt.Op] == nil {
			phases[qt.Op] = map[string]bool{}
		}
		for _, sp := range qt.Spans {
			phases[qt.Op][sp.Phase] = true
		}
	}
	for _, op := range []string{"update", "batch"} {
		if !phases[op]["version-publish"] {
			t.Errorf("recorded %s trace has no version-publish span (spans: %v)", op, phases[op])
		}
	}
}

// TestTraceEquivalenceSharded runs every query type on a 4-shard
// speed-partitioned tree and checks traced results match untraced ones
// and the trace carries the pruning table and fan-out span tree.
func TestTraceEquivalenceSharded(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{
		Options:   DefaultOptions(),
		Shards:    4,
		Partition: PartitionSpeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateBatch(testWorkload(3000, 42), 0); err != nil {
		t.Fatal(err)
	}

	region := Rect{Lo: Vec{200, 200}, Hi: Vec{600, 600}}
	region2 := Rect{Lo: Vec{250, 250}, Hi: Vec{650, 650}}
	validReasons := map[string]bool{
		"match": true, "summary-pruned": true, "empty": true, "distance-pruned": true,
	}

	type q struct {
		name   string
		plain  func() ([]Result, error)
		traced func() ([]Result, *QueryTrace, error)
	}
	cases := []q{
		{"window",
			func() ([]Result, error) { return s.Window(region, 5, 15, 0) },
			func() ([]Result, *QueryTrace, error) { return s.TraceWindow(region, 5, 15, 0) }},
		{"timeslice",
			func() ([]Result, error) { return s.Timeslice(region, 5, 0) },
			func() ([]Result, *QueryTrace, error) { return s.TraceTimeslice(region, 5, 0) }},
		{"moving",
			func() ([]Result, error) { return s.Moving(region, region2, 5, 15, 0) },
			func() ([]Result, *QueryTrace, error) { return s.TraceMoving(region, region2, 5, 15, 0) }},
		{"nearest",
			func() ([]Result, error) { return s.Nearest(Vec{500, 500}, 5, 20, 0) },
			func() ([]Result, *QueryTrace, error) { return s.TraceNearest(Vec{500, 500}, 5, 20, 0) }},
	}
	for _, c := range cases {
		want, err := c.plain()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, trace, err := c.traced()
		if err != nil {
			t.Fatalf("Trace %s: %v", c.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: traced %d results, untraced %d", c.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s result %d differs: traced %+v, untraced %+v", c.name, i, got[i], want[i])
			}
		}

		if len(trace.Shards) != 4 {
			t.Fatalf("%s: pruning table has %d rows, want 4", c.name, len(trace.Shards))
		}
		results := 0
		for i, st := range trace.Shards {
			if st.Shard != i {
				t.Errorf("%s: row %d claims shard %d", c.name, i, st.Shard)
			}
			if !validReasons[st.Reason] {
				t.Errorf("%s: shard %d has unknown reason %q", c.name, i, st.Reason)
			}
			if st.Visited != (st.Reason == "match") {
				t.Errorf("%s: shard %d visited=%v with reason %q", c.name, i, st.Visited, st.Reason)
			}
			if st.Band == "" {
				t.Errorf("%s: shard %d row missing its speed band", c.name, i)
			}
			results += st.Results
		}
		if c.name != "nearest" && results != len(want) {
			t.Errorf("%s: shard rows account for %d results, query returned %d", c.name, results, len(want))
		}

		spansByPhase := map[string]int{}
		for _, sp := range trace.Spans {
			spansByPhase[sp.Phase]++
		}
		if spansByPhase["route"] != 1 {
			t.Errorf("%s: %d route spans, want 1", c.name, spansByPhase["route"])
		}
		if c.name != "nearest" && spansByPhase["merge"] != 1 {
			t.Errorf("%s: %d merge spans, want 1", c.name, spansByPhase["merge"])
		}
		visited := 0
		for _, st := range trace.Shards {
			if st.Visited {
				visited++
			}
		}
		if spansByPhase["shard"] != visited {
			t.Errorf("%s: %d shard spans for %d visited shards", c.name, spansByPhase["shard"], visited)
		}
		if c.name != "nearest" && spansByPhase["queue-wait"] != visited {
			t.Errorf("%s: %d queue-wait spans for %d visited shards", c.name, spansByPhase["queue-wait"], visited)
		}

		// Every span's parent index must be in range and acyclic-by
		// construction (parents precede children).
		for i, sp := range trace.Spans {
			if sp.Parent >= i {
				t.Errorf("%s: span %d has parent %d (must precede it)", c.name, i, sp.Parent)
			}
		}

		if _, err := trace.JSON(); err != nil {
			t.Errorf("%s: JSON: %v", c.name, err)
		}
		if txt := trace.Text(); !strings.Contains(txt, "shards:") {
			t.Errorf("%s: Text() missing pruning table:\n%s", c.name, txt)
		}
	}
}

// TestFlightRecorderCapturesSlow runs a concurrent mixed workload on a
// recorder-enabled tree (slow threshold 1ns, so everything lands in the
// slow ring) and checks the recorder retained traces; run under -race
// this doubles as the recorder's integration race test.
func TestFlightRecorderCapturesSlow(t *testing.T) {
	opts := DefaultOptions()
	opts.FlightRecorder = 16
	opts.FlightSlowThreshold = time.Nanosecond
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reports := testWorkload(1000, 3)
	for _, r := range reports {
		if err := tr.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := Rect{Lo: Vec{float64(w) * 100, 0}, Hi: Vec{float64(w)*100 + 300, 500}}
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					if _, err := tr.Window(region, 1, 10, 0); err != nil {
						t.Error(err)
						return
					}
				} else {
					r := reports[(w*50+i)%len(reports)]
					if err := tr.Update(r.ID, r.Point, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	recent, slow := tr.Traces()
	if len(recent) != 16 {
		t.Errorf("recent ring holds %d traces, want 16", len(recent))
	}
	if len(slow) != 16 {
		t.Errorf("slow ring holds %d traces, want 16 (threshold 1ns)", len(slow))
	}
	ops := map[string]bool{}
	for _, q := range append(recent, slow...) {
		if q == nil || q.Duration <= 0 {
			t.Fatalf("recorded trace %+v has no duration", q)
		}
		ops[q.Op] = true
	}
	// The plain public calls must have been recorded (they route
	// through the traced path when a recorder is attached).
	if !ops["window"] && !ops["update"] {
		t.Errorf("recorder saw ops %v, expected window and/or update", ops)
	}
}

// TestTraceHandlerJSON checks the /debug/rexp/traces payload shape for
// both an enabled and a disabled recorder.
func TestTraceHandlerJSON(t *testing.T) {
	opts := DefaultOptions()
	opts.FlightRecorder = 4
	opts.FlightSlowThreshold = time.Nanosecond
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, r := range testWorkload(200, 5) {
		if err := tr.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Window(Rect{Lo: Vec{0, 0}, Hi: Vec{500, 500}}, 1, 5, 0); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	tr.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/rexp/traces", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var resp struct {
		Enabled       bool          `json:"enabled"`
		SlowThreshold int64         `json:"slow_threshold_ns"`
		Recent        []*QueryTrace `json:"recent"`
		Slow          []*QueryTrace `json:"slow"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("payload is not JSON: %v\n%s", err, rr.Body.String())
	}
	if !resp.Enabled || resp.SlowThreshold != 1 {
		t.Errorf("enabled=%v threshold=%d, want true/1", resp.Enabled, resp.SlowThreshold)
	}
	if len(resp.Recent) == 0 || len(resp.Slow) == 0 {
		t.Fatalf("payload retained %d recent, %d slow traces", len(resp.Recent), len(resp.Slow))
	}
	if resp.Recent[0].Op == "" || len(resp.Recent[0].Spans) == 0 {
		t.Errorf("decoded trace lost its fields: %+v", resp.Recent[0])
	}

	// Disabled recorder: explicit enabled:false payload.
	plain, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	rr = httptest.NewRecorder()
	plain.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/rexp/traces", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || len(resp.Recent) != 0 || len(resp.Slow) != 0 {
		t.Errorf("disabled payload = %+v", resp)
	}
}

// TestShardedFlightRecorder checks the sharded front end records
// fan-out traces with their pruning tables.
func TestShardedFlightRecorder(t *testing.T) {
	opts := DefaultOptions()
	opts.FlightRecorder = 8
	opts.FlightSlowThreshold = time.Nanosecond
	s, err := OpenSharded(ShardedOptions{Options: opts, Shards: 4, Partition: PartitionSpeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateBatch(testWorkload(2000, 9), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Window(Rect{Lo: Vec{100, 100}, Hi: Vec{600, 600}}, 1, 10, 0); err != nil {
		t.Fatal(err)
	}
	recent, slow := s.Traces()
	if len(recent) == 0 || len(slow) == 0 {
		t.Fatalf("front end recorded %d recent, %d slow traces", len(recent), len(slow))
	}
	var sawQuery bool
	for _, q := range recent {
		if q.Op == "window" {
			sawQuery = true
			if len(q.Shards) != 4 {
				t.Errorf("recorded window trace has %d shard rows, want 4", len(q.Shards))
			}
		}
	}
	if !sawQuery {
		t.Errorf("no window trace among %d recorded", len(recent))
	}
}

// TestShardedPhaseExposition checks the fan-out phases observed only
// by the front-end registry (queue_wait, merge) are folded into the
// aggregate Prometheus exposition alongside the summed shard phases.
func TestShardedPhaseExposition(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateBatch(testWorkload(500, 2), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Window(Rect{Lo: Vec{0, 0}, Hi: Vec{900, 900}}, 1, 10, 0); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"queue_wait", "merge"} {
		series := `rexp_phase_duration_seconds_count{phase="` + phase + `"} `
		var found bool
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, series); ok {
				found = true
				if v == "0" {
					t.Errorf("aggregate exposition lost the front end's %s observations", phase)
				}
				break
			}
		}
		if !found {
			t.Errorf("aggregate exposition missing %s%s", series, "...")
		}
	}
}

// TestShardedHookTags checks Observer and SlowOp hooks configured on a
// ShardedTree reach the shards and come back tagged with the shard
// identity, and that the front end reports fan-out slow ops; a
// stand-alone tree's events carry Shard == -1.
func TestShardedHookTags(t *testing.T) {
	var mu sync.Mutex
	var events []ObserverEvent
	var slowOps []string

	opts := DefaultOptions()
	opts.Observer = func(e ObserverEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	opts.SlowOpThreshold = time.Nanosecond
	opts.SlowOp = func(op string, d time.Duration) {
		mu.Lock()
		slowOps = append(slowOps, op)
		mu.Unlock()
	}
	s, err := OpenSharded(ShardedOptions{Options: opts, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateBatch(testWorkload(3000, 21), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Window(Rect{Lo: Vec{0, 0}, Hi: Vec{900, 900}}, 1, 10, 0); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	if len(events) == 0 {
		mu.Unlock()
		t.Fatal("no observer events from a 3000-object load (expected splits)")
	}
	for _, e := range events {
		if e.Shard < 0 || e.Shard >= 4 {
			mu.Unlock()
			t.Fatalf("sharded observer event %+v has shard %d outside [0,4)", e, e.Shard)
		}
	}
	var shardTagged, fanout bool
	for _, op := range slowOps {
		if strings.HasPrefix(op, "shard") && strings.Contains(op, "/") {
			shardTagged = true
		}
		if strings.HasPrefix(op, "fanout/") {
			fanout = true
		}
	}
	if !shardTagged || !fanout {
		t.Errorf("slow ops %v: want both shard-tagged and fanout/ entries", slowOps)
	}
	mu.Unlock()

	// Stand-alone tree: events carry the -1 shard sentinel.  The hook
	// runs synchronously on the updating goroutine, so no lock.
	var single []ObserverEvent
	sopts := DefaultOptions()
	sopts.Observer = func(e ObserverEvent) {
		single = append(single, e)
	}
	tr, err := Open(sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, r := range testWorkload(2000, 13) {
		if err := tr.Update(r.ID, r.Point, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(single) == 0 {
		t.Fatal("no observer events from the stand-alone load")
	}
	for _, e := range single {
		if e.Shard != -1 {
			t.Fatalf("stand-alone event %+v has shard %d, want -1", e, e.Shard)
		}
	}
}

// TestQueueWaitCountsVisitedShardsOnly pins one definition of the
// fan-out's accounting, recorder on or off: only visited shards queue
// for a worker slot, and a visited shard's operation latency is
// observed once.  One object in four hash shards leaves three shards
// provably empty, so a timeslice over it is 1 visit + 3 prunes.
func TestQueueWaitCountsVisitedShardsOnly(t *testing.T) {
	type counts struct {
		queueWaits, visits, pruned uint64
		shardOps                   [4]uint64
	}
	run := func(recorder int) counts {
		opts := DefaultOptions()
		opts.FlightRecorder = recorder
		s, err := OpenSharded(ShardedOptions{Options: opts, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Update(1, Point{Pos: Vec{500, 500}, Expires: NoExpiry()}, 0); err != nil {
			t.Fatal(err)
		}
		before, shardsBefore := s.snapshots()
		rs, err := s.Timeslice(Rect{Lo: Vec{400, 400}, Hi: Vec{600, 600}}, 1, 0)
		if err != nil || len(rs) != 1 {
			t.Fatalf("recorder %d: timeslice = %v, %v; want the one object", recorder, rs, err)
		}
		after, shardsAfter := s.snapshots()
		d := after.Sub(before)
		c := counts{
			queueWaits: d.Phases[obs.PhaseQueueWait].Count,
			visits:     d.ShardVisits,
			pruned:     d.ShardsPruned,
		}
		for i := range c.shardOps {
			c.shardOps[i] = shardsAfter[i].Ops[obs.OpTimeslice].Count - shardsBefore[i].Ops[obs.OpTimeslice].Count
		}
		if c.visits != 1 || c.pruned != 3 {
			t.Errorf("recorder %d: %d visits, %d prunes; want 1 and 3", recorder, c.visits, c.pruned)
		}
		if c.queueWaits != c.visits {
			t.Errorf("recorder %d: %d queue_wait observations for %d shard visits (pruned shards must not queue)",
				recorder, c.queueWaits, c.visits)
		}
		return c
	}
	off, on := run(0), run(16)
	if off != on {
		t.Errorf("fan-out accounting differs with the recorder: off %+v, on %+v", off, on)
	}
	var ops uint64
	for _, n := range off.shardOps {
		ops += n
	}
	if ops != off.visits {
		t.Errorf("shards observed %d timeslice ops for %d visits", ops, off.visits)
	}
}

// TestWriteQueueWaitCountsWrittenShardsOnly is the write side of the
// same definition: a batch whose reports all hash to one of four shards
// takes one worker slot, so queue_wait gets one observation, not four.
func TestWriteQueueWaitCountsWrittenShardsOnly(t *testing.T) {
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.cur.Load()
	var batch []Report
	for id := uint32(0); len(batch) < 10; id++ {
		p := Point{Pos: Vec{float64(id), 500}, Expires: NoExpiry()}
		if g.part.route(id, p) == 2 {
			batch = append(batch, Report{ID: id, Point: p})
		}
	}
	before, _ := s.snapshots()
	if err := s.UpdateBatch(batch, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := s.snapshots()
	if n := after.Sub(before).Phases[obs.PhaseQueueWait].Count; n != 1 {
		t.Errorf("a batch for one shard made %d queue_wait observations, want 1", n)
	}
}

// TestQueryAllocsRecorderOff pins "a nil trace costs nothing": with the
// flight recorder off the query kernels may not allocate a trace, a
// TravStats, a span block or a shard table.  The bounds are the paths'
// allocation counts since a region query's hits stream straight into the
// public result slice.  They hold for a plain build only: the race detector
// changes escape analysis and makes sync.Pool drop items (the same
// paths read 10/7/52/52 under it before the merge), so there the counts
// are logged, not judged.
func TestQueryAllocsRecorderOff(t *testing.T) {
	race := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			race = race || (s.Key == "-race" && s.Value == "true")
		}
	}
	load := testWorkload(2000, 11)
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	s, err := OpenSharded(ShardedOptions{Options: DefaultOptions(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := tr.UpdateBatch(load, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateBatch(load, 0); err != nil {
		t.Fatal(err)
	}

	region := Rect{Lo: Vec{100, 100}, Hi: Vec{400, 400}}
	pos := Vec{500, 500}
	cases := []struct {
		name string
		max  float64
		run  func() error
	}{
		{"Tree.Timeslice", 9, func() error { _, err := tr.Timeslice(region, 5, 0); return err }},
		{"Tree.Nearest", 6, func() error { _, err := tr.Nearest(pos, 5, 10, 0); return err }},
		{"ShardedTree.Timeslice", 46, func() error { _, err := s.Timeslice(region, 5, 0); return err }},
		{"ShardedTree.Nearest", 47, func() error { _, err := s.Nearest(pos, 5, 10, 0); return err }},
	}
	for _, c := range cases {
		if err := c.run(); err != nil { // warm the pooled stacks and queues
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per call", c.name, allocs)
		if allocs > c.max && !race {
			t.Errorf("%s allocates %.1f objects per call, want <= %v", c.name, allocs, c.max)
		}
	}
}
