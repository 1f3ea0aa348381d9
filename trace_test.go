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

// TestTraceEquivalenceSingle checks an Explain query returns exactly
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
			func() ([]Result, *QueryTrace, error) {
				return tr.Query(Query{Kind: QueryWindow, R: region, T1: 5, T2: 15, Explain: true}, 0)
			},
			"window", 2},
		{"timeslice",
			func() ([]Result, error) { return tr.Timeslice(region, 5, 0) },
			func() ([]Result, *QueryTrace, error) {
				return tr.Query(Query{Kind: QueryTimeslice, R: region, At: 5, Explain: true}, 0)
			},
			"timeslice", 2},
		{"moving",
			func() ([]Result, error) { return tr.Moving(region, region2, 5, 15, 0) },
			func() ([]Result, *QueryTrace, error) {
				return tr.Query(Query{Kind: QueryMoving, R: region, R2: region2, T1: 5, T2: 15, Explain: true}, 0)
			},
			"moving", 2},
		{"nearest",
			func() ([]Result, error) { return tr.Nearest(Vec{500, 500}, 5, 10, 0) },
			func() ([]Result, *QueryTrace, error) {
				return tr.Query(Query{Kind: QueryNearest, Pos: Vec{500, 500}, At: 5, K: 10, Explain: true}, 0)
			},
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
// and the trace carries the shard table and fan-out span tree.
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

	type q struct {
		name   string
		plain  func() ([]Result, error)
		traced func() ([]Result, *QueryTrace, error)
	}
	cases := []q{
		{"window",
			func() ([]Result, error) { return s.Window(region, 5, 15, 0) },
			func() ([]Result, *QueryTrace, error) {
				return s.Query(Query{Kind: QueryWindow, R: region, T1: 5, T2: 15, Explain: true}, 0)
			}},
		{"timeslice",
			func() ([]Result, error) { return s.Timeslice(region, 5, 0) },
			func() ([]Result, *QueryTrace, error) {
				return s.Query(Query{Kind: QueryTimeslice, R: region, At: 5, Explain: true}, 0)
			}},
		{"moving",
			func() ([]Result, error) { return s.Moving(region, region2, 5, 15, 0) },
			func() ([]Result, *QueryTrace, error) {
				return s.Query(Query{Kind: QueryMoving, R: region, R2: region2, T1: 5, T2: 15, Explain: true}, 0)
			}},
		{"nearest",
			func() ([]Result, error) { return s.Nearest(Vec{500, 500}, 5, 20, 0) },
			func() ([]Result, *QueryTrace, error) {
				return s.Query(Query{Kind: QueryNearest, Pos: Vec{500, 500}, At: 5, K: 20, Explain: true}, 0)
			}},
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
			t.Fatalf("%s: shard table has %d rows, want 4", c.name, len(trace.Shards))
		}
		results := 0
		for i, st := range trace.Shards {
			if st.Shard != i {
				t.Errorf("%s: row %d claims shard %d", c.name, i, st.Shard)
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
		if spansByPhase["route"] != 0 {
			t.Errorf("%s: %d route spans, want none", c.name, spansByPhase["route"])
		}
		if c.name != "nearest" && spansByPhase["merge"] != 1 {
			t.Errorf("%s: %d merge spans, want 1", c.name, spansByPhase["merge"])
		}
		if spansByPhase["shard"] != 4 {
			t.Errorf("%s: %d shard spans for 4 shards", c.name, spansByPhase["shard"])
		}
		if spansByPhase["queue-wait"] != 0 {
			t.Errorf("%s: %d queue-wait spans, want none", c.name, spansByPhase["queue-wait"])
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
			t.Errorf("%s: Text() missing shard table:\n%s", c.name, txt)
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
	opts.SlowOpThreshold = time.Nanosecond
	captureLog(t)
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
	opts.SlowOpThreshold = time.Nanosecond
	captureLog(t)
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
// fan-out traces with their shard tables.
func TestShardedFlightRecorder(t *testing.T) {
	opts := DefaultOptions()
	opts.FlightRecorder = 8
	opts.SlowOpThreshold = time.Nanosecond
	captureLog(t)
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

// TestShardedPhaseExposition checks the phase observed only by the
// front-end registry (merge) is folded into the aggregate Prometheus
// exposition alongside the summed shard phases.
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
	for _, phase := range []string{"merge"} {
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

// TestShardVisitsCountOncePerShard pins one definition of a sharded
// query's accounting, recorder on or off: every shard is visited once,
// counted once in ShardVisits and observed once in that shard's own
// operation histogram.  A region query visits every shard, the three
// empty ones of one object in four hash shards included, so a timeslice
// over it is 4 visits.
func TestShardVisitsCountOncePerShard(t *testing.T) {
	type counts struct {
		visits   uint64
		shardOps [4]uint64
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
		c := counts{visits: after.Sub(before).ShardVisits}
		for i := range c.shardOps {
			c.shardOps[i] = shardsAfter[i].Ops[obs.OpTimeslice].Count - shardsBefore[i].Ops[obs.OpTimeslice].Count
			if c.shardOps[i] != 1 {
				t.Errorf("recorder %d: shard %d observed %d timeslice ops, want 1", recorder, i, c.shardOps[i])
			}
		}
		if c.visits != 4 {
			t.Errorf("recorder %d: %d visits, want 4", recorder, c.visits)
		}
		return c
	}
	if off, on := run(0), run(16); off != on {
		t.Errorf("visit accounting differs with the recorder: off %+v, on %+v", off, on)
	}
}

// TestBatchWritesOnlyItsShards is the write side of the same
// definition: a batch whose reports all hash to one of four shards
// applies one update_batch on that shard and none on the other three.
func TestBatchWritesOnlyItsShards(t *testing.T) {
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
	_, before := s.snapshots()
	if err := s.UpdateBatch(batch, 0); err != nil {
		t.Fatal(err)
	}
	_, after := s.snapshots()
	for i := range after {
		want := uint64(0)
		if i == 2 {
			want = 1
		}
		if n := after[i].Ops[obs.OpBatch].Count - before[i].Ops[obs.OpBatch].Count; n != want {
			t.Errorf("a batch for shard 2 applied %d update_batch ops on shard %d, want %d", n, i, want)
		}
	}
}

// raceBuild reports whether the test binary runs under the race
// detector, whose allocation counts are logged but not judged.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestShardedBatchRecordsOneTrace checks the shards of a ShardedTree
// keep no flight recorder: the front end's is the only one anything can
// read, so under it a 25-report batch builds the front end's one trace
// and no trace per shard.  Shard traces cost 16 allocations per batch
// (47 with them, 31 without, 28 with the recorder off); the bound
// leaves 5 for the front end's own.
func TestShardedBatchRecordsOneTrace(t *testing.T) {
	load := testWorkload(2000, 17)
	batch := load[:25]
	allocs := func(recorder int) float64 {
		opts := DefaultOptions()
		opts.FlightRecorder = recorder
		s, err := OpenSharded(ShardedOptions{Options: opts, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.UpdateBatch(load, 0); err != nil {
			t.Fatal(err)
		}
		for i, sh := range s.cur.Load().shards {
			if sh.rec != nil {
				t.Errorf("recorder %d: shard %d has a flight recorder of its own", recorder, i)
			}
		}
		return testing.AllocsPerRun(100, func() {
			if err := s.UpdateBatch(batch, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := allocs(0), allocs(256)
	t.Logf("25-report batch on 4 shards: %.1f allocs recorder off, %.1f with FlightRecorder 256", off, on)
	if on > off+5 && !raceBuild() {
		t.Errorf("the recorder adds %.1f allocations to a batch, want <= 5", on-off)
	}
}

// TestQueryAllocsRecorderOff pins "a nil trace costs nothing": with the
// flight recorder off the query kernels may not allocate a trace, a
// TravStats, a span block or a shard table.  The bounds are the paths'
// allocation counts since a region query's hits stream straight into the
// public result slice; a sharded region query, whose shards append to one
// slice, may add at most two per shard to the single tree's.  A nearest
// query allocates the kernel's k-element answer per tree and the public
// slice; a sharded one also grows its merge buffer.  They hold for a plain build only: the race detector
// changes escape analysis and makes sync.Pool drop items (the same
// paths read 10/7/52/52 under it before the merge), so there the counts
// are logged, not judged.
func TestQueryAllocsRecorderOff(t *testing.T) {
	race := raceBuild()
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
		{"Tree.Nearest", 2, func() error { _, err := tr.Nearest(pos, 5, 10, 0); return err }},
		{"ShardedTree.Timeslice", 9 + 2*4, func() error { _, err := s.Timeslice(region, 5, 0); return err }},
		{"ShardedTree.Nearest", 6, func() error { _, err := s.Nearest(pos, 5, 10, 0); return err }},
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
