package rexptree

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsSnapshotDelta(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	for i := 0; i < 100; i++ {
		if err := tr.Update(uint32(i), Point{Pos: Vec{float64(i * 10 % 1000), 500}, Time: 0, Expires: 1000}, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Metrics()
	if before.Ops[0].Op != "update" || before.Ops[0].Count != 100 {
		t.Fatalf("update op = %+v, want 100 calls", before.Ops[0])
	}
	if before.LeafEntries != 100 || before.Height < 1 || before.Pages < 2 {
		t.Fatalf("gauges = height %d, pages %d, leaf entries %d", before.Height, before.Pages, before.LeafEntries)
	}

	for i := 0; i < 50; i++ {
		if err := tr.Update(uint32(i), Point{Pos: Vec{float64(i * 7 % 1000), 400}, Time: 1, Expires: 1000}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Timeslice(world, 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Window(world, 2, 10, 2); err != nil {
		t.Fatal(err)
	}
	after := tr.Metrics()
	d := after.Sub(before)

	if got, _ := d.Op("update"); got.Count != 50 {
		t.Errorf("delta update count = %d, want 50", got.Count)
	}
	if got, _ := d.Op("timeslice"); got.Count != 1 {
		t.Errorf("delta timeslice count = %d, want 1", got.Count)
	}
	if got, _ := d.Op("window"); got.Count != 1 {
		t.Errorf("delta window count = %d, want 1", got.Count)
	}
	if got, _ := d.Op("nearest"); got.Count != 0 {
		t.Errorf("delta nearest count = %d, want 0", got.Count)
	}
	if _, ok := d.Op("no-such-op"); ok {
		t.Error("unknown op name resolved")
	}
	// Counters subtract; gauges keep the later snapshot's values.
	if d.QueryNodeVisits == 0 || d.QueryNodeVisits > after.QueryNodeVisits {
		t.Errorf("delta node visits = %d (after %d)", d.QueryNodeVisits, after.QueryNodeVisits)
	}
	if d.LeafEntries != after.LeafEntries || d.Height != after.Height {
		t.Error("delta gauges must keep current values")
	}
	// An update is a delete+insert pair; the histogram's bucket sum
	// matches its count.
	u, _ := after.Op("update")
	var bsum uint64
	for _, b := range u.Buckets {
		bsum += b
	}
	if bsum != u.Count || u.Count != 150 {
		t.Errorf("update bucket sum = %d, count = %d, want 150", bsum, u.Count)
	}
	if u.Mean() <= 0 {
		t.Errorf("update mean = %v", u.Mean())
	}
}

// TestNearestPastTimeError pins the satellite fix: like Timeslice, a
// Nearest query must reject a query time before the current time
// instead of silently computing positions in the past.
func TestNearestPastTimeError(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Update(1, Point{Pos: Vec{500, 500}, Time: 0, Expires: 100}, 0)

	_, err = tr.Nearest(Vec{500, 500}, 5, 1, 10)
	if err == nil {
		t.Fatal("Nearest accepted a query time before now")
	}
	_, terr := tr.Timeslice(Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}, 5, 10)
	if terr == nil {
		t.Fatal("Timeslice accepted a query time before now")
	}
	// Same error shape as Timeslice.
	if !strings.Contains(err.Error(), "precedes current time") || err.Error() != terr.Error() {
		t.Errorf("Nearest error %q, want the Timeslice shape %q", err, terr)
	}
	// A valid call still works, and the failure was counted.
	if _, err := tr.Nearest(Vec{500, 500}, 10, 1, 10); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Metrics().Op("nearest")
	if n.Count != 2 || n.Errors != 1 {
		t.Errorf("nearest op = %+v, want 2 calls, 1 error", n)
	}
	// A query value of no known kind is refused, not run.
	if _, _, err := tr.Query(Query{Kind: QueryNearest + 1, At: 10}, 10); err == nil {
		t.Error("Query ran a query of unknown kind")
	}
}

func TestWriteMetricsAndHandler(t *testing.T) {
	tr, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 300; i++ {
		if err := tr.Update(uint32(i), Point{Pos: Vec{float64(i % 1000), float64(i / 3 % 1000)}, Time: 0, Expires: 1000}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, series := range []string{
		"rexp_buffer_reads_total", "rexp_split_total", "rexp_forced_reinsert_total",
		"rexp_condense_total", "rexp_expired_purged_total", "rexp_height",
		"rexp_op_duration_seconds_count{op=\"update\"}",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %s", series)
		}
	}

	srv := httptest.NewServer(tr.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(served.String(), "rexp_op_duration_seconds_count{op=\"update\"} 300") {
		t.Error("served metrics do not reflect the 300 updates")
	}
}

// captureLog redirects the standard logger, without its timestamp, to
// the returned buffer for the rest of the test.  Tests that set a 1ns
// SlowOpThreshold call it to keep the log lines out of the test output.
func captureLog(t *testing.T) *bytes.Buffer {
	var buf bytes.Buffer
	out, flags := log.Writer(), log.Flags()
	log.SetOutput(&buf)
	log.SetFlags(0)
	t.Cleanup(func() { log.SetOutput(out); log.SetFlags(flags) })
	return &buf
}

// slowThreshold returns the slow_threshold_ns that h's
// /debug/rexp/traces reports.
func slowThreshold(t *testing.T, h http.Handler) int64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/rexp/traces", nil))
	var resp struct {
		SlowThreshold int64 `json:"slow_threshold_ns"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.SlowThreshold
}

// TestSlowOpLog checks SlowOpThreshold's one path on a stand-alone
// tree: an operation at least that slow is logged once, unlabelled,
// and the flight recorder's slow ring uses the same threshold, else
// 10ms.  TestShardedHookTags checks the sharded labels.
func TestSlowOpLog(t *testing.T) {
	logged := captureLog(t)
	opts := DefaultOptions()
	opts.SlowOpThreshold = time.Nanosecond
	opts.FlightRecorder = 8
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Update(1, Point{Pos: Vec{1, 1}, Expires: 100}, 0); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^rexptree: slow update: \S+ \(threshold 1ns\)\n$`)
	if got := logged.String(); !line.MatchString(got) {
		t.Errorf("stand-alone slow log = %q, want one line matching %s", got, line)
	}
	if got := slowThreshold(t, tr.TraceHandler()); got != 1 {
		t.Errorf("slow_threshold_ns = %d, want SlowOpThreshold (1)", got)
	}

	plain := DefaultOptions()
	plain.FlightRecorder = 8
	rt, err := Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := slowThreshold(t, rt.TraceHandler()); got != int64(10*time.Millisecond) {
		t.Errorf("slow_threshold_ns without SlowOpThreshold = %d, want 10ms", got)
	}
}

// TestShardedHookTags checks a ShardedTree's slow operations are logged
// tagged with where they ran: once per shard under shard<i>/ and once
// for the front end under fanout/.  The front end's flight recorder
// reports the same SlowOpThreshold.
func TestShardedHookTags(t *testing.T) {
	logged := captureLog(t)
	opts := DefaultOptions()
	opts.SlowOpThreshold = time.Nanosecond
	opts.FlightRecorder = 8
	s, err := OpenSharded(ShardedOptions{Options: opts, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateBatch(testWorkload(1000, 21), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Window(Rect{Lo: Vec{0, 0}, Hi: Vec{900, 900}}, 1, 10, 0); err != nil {
		t.Fatal(err)
	}
	// One batch group and one window visit per shard, each one operation.
	got := logged.String()
	for _, op := range []string{"update_batch", "window"} {
		for _, label := range []string{"shard0/", "shard1/", "shard2/", "shard3/", "fanout/"} {
			re := regexp.MustCompile(`(?m)^rexptree: slow ` + label + op + `: \S+ \(threshold 1ns\)$`)
			if n := len(re.FindAllString(got, -1)); n != 1 {
				t.Errorf("%d slow-log lines for %s%s, want 1:\n%s", n, label, op, got)
			}
		}
	}
	if got := slowThreshold(t, s.TraceHandler()); got != 1 {
		t.Errorf("sharded slow_threshold_ns = %d, want SlowOpThreshold (1)", got)
	}
}

// TestMetricsConcurrency hammers the tree with parallel updates and
// queries while snapshots and expositions are read — the counters must
// stay consistent and race-free (run under -race in CI).
func TestMetricsConcurrency(t *testing.T) {
	opts := DefaultOptions()
	opts.SlowOpThreshold = time.Hour // every operation reads the threshold
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const writers, queriers, perG = 4, 2, 200
	world := Rect{Lo: Vec{0, 0}, Hi: Vec{1000, 1000}}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := uint32(w*perG + i)
				if err := tr.Update(id, Point{Pos: Vec{float64(id % 1000), float64(id * 3 % 1000)}, Time: 0, Expires: 1e6}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := tr.Window(world, 0, 10, 0); err != nil {
					t.Error(err)
					return
				}
				_ = tr.Metrics()
			}
		}()
	}
	// A scraper reading the exposition concurrently with the load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := tr.WriteMetrics(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	m := tr.Metrics()
	u, _ := m.Op("update")
	if u.Count != writers*perG {
		t.Errorf("update count = %d, want %d", u.Count, writers*perG)
	}
	w, _ := m.Op("window")
	if w.Count != queriers*perG {
		t.Errorf("window count = %d, want %d", w.Count, queriers*perG)
	}
	if m.LeafEntries != writers*perG {
		t.Errorf("leaf entries = %d, want %d", m.LeafEntries, writers*perG)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
