package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rexptree"
)

// newTestServer builds an in-memory 2-shard index behind a Server and
// an httptest listener.  mod, when non-nil, adjusts the server config.
func newTestServer(t *testing.T, mod func(*Config)) (*httptest.Server, *Server) {
	t.Helper()
	opts := rexptree.DefaultOptions()
	opts.FlightRecorder = 16
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Index: ix, RuntimeMetrics: true}
	if mod != nil {
		mod(&cfg)
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.CloseIndex()
	})
	return hs, srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decodeInto(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
}

// TestEndpointsRoundTrip drives every endpoint once: ingest via update
// and batch, all four query types (plain and EXPLAIN), object lookup,
// stats, probes, metrics and traces.
func TestEndpointsRoundTrip(t *testing.T) {
	hs, _ := newTestServer(t, nil)

	// One routed update.
	resp, raw := postJSON(t, hs.URL+"/v1/update",
		`{"id":1,"pos":[100,200],"vel":[1,0],"time":0,"expires":1000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, raw)
	}
	var ack updateResponse
	decodeInto(t, raw, &ack)
	if !ack.OK {
		t.Fatalf("update not acknowledged: %s", raw)
	}

	// A streamed batch with updates and one delete.
	var b strings.Builder
	for id := 2; id <= 40; id++ {
		fmt.Fprintf(&b, `{"id":%d,"pos":[%d,%d],"vel":[0.5,-0.5],"time":1,"expires":1000}`+"\n", id, id*10, id*10)
	}
	b.WriteString(`{"op":"delete","id":40,"time":1}` + "\n")
	resp, raw = postJSON(t, hs.URL+"/v1/batch", b.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var back batchResponse
	decodeInto(t, raw, &back)
	if back.Applied != 39 || back.Deleted != 1 {
		t.Fatalf("batch ack: %+v", back)
	}

	// Timeslice over the whole world finds everything still live.
	resp, raw = get(t, hs.URL+"/v1/timeslice?lo=-10000,-10000&hi=10000,10000&at=%2B1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeslice: %d %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	decodeInto(t, raw, &qr)
	if qr.Count != 39 { // 40 inserted, one deleted
		t.Fatalf("timeslice count %d, want 39 (%s)", qr.Count, raw)
	}
	// Results are ordered by ascending id.
	for i := 1; i < len(qr.Results); i++ {
		if qr.Results[i-1].ID >= qr.Results[i].ID {
			t.Fatalf("results not id-ordered: %v >= %v", qr.Results[i-1].ID, qr.Results[i].ID)
		}
	}

	// Window and moving, with relative times.
	resp, raw = get(t, hs.URL+"/v1/window?lo=0,0&hi=500,500&t1=%2B0&t2=%2B10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d %s", resp.StatusCode, raw)
	}
	resp, raw = get(t, hs.URL+"/v1/moving?lo1=0,0&hi1=100,100&lo2=50,50&hi2=150,150&t1=%2B0&t2=%2B10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("moving: %d %s", resp.StatusCode, raw)
	}

	// Nearest with EXPLAIN: results plus a trace with the shard table.
	resp, raw = get(t, hs.URL+"/v1/nearest?pos=100,200&k=5&at=%2B0&explain=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nearest: %d %s", resp.StatusCode, raw)
	}
	qr = queryResponse{}
	decodeInto(t, raw, &qr)
	if qr.Count != 5 || qr.Trace == nil || qr.Trace.Op != "nearest" {
		t.Fatalf("nearest explain: count=%d trace=%+v", qr.Count, qr.Trace)
	}
	if len(qr.Trace.Shards) != 2 {
		t.Fatalf("explain shard table has %d rows, want 2", len(qr.Trace.Shards))
	}

	// EXPLAIN on a window too.
	resp, raw = get(t, hs.URL+"/v1/window?lo=0,0&hi=1000,1000&t1=%2B0&t2=%2B5&explain=true")
	qr = queryResponse{}
	decodeInto(t, raw, &qr)
	if qr.Trace == nil || qr.Trace.Op != "window" {
		t.Fatalf("window explain missing trace: %s", raw)
	}

	// Object lookup: present, then deleted -> 404.
	resp, raw = get(t, hs.URL+"/v1/object?id=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object: %d %s", resp.StatusCode, raw)
	}
	var row resultJSON
	decodeInto(t, raw, &row)
	if row.ID != 1 {
		t.Fatalf("object row: %s", raw)
	}
	resp, _ = get(t, hs.URL+"/v1/object?id=40")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted object: %d, want 404", resp.StatusCode)
	}

	// Stats.
	resp, raw = get(t, hs.URL+"/v1/stats")
	var st statsResponse
	decodeInto(t, raw, &st)
	if st.Objects != 39 || st.Shards != 2 || st.Partition != "hash" {
		t.Fatalf("stats: %s", raw)
	}

	// Probes.
	if resp, _ = get(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp, _ = get(t, hs.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	// Metrics exposition: aggregate, per-shard and runtime families.
	_, raw = get(t, hs.URL+"/metrics")
	for _, want := range []string{"rexp_op_duration_seconds", "rexp_shard0_buffer_reads_total", "rexp_go_goroutines"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Flight-recorder endpoint.
	_, raw = get(t, hs.URL+"/debug/rexp/traces")
	var traces struct {
		Enabled bool              `json:"enabled"`
		Recent  []json.RawMessage `json:"recent"`
	}
	decodeInto(t, raw, &traces)
	if !traces.Enabled || len(traces.Recent) == 0 {
		t.Fatalf("traces: enabled=%v recent=%d", traces.Enabled, len(traces.Recent))
	}
}

// TestMalformedRequests asserts the 400 paths and their exact messages:
// broken JSON, wrong dimensionality, every query parameter of every
// kind missing or malformed (a bad now is reported before the kind's
// own parameters, which are reported in order), and each query
// validator's refusal.  The index clock is moved to 5 first, so a time
// of 0 is in the past.
func TestMalformedRequests(t *testing.T) {
	hs, _ := newTestServer(t, nil)
	if resp, raw := postJSON(t, hs.URL+"/v1/update", `{"id":9,"pos":[1,2],"time":5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("clock update: %d %s", resp.StatusCode, raw)
	}

	cases := []struct {
		name string
		post string // body for a POST; "" sends a GET
		path string
		want string
	}{
		{"update broken json", `{"id":`, "/v1/update", "malformed body: unexpected EOF"},
		{"update unknown field", `{"id":1,"pos":[1,2],"wat":3}`, "/v1/update", `malformed body: json: unknown field "wat"`},
		{"update wrong dims", `{"id":1,"pos":[1,2,3],"time":0}`, "/v1/update", "pos has 3 coordinates, index has 2 dimensions"},
		{"update with delete op", `{"op":"delete","id":1,"pos":[1,2]}`, "/v1/update", `op "delete" not valid on /v1/update (use /v1/delete or /v1/batch)`},
		{"batch broken line", `{"id":1,"pos":[1,2],"time":0}` + "\n" + `{"id":2,`, "/v1/batch", "line 2: unexpected end of JSON input"},
		{"batch unknown op", `{"op":"upsert","id":1,"pos":[1,2]}`, "/v1/batch", `line 1: unknown op "upsert"`},

		{"timeslice missing rect", "", "/v1/timeslice?at=%2B0", "lo: missing coordinates"},
		{"timeslice bad lo", "", "/v1/timeslice?lo=1&hi=1,1&at=%2B0", `lo: "1" has 1 coordinates, index has 2 dimensions`},
		{"timeslice bad hi", "", "/v1/timeslice?lo=0,0&hi=1,x&at=%2B0", `hi: coordinate "x" is not a finite number`},
		{"timeslice missing at", "", "/v1/timeslice?lo=0,0&hi=1,1", "at: missing time"},
		{"timeslice bad at", "", "/v1/timeslice?lo=0,0&hi=1,1&at=soon", `at: time "soon" is not a finite number`},
		{"timeslice bad now", "", "/v1/timeslice?lo=0,0&hi=1,1&at=%2B0&now=x", `now: time "x" is not a finite number`},
		{"timeslice past at", "", "/v1/timeslice?lo=0,0&hi=1,1&at=0", "rexptree: query time 0 precedes current time 5"},
		{"timeslice past at explained", "", "/v1/timeslice?lo=0,0&hi=1,1&at=0&explain=1", "rexptree: query time 0 precedes current time 5"},

		{"window bad now first", "", "/v1/window?now=x", `now: time "x" is not a finite number`},
		{"window bad lo", "", "/v1/window?lo=a,0&hi=1,1&t1=%2B0&t2=%2B5", `lo: coordinate "a" is not a finite number`},
		{"window missing hi", "", "/v1/window?lo=0,0&t1=%2B0&t2=%2B5", "hi: missing coordinates"},
		{"window missing t1", "", "/v1/window?lo=0,0&hi=1,1&t2=%2B5", "t1: missing time"},
		{"window bad t2", "", "/v1/window?lo=0,0&hi=1,1&t1=%2B0&t2=NaN", `t2: time "NaN" is not a finite number`},
		{"window bad now", "", "/v1/window?lo=0,0&hi=1,1&t1=%2B0&t2=%2B5&now=%2Binf", `now: time "+inf" is not a finite number`},
		{"window t2 before t1", "", "/v1/window?lo=0,0&hi=1,1&t1=%2B10&t2=%2B5", "rexptree: invalid query window [15, 10] at time 5"},
		{"window t1 before now", "", "/v1/window?lo=0,0&hi=1,1&t1=0&t2=10", "rexptree: invalid query window [0, 10] at time 5"},
		{"window t1 before now explained", "", "/v1/window?lo=0,0&hi=1,1&t1=0&t2=10&explain=1", "rexptree: invalid query window [0, 10] at time 5"},

		{"moving missing lo1", "", "/v1/moving?t1=%2B0&t2=%2B5", "lo1: missing coordinates"},
		{"moving bad hi1", "", "/v1/moving?lo1=0,0&hi1=1&lo2=0,0&hi2=1,1&t1=%2B0&t2=%2B5", `hi1: "1" has 1 coordinates, index has 2 dimensions`},
		{"moving bad lo2", "", "/v1/moving?lo1=0,0&hi1=1,1&lo2=0,y&hi2=1,1&t1=%2B0&t2=%2B5", `lo2: coordinate "y" is not a finite number`},
		{"moving missing hi2", "", "/v1/moving?lo1=0,0&hi1=1,1&lo2=0,0&t1=%2B0&t2=%2B5", "hi2: missing coordinates"},
		{"moving bad t1", "", "/v1/moving?lo1=0,0&hi1=1,1&lo2=0,0&hi2=1,1&t1=later&t2=%2B5", `t1: time "later" is not a finite number`},
		{"moving missing t2", "", "/v1/moving?lo1=0,0&hi1=1,1&lo2=0,0&hi2=1,1&t1=%2B0", "t2: missing time"},
		{"moving bad now", "", "/v1/moving?lo1=0,0&hi1=1,1&lo2=0,0&hi2=1,1&t1=%2B0&t2=%2B5&now=%2Bx", `now: time "+x" is not a finite number`},
		{"moving empty interval", "", "/v1/moving?lo1=0,0&hi1=1,1&lo2=0,0&hi2=1,1&t1=%2B5&t2=%2B5", "rexptree: invalid moving query interval [10, 10] at time 5"},
		{"moving t1 before now", "", "/v1/moving?lo1=0,0&hi1=1,1&lo2=0,0&hi2=1,1&t1=1&t2=10", "rexptree: invalid moving query interval [1, 10] at time 5"},

		{"nearest missing pos", "", "/v1/nearest?k=1", "pos: missing coordinates"},
		{"nearest bad pos", "", "/v1/nearest?pos=1,2,3&k=1", `pos: "1,2,3" has 3 coordinates, index has 2 dimensions`},
		{"nearest bad k", "", "/v1/nearest?pos=0,0&k=-3&at=%2B0", `k: "-3" is not a positive integer`},
		{"nearest missing k", "", "/v1/nearest?pos=0,0", `k: "" is not a positive integer`},
		{"nearest word k", "", "/v1/nearest?pos=0,0&k=ten", `k: "ten" is not a positive integer`},
		{"nearest bad at", "", "/v1/nearest?pos=0,0&k=1&at=x", `at: time "x" is not a finite number`},
		{"nearest bad now", "", "/v1/nearest?pos=0,0&k=1&now=1e999", `now: time "1e999" is not a finite number`},
		{"nearest past at", "", "/v1/nearest?pos=0,0&k=1&at=0", "rexptree: query time 0 precedes current time 5"},
		{"nearest past at explained", "", "/v1/nearest?pos=0,0&k=1&at=0&explain=1", "rexptree: query time 0 precedes current time 5"},

		{"object bad id", "", "/v1/object?id=banana", `id: "banana" is not an object id`},
		{"object bad now", "", "/v1/object?id=1&now=x", `now: time "x" is not a finite number`},
		{"bad timeout param", "", "/v1/nearest?pos=0,0&k=1&at=%2B0&timeout=banana", `invalid timeout "banana"`},
	}
	for _, tc := range cases {
		var resp *http.Response
		var raw []byte
		if tc.post != "" {
			resp, raw = postJSON(t, hs.URL+tc.path, tc.post)
		} else {
			resp, raw = get(t, hs.URL+tc.path)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: body is not an error envelope: %s", tc.name, raw)
		} else if er.Error != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, er.Error, tc.want)
		}
	}
}

// TestOverload429 fills the single ingest slot with a stalled stream
// and asserts the next batch is refused with 429 + Retry-After while
// single updates and queries keep flowing.
func TestOverload429(t *testing.T) {
	hs, _ := newTestServer(t, func(c *Config) { c.MaxInFlight = 1; c.RetryAfter = 2 * time.Second })

	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", hs.URL+"/v1/batch", pr)
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// The first line admits the stream into its slot; the unclosed pipe
	// keeps it in flight.
	if _, err := pw.Write([]byte(`{"id":1,"pos":[1,2],"time":0}` + "\n")); err != nil {
		t.Fatal(err)
	}

	// Wait until the slot is actually held.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, raw := postJSON(t, hs.URL+"/v1/batch", `{"id":2,"pos":[3,4],"time":0}`)
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra != "2" {
				t.Errorf("Retry-After %q, want \"2\"", ra)
			}
			var er errorResponse
			decodeInto(t, raw, &er)
			if !strings.Contains(er.Error, "overloaded") {
				t.Errorf("429 body: %s", raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw a 429 while the ingest slot was held")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Routed updates and queries are not subject to the batch gate.
	if resp, raw := postJSON(t, hs.URL+"/v1/update", `{"id":3,"pos":[5,6],"time":0}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("update during overload: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := get(t, hs.URL+"/v1/timeslice?lo=0,0&hi=10,10&at=%2B0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query during overload: %d", resp.StatusCode)
	}

	pw.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestDeadline504 stalls an ingest stream past its ?timeout= deadline
// and expects 504.
func TestDeadline504(t *testing.T) {
	hs, _ := newTestServer(t, nil)

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest("POST", hs.URL+"/v1/batch?timeout=75ms", pr)
	if err != nil {
		t.Fatal(err)
	}
	go pw.Write([]byte(`{"id":1,"pos":[1,2],"time":0}` + "\n")) // never closed
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled batch: %d %s, want 504", resp.StatusCode, raw)
	}
	var er errorResponse
	decodeInto(t, raw, &er)
	if !strings.Contains(er.Error, "deadline") {
		t.Fatalf("504 body: %s", raw)
	}
}

// TestDrainSemantics: after Drain, mutations are refused with 503 +
// Retry-After, /readyz flips to 503, and queries still answer.
func TestDrainSemantics(t *testing.T) {
	hs, srv := newTestServer(t, nil)
	if resp, raw := postJSON(t, hs.URL+"/v1/update", `{"id":1,"pos":[1,2],"time":0,"expires":100}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain update: %d %s", resp.StatusCode, raw)
	}

	srv.Drain()

	resp, raw := postJSON(t, hs.URL+"/v1/update", `{"id":2,"pos":[3,4],"time":0}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain update: %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, _ = postJSON(t, hs.URL+"/v1/batch", `{"id":2,"pos":[3,4],"time":0}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain batch: %d", resp.StatusCode)
	}
	resp, _ = get(t, hs.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz: %d", resp.StatusCode)
	}
	if resp, _ = get(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain healthz: %d", resp.StatusCode)
	}
	resp, raw = get(t, hs.URL+"/v1/timeslice?lo=0,0&hi=10,10&at=%2B0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain query: %d %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	decodeInto(t, raw, &qr)
	if qr.Count != 1 {
		t.Fatalf("post-drain query count %d, want 1", qr.Count)
	}
}

// TestDrainLosesNoAcknowledgedUpdate hammers a durable server with
// concurrent single updates, drains midway, and verifies every
// acknowledged id is present after closing and reopening the files —
// the in-process version of the daemon's SIGTERM guarantee.
func TestDrainLosesNoAcknowledgedUpdate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "idx")
	opts := rexptree.DefaultOptions()
	opts.Path = base
	opts.Durability = rexptree.DurabilityOnCommit
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Index: ix})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var (
		mu    sync.Mutex
		acked []uint32
		next  atomic.Uint32
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := next.Add(1)
				body := fmt.Sprintf(`{"id":%d,"pos":[%d,%d],"vel":[1,1],"time":0,"expires":10000}`, id, id%1000, id%1000)
				resp, err := http.Post(hs.URL+"/v1/update", "application/json", strings.NewReader(body))
				if err != nil {
					return
				}
				ok := resp.StatusCode == http.StatusOK
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if ok {
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				}
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	srv.Drain() // concurrent with in-flight updates: 503s begin, admitted ones finish
	close(stop)
	wg.Wait()
	if err := srv.CloseIndex(); err != nil {
		t.Fatal(err)
	}

	if len(acked) == 0 {
		t.Fatal("no update was ever acknowledged")
	}
	re, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, id := range acked {
		if _, ok := re.Get(id, 0); !ok {
			t.Fatalf("acknowledged update %d missing after drain + reopen (%d acked)", id, len(acked))
		}
	}
}

// TestMixedLoadSmoke exercises concurrent batches, updates and queries
// for the race detector.
func TestMixedLoadSmoke(t *testing.T) {
	hs, _ := newTestServer(t, func(c *Config) { c.MaxInFlight = 2; c.MaxBatch = 50 })

	var wg sync.WaitGroup
	stop := time.After(300 * time.Millisecond)
	done := make(chan struct{})
	go func() { <-stop; close(done) }()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var b strings.Builder
				for j := 0; j < 20; j++ {
					fmt.Fprintf(&b, `{"id":%d,"pos":[%g,%g],"vel":[1,0],"time":%d,"expires":100000}`+"\n",
						rng.Intn(500)+1, rng.Float64()*1000, rng.Float64()*1000, i)
				}
				resp, err := http.Post(hs.URL+"/v1/batch", "application/json", strings.NewReader(b.String()))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, u := range []string{
					"/v1/timeslice?lo=0,0&hi=1000,1000&at=%2B0",
					"/v1/window?lo=200,200&hi=800,800&t1=%2B0&t2=%2B10&explain=1",
					"/v1/nearest?pos=500,500&k=10&at=%2B0",
					"/metrics",
					"/debug/rexp/traces",
				} {
					resp, err := http.Get(hs.URL + u)
					if err != nil {
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
}

// TestNearestLostClockRace is a client that reads the clock, loses the
// race to a write and asks for a nearest query at "+0": the index clock
// is then past the query's now, and the query must still be answered,
// as the region queries are — first with the lost race forced (now= the
// clock read before the write), then under concurrent ingest.
func TestNearestLostClockRace(t *testing.T) {
	hs, srv := newTestServer(t, nil)
	body := func(rng *rand.Rand, tm float64) string {
		var b strings.Builder
		for j := 0; j < 20; j++ {
			fmt.Fprintf(&b, `{"id":%d,"pos":[%g,%g],"vel":[1,-1],"time":%g,"expires":%g}`+"\n",
				rng.Intn(300)+1, rng.Float64()*1000, rng.Float64()*1000, tm, tm+50)
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(3))
	if resp, raw := postJSON(t, hs.URL+"/v1/batch", body(rng, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	stale := srv.ix.Now()
	if resp, raw := postJSON(t, hs.URL+"/v1/batch", body(rng, 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	for _, u := range []string{
		"/v1/nearest?pos=500,500&k=10&at=%%2B0&now=%v",
		"/v1/timeslice?lo=0,0&hi=1000,1000&at=%%2B0&now=%v",
	} {
		resp, raw := get(t, hs.URL+fmt.Sprintf(u, stale))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", fmt.Sprintf(u, stale), resp.StatusCode, raw)
		}
		var qr queryResponse
		decodeInto(t, raw, &qr)
		if qr.Count == 0 {
			t.Fatalf("%s: nothing found (%s)", fmt.Sprintf(u, stale), raw)
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 40; i++ {
			resp, err := http.Post(hs.URL+"/v1/batch", "application/json", strings.NewReader(body(rng, 3+float64(i)/8)))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				u := fmt.Sprintf("%s/v1/nearest?pos=500,500&k=10&at=%%2B0&now=%v", hs.URL, srv.ix.Now())
				resp, err := http.Get(u)
				if err != nil {
					t.Error(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %d %s", u, resp.StatusCode, raw)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// waitReshardDone polls /v1/reshard/status until nothing is in flight.
func waitReshardDone(t *testing.T, base string) reshardStatusResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, raw := get(t, base+"/v1/reshard/status")
		var st reshardStatusResponse
		decodeInto(t, raw, &st)
		if !st.InFlight {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("reshard still in flight: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReshardEndpoints drives the live-reshard API end to end: idle
// status, no-op cancel, up-front spec refusals, then a hash->speed
// reshard whose terminal status and post-cutover /v1/stats reflect the
// new layout with every object intact.
func TestReshardEndpoints(t *testing.T) {
	hs, _ := newTestServer(t, nil)

	var b strings.Builder
	for id := 1; id <= 600; id++ {
		fmt.Fprintf(&b, `{"id":%d,"pos":[%d,%d],"vel":[%g,0],"time":0,"expires":100000}`+"\n",
			id, id%100*10, id/100*10, float64(id%30)/10)
	}
	if resp, raw := postJSON(t, hs.URL+"/v1/batch", b.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}

	// Nothing in flight yet: status is idle, cancel is a no-op.
	_, raw := get(t, hs.URL+"/v1/reshard/status")
	var st reshardStatusResponse
	decodeInto(t, raw, &st)
	if st.InFlight || st.Generation != 0 {
		t.Fatalf("idle status: %s", raw)
	}
	var cancel struct {
		Canceled bool `json:"canceled"`
	}
	_, raw = postJSON(t, hs.URL+"/v1/reshard/cancel", "")
	decodeInto(t, raw, &cancel)
	if cancel.Canceled {
		t.Fatalf("cancel with nothing in flight: %s", raw)
	}

	// Bad specs are refused before anything starts.
	for _, body := range []string{
		`{"shards":2,"policy":"bogus"}`,
		`{"shards":-1,"policy":"hash"}`,
		`{"shards":3,"policy":"speed","speed_bands":[2.0,1.0]}`,
		`{"shards":2,"policy":"hash","speed_bands":[1.0]}`,
		`{"shards":`,
	} {
		resp, raw := postJSON(t, hs.URL+"/v1/reshard", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d (%s), want 400", body, resp.StatusCode, raw)
		}
	}
	if st = waitReshardDone(t, hs.URL); st.Generation != 0 {
		t.Fatalf("a refused spec resharded anyway: %+v", st)
	}

	// A live reshard to 3 speed-banded shards.
	resp, raw := postJSON(t, hs.URL+"/v1/reshard", `{"shards":3,"policy":"speed","speed_bands":[0.9,1.9]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reshard: %d %s", resp.StatusCode, raw)
	}
	st = waitReshardDone(t, hs.URL)
	if st.LastError != "" || st.Generation != 1 || st.Shards != 3 || st.Policy != "speed" {
		t.Fatalf("terminal status: %+v", st)
	}

	// The served layout switched and every object survived.
	_, raw = get(t, hs.URL+"/v1/stats")
	var stats statsResponse
	decodeInto(t, raw, &stats)
	if stats.Shards != 3 || stats.Partition != "speed" || stats.Generation != 1 || stats.Objects != 600 {
		t.Fatalf("stats after reshard: %s", raw)
	}
	resp, raw = get(t, hs.URL+"/v1/timeslice?lo=-10000,-10000&hi=10000,10000&at=%2B1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeslice after reshard: %d %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	decodeInto(t, raw, &qr)
	if qr.Count != 600 {
		t.Fatalf("timeslice after reshard: count %d, want 600", qr.Count)
	}
}

// TestReshardConflictAndCancel starts a reshard over a larger index and
// probes the 409 path and the cancel endpoint while it is in flight.
// Both probes are defensive about the engine finishing first: the
// assertions only tighten when the race was actually won.
func TestReshardConflictAndCancel(t *testing.T) {
	hs, _ := newTestServer(t, nil)

	var b strings.Builder
	for id := 1; id <= 5000; id++ {
		fmt.Fprintf(&b, `{"id":%d,"pos":[%g,%g],"vel":[%g,0.5],"time":0,"expires":100000}`+"\n",
			id, float64(id%1000), float64(id/10), float64(id%20)/10)
	}
	if resp, raw := postJSON(t, hs.URL+"/v1/batch", b.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}

	resp, raw := postJSON(t, hs.URL+"/v1/reshard", `{"shards":4,"policy":"hash"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reshard: %d %s", resp.StatusCode, raw)
	}

	// A second reshard while the first is in flight is refused with 409.
	resp, raw = postJSON(t, hs.URL+"/v1/reshard", `{"shards":2,"policy":"hash"}`)
	switch resp.StatusCode {
	case http.StatusConflict:
		var er errorResponse
		decodeInto(t, raw, &er)
		if !strings.Contains(er.Error, "in flight") {
			t.Errorf("409 body: %s", raw)
		}
	case http.StatusAccepted:
		t.Log("first reshard finished before the conflict probe; skipping 409 assertion")
	default:
		t.Fatalf("second reshard: %d %s", resp.StatusCode, raw)
	}

	// Cancel whatever is still running; it must drain to idle either way.
	_, raw = postJSON(t, hs.URL+"/v1/reshard/cancel", "")
	var cancel struct {
		Canceled bool `json:"canceled"`
	}
	decodeInto(t, raw, &cancel)
	st := waitReshardDone(t, hs.URL)
	if cancel.Canceled && st.LastError != "" && !strings.Contains(st.LastError, "canceled") {
		t.Fatalf("terminal status after cancel: %+v", st)
	}

	// Every object is still served, whichever generation won.
	resp, raw = get(t, hs.URL+"/v1/timeslice?lo=-10000,-10000&hi=10000,10000&at=%2B1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeslice: %d %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	decodeInto(t, raw, &qr)
	if qr.Count != 5000 {
		t.Fatalf("timeslice count %d, want 5000", qr.Count)
	}
}
