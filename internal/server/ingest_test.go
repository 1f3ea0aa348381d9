package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"rexptree"
	"rexptree/internal/geom"
	"rexptree/internal/workload"
)

// streamIndex opens a 4-shard hash-partitioned memory index loaded with
// the first six update intervals of the paper's §5.1 stream (network
// scenario, UI = 60) over the given number of objects, and returns the
// stream's next reports as 100-line /v1/batch bodies, in the benchmark's
// wire form.
func streamIndex(tb testing.TB, objects, bodies, recorder int) (*rexptree.ShardedTree, [][]byte) {
	tb.Helper()
	const ui = 60
	opts := rexptree.DefaultOptions()
	opts.FlightRecorder = recorder
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	gen, err := workload.NewGenerator(workload.Params{Seed: 1, Objects: objects, Insertions: 1 << 30, UI: ui})
	if err != nil {
		tb.Fatal(err)
	}
	var (
		batch []rexptree.Report
		body  []byte
		lines int
		out   [][]byte
	)
	for len(out) < bodies {
		op, ok := gen.Next()
		if !ok {
			tb.Fatal("workload stream exhausted")
		}
		if op.Kind != workload.OpInsert {
			continue
		}
		at := op.Point.At(op.Time)
		p := rexptree.Point{Pos: rexptree.Vec(at), Vel: rexptree.Vec(op.Point.Vel), Time: op.Time}
		if geom.IsFinite(op.Point.TExp) {
			p.Expires = op.Point.TExp
		}
		if op.Time < 6*ui {
			batch = append(batch, rexptree.Report{ID: op.OID, Point: p})
			if len(batch) == 100 {
				if err := ix.UpdateBatch(batch, op.Time); err != nil {
					tb.Fatal(err)
				}
				batch = batch[:0]
			}
			continue
		}
		body = appendLine(body, op.OID, p)
		if lines++; lines == 100 {
			out = append(out, body)
			body, lines = nil, 0
		}
	}
	if err := ix.UpdateBatch(batch, 6*ui); err != nil {
		tb.Fatal(err)
	}
	return ix, out
}

// appendLine appends one 2-D update line as the benchmark writes it.
func appendLine(b []byte, id uint32, p rexptree.Point) []byte {
	f := func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'g', -1, 64) }
	b = fmt.Appendf(b, `{"id":%d,"pos":[`, id)
	b = append(f(append(f(b, p.Pos[0]), ','), p.Pos[1]), `],"vel":[`...)
	b = append(f(append(f(b, p.Vel[0]), ','), p.Vel[1]), `],"time":`...)
	b = f(b, p.Time)
	if p.Expires != 0 {
		b = f(append(b, `,"expires":`...), p.Expires)
	}
	return append(b, "}\n"...)
}

// serveBatch sends body to srv's /v1/batch handler in process.
func serveBatch(srv *Server, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
	return w
}

// TestIngestAllocs pins what one 100-record body of the §5.1 stream
// costs in allocations through Server.ServeHTTP on 4 hash shards, the
// in-process request and recorder included, with the flight recorder
// off and on.  The bound is the measured count plus a little headroom
// (it was 1 079 while every line went through json.Unmarshal, every
// body allocated its scanner buffer and chunk, and a batch grew one
// slice per shard).  Like TestQueryAllocsRecorderOff it holds for a
// plain build only: under the race detector sync.Pool drops items, so
// there the counts are logged, not judged.
func TestIngestAllocs(t *testing.T) {
	for _, c := range []struct {
		recorder int
		max      float64
	}{{0, 56}, {256, 60}} {
		ix, bodies := streamIndex(t, 2000, 8, c.recorder)
		srv := New(Config{Index: ix})
		i := 0
		allocs := testing.AllocsPerRun(20, func() { // one warm-up run first
			if w := serveBatch(srv, bodies[i%len(bodies)]); w.Code != http.StatusOK {
				t.Fatalf("batch: %d %s", w.Code, w.Body)
			}
			i++
		})
		t.Logf("100-record body, FlightRecorder %d: %.1f allocs", c.recorder, allocs)
		if allocs > c.max && !raceBuild() {
			t.Errorf("FlightRecorder %d: a body allocates %.1f objects, want <= %v", c.recorder, allocs, c.max)
		}
	}
}

// BenchmarkServedBatch is one 100-record /v1/batch body of the §5.1
// stream per op, through Server.ServeHTTP on a 4-shard hash-partitioned
// memory index preloaded with 20 000 objects, flight recorder off.
func BenchmarkServedBatch(b *testing.B) {
	ix, bodies := streamIndex(b, 20000, 64, 0)
	srv := New(Config{Index: ix})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveBatch(srv, bodies[i%len(bodies)]); w.Code != http.StatusOK {
			b.Fatalf("batch: %d %s", w.Code, w.Body)
		}
	}
}

// TestDrainWaitsForTimedOutBatch stalls /v1/batch bodies past their
// ?timeout= (answered 504, their ingest still running in the
// background with its pooled buffers and drain token), runs other
// bodies meanwhile, then drains while the stalled ones are finished.
// Drain must wait for them, and every line of every body must be
// stored as sent: a buffer handed to a second request while the first
// still reads into it would corrupt lines (and, under -race, be
// reported).
func TestDrainWaitsForTimedOutBatch(t *testing.T) {
	const stalled, live, perLive, lines = 4, 4, 10, 200
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: rexptree.DefaultOptions(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Index: ix, MaxInFlight: stalled + live, MaxBatch: 64})
	defer srv.CloseIndex()

	// Body b updates objects b*lines+1 .. (b+1)*lines to (id, b).
	body := func(b int) []byte {
		var out []byte
		for id := b*lines + 1; id <= (b+1)*lines; id++ {
			out = fmt.Appendf(out, `{"id":%d,"pos":[%d,%d],"time":0}`+"\n", id, id, b)
		}
		return out
	}

	pws := make([]*io.PipeWriter, stalled)
	rest := make([][]byte, stalled)
	var wg sync.WaitGroup
	for b := 0; b < stalled; b++ {
		full := body(b)
		half := len(full) / 2
		pr, pw := io.Pipe()
		pws[b], rest[b] = pw, full[half:]
		wg.Add(1)
		go func() {
			defer wg.Done()
			go pw.Write(full[:half])
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch?timeout=50ms", pr))
			if w.Code != http.StatusGatewayTimeout {
				t.Errorf("stalled body %d: %d %s, want 504", b, w.Code, w.Body)
			}
		}()
	}
	wg.Wait()

	for g := 0; g < live; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perLive; k++ {
				if w := serveBatch(srv, body(stalled+g*perLive+k)); w.Code != http.StatusOK {
					t.Errorf("batch: %d %s", w.Code, w.Body)
					return
				}
			}
		}()
	}
	wg.Wait()

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while timed-out batches were still being ingested")
	case <-time.After(100 * time.Millisecond):
	}
	for b, pw := range pws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pw.Write(rest[b])
			pw.Close()
		}()
	}
	wg.Wait()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the timed-out batches finished")
	}

	bodies := stalled + live*perLive
	if n := ix.Len(); n != bodies*lines {
		t.Fatalf("%d objects stored, want %d", n, bodies*lines)
	}
	for b := 0; b < bodies; b++ {
		for id := b*lines + 1; id <= (b+1)*lines; id++ {
			p, ok := ix.Get(uint32(id), 0)
			if !ok || p.Pos[0] != float64(id) || p.Pos[1] != float64(b) {
				t.Fatalf("object %d: stored %v (found %v), want pos (%d, %d)", id, p.Pos, ok, id, b)
			}
		}
	}
}

// raceBuild reports whether the test binary runs under the race detector.
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
