package repl

// End-to-end replication tests: a real leader index behind real HTTP
// handlers, a real follower applier, and a fault-injection proxy
// between them.  The acceptance bar throughout is fingerprint
// identity: after convergence the follower must answer all four query
// types (Timeslice, Window, Moving, Nearest) exactly like the leader
// at the follower's applied clock — or fail loudly trying.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rexptree"
	"rexptree/internal/server"
)

// --- leader/follower scaffolding ---------------------------------------

// testLeader is a durable sharded index with a replication hub and an
// HTTP server in front, plus an optional fault proxy.
type testLeader struct {
	ix   *rexptree.ShardedTree
	hub  *Hub
	srv  *httptest.Server
	mu   sync.Mutex
	clk  float64
	rng  *rand.Rand
	live map[uint32]bool
}

func newTestLeader(t *testing.T, shards int, retain int64, wrap func(http.Handler) http.Handler) *testLeader {
	t.Helper()
	opts := rexptree.DefaultOptions()
	opts.Path = filepath.Join(t.TempDir(), "leader")
	opts.Durability = rexptree.DurabilityOnCommit
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(ix, retain)
	mux := http.NewServeMux()
	mux.Handle("GET /v1/backup", hub.BackupHandler())
	mux.Handle("GET /v1/wal", hub.WALHandler())
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	l := &testLeader{ix: ix, hub: hub, srv: srv, rng: rand.New(rand.NewSource(7)), live: map[uint32]bool{}}
	t.Cleanup(func() {
		srv.Close()
		hub.Close()
		ix.Close()
	})
	return l
}

// mutate applies n random mutations (≈1 delete per 8 updates) and
// returns the leader clock afterwards.
func (l *testLeader) mutate(t *testing.T, n int) float64 {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < n; i++ {
		l.clk += 0.001
		id := uint32(l.rng.Intn(400) + 1)
		if l.live[id] && l.rng.Intn(8) == 0 {
			if _, err := l.ix.Delete(id, l.clk); err != nil {
				t.Fatal(err)
			}
			delete(l.live, id)
			continue
		}
		p := rexptree.Point{
			Time: l.clk,
			Pos:  [3]float64{l.rng.Float64() * 1000, l.rng.Float64() * 1000},
			Vel:  [3]float64{l.rng.Float64()*4 - 2, l.rng.Float64()*4 - 2},
		}
		if err := l.ix.Update(id, p, l.clk); err != nil {
			t.Fatal(err)
		}
		l.live[id] = true
	}
	return l.clk
}

func (l *testLeader) clock() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.clk
}

func newTestApplier(t *testing.T, leaderURL, dir string) *Applier {
	t.Helper()
	app, err := NewApplier(ApplierOptions{
		Leader:     leaderURL,
		Dir:        dir,
		MaxBackoff: 200 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Close() })
	return app
}

// waitCaughtUp blocks until the applier has applied everything the
// feed holds (or fails the test after a deadline).
func waitCaughtUp(t *testing.T, app *Applier, feed *Feed) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		head, _ := feed.Head()
		if app.AppliedLSN() >= head-1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, leader head %d", app.AppliedLSN(), head)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- fingerprinting ----------------------------------------------------

// queryFingerprint runs a fixed battery of all four query types plus
// point lookups and the stored count.  Region results are sorted by id
// (a sharded merge and a single traversal order the same set
// differently).
type queryFingerprint struct {
	queries [][]rexptree.Result
	points  []rexptree.Point
	present []bool
	size    int
}

func fingerprint(t *testing.T, ix *rexptree.ShardedTree, now float64) queryFingerprint {
	t.Helper()
	var fp queryFingerprint
	add := func(sorted bool, rs []rexptree.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if sorted {
			sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
		}
		if len(rs) == 0 {
			rs = nil
		}
		fp.queries = append(fp.queries, rs)
	}
	inner := rexptree.Rect{Lo: rexptree.Vec{120, 90}, Hi: rexptree.Vec{460, 430}}
	mid := rexptree.Rect{Lo: rexptree.Vec{310, 260}, Hi: rexptree.Vec{720, 650}}
	world := rexptree.Rect{Lo: rexptree.Vec{-100, -100}, Hi: rexptree.Vec{1100, 1100}}

	rs, err := ix.Timeslice(inner, now, now)
	add(true, rs, err)
	rs, err = ix.Timeslice(world, now+12, now)
	add(true, rs, err)
	rs, err = ix.Window(inner, now+1, now+9, now)
	add(true, rs, err)
	rs, err = ix.Window(mid, now, now+25, now)
	add(true, rs, err)
	rs, err = ix.Moving(inner, mid, now+2, now+14, now)
	add(true, rs, err)
	rs, err = ix.Nearest(rexptree.Vec{500, 500}, now+3, 12, now)
	add(false, rs, err)
	rs, err = ix.Nearest(rexptree.Vec{80, 910}, now, 5, now)
	add(false, rs, err)

	for id := uint32(1); id <= 400; id += 13 {
		p, ok := ix.Get(id, now)
		fp.points = append(fp.points, p)
		fp.present = append(fp.present, ok)
	}
	fp.size = ix.Len()
	return fp
}

func requireSameFingerprint(t *testing.T, got, want queryFingerprint, what string) {
	t.Helper()
	if got.size != want.size {
		t.Fatalf("%s: %d stored reports, leader has %d", what, got.size, want.size)
	}
	for i := range want.queries {
		if !reflect.DeepEqual(got.queries[i], want.queries[i]) {
			t.Fatalf("%s: query %d diverges: %d results vs leader's %d",
				what, i, len(got.queries[i]), len(want.queries[i]))
		}
	}
	if !reflect.DeepEqual(got.present, want.present) || !reflect.DeepEqual(got.points, want.points) {
		t.Fatalf("%s: point lookups diverge from the leader", what)
	}
}

// requireConverged waits for catch-up and demands fingerprint identity
// at the follower's applied clock.
func requireConverged(t *testing.T, l *testLeader, app *Applier, what string) {
	t.Helper()
	waitCaughtUp(t, app, l.hub.Feed())
	now := app.Index().Now()
	requireSameFingerprint(t, fingerprint(t, app.Index(), now), fingerprint(t, l.ix, now), what)
}

// --- the happy path and the acceptance criterion -----------------------

// TestReplFollowerConvergence is the issue's acceptance test: a
// follower bootstrapped over HTTP serves all four query types with
// results identical to the leader's at the follower's applied logical
// clock, while the leader keeps taking updates.
func TestReplFollowerConvergence(t *testing.T) {
	l := newTestLeader(t, 4, 0, nil)
	l.mutate(t, 1500)

	app := newTestApplier(t, l.srv.URL, t.TempDir())
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	app.Start()

	// Concurrent leader update stream while the follower tails.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			l.mutate(t, 100)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	<-done

	requireConverged(t, l, app, "bootstrapped follower")
	if st := app.Stats(); st.Bootstraps != 1 || st.FrameErrors != 0 {
		t.Fatalf("clean run stats: %+v", st)
	}
}

// TestReplFollowerCrashMidTail kills the applier mid-stream and
// resumes it from its durable cursor in a fresh process-equivalent: a
// new Applier over the same directory.  Replay must be idempotent.
func TestReplFollowerCrashMidTail(t *testing.T) {
	l := newTestLeader(t, 2, 0, nil)
	l.mutate(t, 800)
	dir := t.TempDir()

	app := newTestApplier(t, l.srv.URL, dir)
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	app.Start()
	l.mutate(t, 400)
	waitCaughtUp(t, app, l.hub.Feed())
	if err := app.Close(); err != nil { // "crash": stop mid-life, cursor persisted
		t.Fatal(err)
	}

	l.mutate(t, 400) // the follower misses these while down

	app2 := newTestApplier(t, l.srv.URL, dir)
	if err := app2.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := app2.Stats(); st.Bootstraps != 0 {
		t.Fatalf("resume re-bootstrapped: %+v", st)
	}
	app2.Start()
	requireConverged(t, l, app2, "resumed follower")
}

// TestReplFollowerCrashMidBootstrap leaves a torn partial replica (a
// bootstrap that died mid-stream) in the directory; the next applier
// must stage into a fresh file set, never reuse the partial one, and
// still converge.
func TestReplFollowerCrashMidBootstrap(t *testing.T) {
	l := newTestLeader(t, 2, 0, nil)
	l.mutate(t, 600)
	dir := t.TempDir()

	// A crashed bootstrap: partial staged files, no CURRENT pointer.
	if err := os.WriteFile(filepath.Join(dir, "replica-000003.s0"), []byte("torn partial page file"), 0o644); err != nil {
		t.Fatal(err)
	}

	app := newTestApplier(t, l.srv.URL, dir)
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(app.CurrentBase()); base != "replica-000004" {
		t.Fatalf("bootstrap staged into %s; must sequence past the torn replica-000003", base)
	}
	app.Start()
	requireConverged(t, l, app, "bootstrap after torn staging")
}

// TestReplLeaderCrashMidSnapshot cuts the backup stream partway
// through, twice.  Each cut must surface as a loud bootstrap failure
// (truncated stream, partial files removed), and the third, unbroken
// attempt must converge.
func TestReplLeaderCrashMidSnapshot(t *testing.T) {
	var failures atomic32
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/backup" && failures.next() < 2 {
				w.(http.Flusher).Flush()
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					// Leak a torn prefix, then kill the connection.
					conn.Write([]byte{0xFF, 0x00, 0x00, 0x00})
					conn.Close()
				}
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	l := newTestLeader(t, 2, 0, wrap)
	l.mutate(t, 600)

	dir := t.TempDir()
	app := newTestApplier(t, l.srv.URL, dir)
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := app.Stats(); st.FrameErrors == 0 {
		t.Fatalf("cut snapshots were not counted as frame errors: %+v", st)
	}
	// The torn attempts must not leave partial replica file sets behind:
	// everything in the directory belongs to the one successful base.
	base := filepath.Base(app.CurrentBase())
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "CURRENT" && !strings.HasPrefix(e.Name(), base) {
			t.Fatalf("torn bootstrap left %s behind (current base %s)", e.Name(), base)
		}
	}
	app.Start()
	requireConverged(t, l, app, "bootstrap after leader crashes")
}

// TestReplTornWireFrame flips one byte inside the first record-bearing
// tail response.  The follower must refuse the frame (counted), drop
// the connection, and reconverge from its exact cursor.
func TestReplTornWireFrame(t *testing.T) {
	var flipped atomic32
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/wal" && flipped.next() < 1 {
				inner.ServeHTTP(&byteFlipper{ResponseWriter: w, flipAt: 40}, r)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	l := newTestLeader(t, 2, 0, wrap)
	l.mutate(t, 500)

	app := newTestApplier(t, l.srv.URL, t.TempDir())
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.mutate(t, 300) // give the first tail response real records to damage
	app.Start()
	requireConverged(t, l, app, "follower after a torn wire frame")
	st := app.Stats()
	if st.FrameErrors == 0 {
		t.Fatalf("byte flip was not refused: %+v", st)
	}
	if st.Bootstraps != 1 {
		t.Fatalf("a torn tail frame must retry the tail, not re-bootstrap: %+v", st)
	}
}

// TestReplDisconnectStorm drops every tail connection after a small
// byte budget for a while.  The follower must keep reconnecting with
// backoff (counted) and converge once the network heals.
func TestReplDisconnectStorm(t *testing.T) {
	var storms atomic32
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/wal" && storms.next() < 5 {
				inner.ServeHTTP(&connCutter{ResponseWriter: w, budget: 600}, r)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	l := newTestLeader(t, 2, 0, wrap)
	l.mutate(t, 300)

	app := newTestApplier(t, l.srv.URL, t.TempDir())
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Pile up a tail backlog before the loop starts so the stormed
	// connections carry real record traffic past the cutter's budget.
	l.mutate(t, 2000)
	app.Start()
	requireConverged(t, l, app, "follower after a disconnect storm")
	if st := app.Stats(); st.FrameErrors == 0 && st.Reconnects == 0 {
		t.Fatalf("storm left no trace in the counters: %+v", st)
	}
}

// TestReplSlowConsumerRebootstraps retains almost nothing at the
// leader; a follower that stops tailing while the leader streams past
// the window must get 410, re-bootstrap from a fresh snapshot, and
// converge — degrading gracefully instead of serving a gap.
func TestReplSlowConsumerRebootstraps(t *testing.T) {
	l := newTestLeader(t, 2, 512, nil) // ~a dozen records of retention
	l.mutate(t, 300)

	dir := t.TempDir()
	app := newTestApplier(t, l.srv.URL, dir)
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Not tailing: the follower sleeps while the leader blows far past
	// the retained window.
	l.mutate(t, 2000)

	app.Start()
	requireConverged(t, l, app, "slow consumer after re-bootstrap")
	if st := app.Stats(); st.Bootstraps != 2 {
		t.Fatalf("expected exactly one re-bootstrap, got %+v", st)
	}
}

// TestReplFollowerQueriesDuringTail races follower reads against tail
// application (run under -race in CI): queries at the applied clock
// must never error or crash while records stream in.
func TestReplFollowerQueriesDuringTail(t *testing.T) {
	l := newTestLeader(t, 2, 0, nil)
	l.mutate(t, 500)

	app := newTestApplier(t, l.srv.URL, t.TempDir())
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	app.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			world := rexptree.Rect{Lo: rexptree.Vec{-100, -100}, Hi: rexptree.Vec{1100, 1100}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix := app.Index()
				now := ix.Now()
				if _, err := ix.Timeslice(world, now, now); err != nil {
					t.Error(err)
					return
				}
				// A concurrent apply can advance the tree between the
				// clock read and the query; Nearest still answers at the
				// time it was given.
				if _, err := ix.Nearest(rexptree.Vec{500, 500}, now, 5, now); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		l.mutate(t, 200)
		time.Sleep(time.Millisecond)
	}
	waitCaughtUp(t, app, l.hub.Feed())
	close(stop)
	wg.Wait()
	requireConverged(t, l, app, "follower under concurrent reads")
}

// TestReplNearestLostClockRace is a follower reader that reads the
// applied clock, loses the race to the tail and asks for the nearest
// objects at the clock it read: the tree's clock is then past the
// query's now, and the query must still be answered — first with the
// lost race forced, then while the tail streams in.
func TestReplNearestLostClockRace(t *testing.T) {
	l := newTestLeader(t, 2, 0, nil)
	l.mutate(t, 300)
	app := newTestApplier(t, l.srv.URL, t.TempDir())
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	app.Start()
	waitCaughtUp(t, app, l.hub.Feed())
	stale := app.Index().Now()
	l.mutate(t, 50)
	waitCaughtUp(t, app, l.hub.Feed())
	if now := app.Index().Now(); now <= stale {
		t.Fatalf("applied clock %v did not pass %v", now, stale)
	}
	rs, err := app.Index().Nearest(rexptree.Vec{500, 500}, stale, 5, stale)
	if err != nil || len(rs) != 5 {
		t.Fatalf("nearest at the stale clock %v: %d results, %v", stale, len(rs), err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix := app.Index()
				now := ix.Now()
				if _, err := ix.Nearest(rexptree.Vec{500, 500}, now, 5, now); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		l.mutate(t, 40)
		time.Sleep(time.Millisecond)
	}
	waitCaughtUp(t, app, l.hub.Feed())
	close(stop)
	wg.Wait()
}

// TestReplFollowerServesAppliedClock puts a server over a caught-up
// replica: /v1/stats and a "+0" query answer at the replica's clock,
// which is the leader's, at once — the follower keeps no clock of its
// own to refresh.  A follower resumed from a position sidecar that still
// carries the "clock" field older followers wrote serves the same way.
func TestReplFollowerServesAppliedClock(t *testing.T) {
	l := newTestLeader(t, 2, 0, nil)
	l.mutate(t, 300)
	dir := t.TempDir()
	app := newTestApplier(t, l.srv.URL, dir)
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	app.Start()
	l.mutate(t, 100)
	waitCaughtUp(t, app, l.hub.Feed())
	want := l.ix.Now()
	requireServedAt := func(ix *rexptree.ShardedTree, what string) {
		t.Helper()
		if now := ix.Now(); now != want {
			t.Fatalf("%s: replica clock %v, leader clock %v", what, now, want)
		}
		if clock, now := servedClock(t, ix); clock != want || now != want {
			t.Fatalf("%s: /v1/stats clock %v and +0 query now %v, want the applied clock %v", what, clock, now, want)
		}
	}
	requireServedAt(app.Index(), "tailing follower")

	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	sidecar := app.CurrentBase() + ".replpos"
	raw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		position
		Clock float64 `json:"clock"`
	}
	if err := json.Unmarshal(raw, &old.position); err != nil {
		t.Fatal(err)
	}
	old.Clock = want
	if raw, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecar, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := newTestApplier(t, l.srv.URL, dir)
	if err := resumed.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := resumed.Stats(); st.Bootstraps != 0 {
		t.Fatalf("the follower bootstrapped instead of resuming from %s: %+v", sidecar, st)
	}
	requireServedAt(resumed.Index(), "resumed follower")
	resumed.Start() // Close waits for the tail loop
}

// TestReplCleanCloseIsNotAReconnect closes a caught-up applier while
// its long poll waits at the leader.  Close cancels that poll; the tail
// loop must stop without counting a reconnect or logging a failed tail.
func TestReplCleanCloseIsNotAReconnect(t *testing.T) {
	var polled atomic.Uint64 // the from= of the latest tail request
	l := newTestLeader(t, 2, 0, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64); err == nil {
				polled.Store(from)
			}
			h.ServeHTTP(w, r)
		})
	})
	l.mutate(t, 200)
	var (
		mu    sync.Mutex
		lines []string
	)
	app, err := NewApplier(ApplierOptions{
		Leader:     l.srv.URL,
		Dir:        t.TempDir(),
		MaxBackoff: 200 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	app.Start()
	l.mutate(t, 50)
	waitCaughtUp(t, app, l.hub.Feed())
	// Close once the poll for the record after the head has reached the
	// leader, which parks it until an append that never comes.
	head, _ := l.hub.Feed().Head()
	for deadline := time.Now().Add(10 * time.Second); polled.Load() < head; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no tail request from %d reached the leader (last from=%d)", head, polled.Load())
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if st := app.Stats(); st.Reconnects != 0 || st.FrameErrors != 0 {
		t.Errorf("a clean Close counted as a failure: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range lines {
		if strings.Contains(line, "tail failed") {
			t.Errorf("a clean Close logged %q", line)
		}
	}
}

// servedClock serves ix over HTTP and returns the clock /v1/stats
// reports and the now a "+0" timeslice query is answered at.
func servedClock(t *testing.T, ix *rexptree.ShardedTree) (clock, now float64) {
	t.Helper()
	hs := httptest.NewServer(server.New(server.Config{Index: ix, ReadOnly: true}))
	defer hs.Close()
	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var stats struct {
		Clock float64 `json:"clock"`
	}
	get("/v1/stats", &stats)
	var q struct {
		Now float64 `json:"now"`
	}
	get("/v1/timeslice?lo=0,0&hi=1000,1000&at=%2B0", &q)
	return stats.Clock, q.Now
}

// --- fault-injection plumbing ------------------------------------------

// atomic32 is a tiny counter for "fail the first N requests" wrappers.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) next() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.n
	a.n++
	return n
}

// byteFlipper corrupts one byte of the response body at offset flipAt.
type byteFlipper struct {
	http.ResponseWriter
	flipAt  int
	written int
}

func (b *byteFlipper) Write(p []byte) (int, error) {
	if b.written <= b.flipAt && b.flipAt < b.written+len(p) {
		q := append([]byte(nil), p...)
		q[b.flipAt-b.written] ^= 0x20
		b.written += len(p)
		return b.ResponseWriter.Write(q)
	}
	b.written += len(p)
	return b.ResponseWriter.Write(p)
}

// connCutter hijacks and kills the connection once budget bytes have
// been written, simulating a flaky network path.
type connCutter struct {
	http.ResponseWriter
	budget  int
	written int
}

func (c *connCutter) Write(p []byte) (int, error) {
	if c.written >= c.budget {
		if hj, ok := c.ResponseWriter.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return 0, http.ErrAbortHandler
	}
	c.written += len(p)
	return c.ResponseWriter.Write(p)
}
