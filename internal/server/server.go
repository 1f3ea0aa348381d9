// Package server implements the HTTP/JSON front end of the moving-
// object index: the handlers, request codec, admission control and
// graceful-drain machinery behind the rexpd daemon.  The endpoint
// reference lives in docs/API.md; a doc-coverage test keeps the two in
// sync.
//
// The server wraps a ShardedTree (a single-tree deployment is a
// 1-shard ShardedTree) and keeps no clock of its own: it reads the
// index's logical clock (ShardedTree.Now) once per request.  A report
// is applied at the later of its time and that clock, a query's
// default evaluation time is that clock, and a "+N" time parameter is
// resolved against it.  The clock survives a restart with the index
// and, on a follower, is the replica's applied clock.  Mutations are
// acknowledged only after the index call returns — under
// DurabilityOnCommit that means the WAL is fsynced — so a 200 ack
// survives a crash; a 504 or 429 promises nothing either way.
package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rexptree"
	"rexptree/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Index is the served index.  Required.
	Index *rexptree.ShardedTree

	// MaxInFlight bounds the ingest batches (/v1/batch) admitted
	// concurrently; further batches are refused with 429 and a
	// Retry-After header rather than queued without bound (default 4).
	MaxInFlight int

	// MaxBatch is the number of records a streamed ingest body is
	// chunked into per UpdateBatch call (default 1000).  Smaller chunks
	// admit readers between groups; larger ones amortize locking and,
	// under durability, fsyncs.
	MaxBatch int

	// RequestTimeout is the per-request deadline.  A request that
	// exceeds it is answered 504; an in-flight mutation keeps running
	// to completion but is not acknowledged.  Zero disables deadlines.
	RequestTimeout time.Duration

	// RetryAfter is the client back-off hint attached to 429 and
	// drain-time 503 responses (default 1s).
	RetryAfter time.Duration

	// Pprof mounts net/http/pprof under /debug/pprof/ (rexpd enables
	// it by default).
	Pprof bool

	// RuntimeMetrics appends Go runtime families to /metrics scrapes.
	RuntimeMetrics bool

	// Backup and WALFeed serve the replication endpoints (GET
	// /v1/backup, GET /v1/wal) when the daemon enables the replication
	// hub; nil answers 503, so the routes always exist but clearly
	// report when replication is off.
	Backup  http.Handler
	WALFeed http.Handler

	// ReadOnly puts the server in follower mode: every mutation and
	// reshard request is refused with 403.  The read API, health and
	// metrics endpoints are unaffected.
	ReadOnly bool

	// ReplStats, when set, appends the replication metric families to
	// /metrics scrapes (leader hub and/or follower applier counters).
	ReplStats func() obs.ReplStats

	// LagSeconds + MaxLag gate /readyz on replication staleness: when
	// LagSeconds (typically the follower applier's lag) exceeds
	// MaxLag, /readyz answers 503 {"status":"stale"} so load balancers
	// stop routing reads to a replica that has fallen too far behind.
	// Either zero disables the check.
	LagSeconds func() float64
	MaxLag     time.Duration
}

// Server is the HTTP front end over one sharded index.
type Server struct {
	ix  *rexptree.ShardedTree
	cfg Config
	mux *http.ServeMux

	gate chan struct{} // admission: in-flight ingest batches

	durability string // daemon-configured policy name, for /v1/stats

	admit    sync.RWMutex // orders admitMutation's Add against Drain's Wait
	draining atomic.Bool
	inflight sync.WaitGroup // in-flight mutations, awaited by Drain

	closeOnce sync.Once
	closeErr  error
}

// New builds a Server and its route table.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1000
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		ix:   cfg.Index,
		cfg:  cfg,
		gate: make(chan struct{}, cfg.MaxInFlight),
	}
	s.mux = http.NewServeMux()
	for _, r := range routes {
		h := r.handler
		s.mux.HandleFunc(r.Method+" "+r.Pattern, func(w http.ResponseWriter, req *http.Request) {
			h(s, w, req)
		})
	}
	if cfg.Pprof {
		obs.RegisterPprof(s.mux)
	}
	return s
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// route is one entry of the server's route table.  The table is the
// single source of truth: the mux is built from it and the docs/API.md
// coverage test walks it.
type route struct {
	Method  string
	Pattern string
	handler func(*Server, http.ResponseWriter, *http.Request)
}

var routes = []route{
	{"POST", "/v1/update", (*Server).handleUpdate},
	{"POST", "/v1/delete", (*Server).handleDelete},
	{"POST", "/v1/batch", (*Server).handleBatch},
	{"GET", "/v1/timeslice", queryRoute(rexptree.QueryTimeslice)},
	{"GET", "/v1/window", queryRoute(rexptree.QueryWindow)},
	{"GET", "/v1/moving", queryRoute(rexptree.QueryMoving)},
	{"GET", "/v1/nearest", queryRoute(rexptree.QueryNearest)},
	{"GET", "/v1/object", (*Server).handleObject},
	{"GET", "/v1/stats", (*Server).handleStats},
	{"POST", "/v1/reshard", (*Server).handleReshard},
	{"GET", "/v1/reshard/status", (*Server).handleReshardStatus},
	{"POST", "/v1/reshard/cancel", (*Server).handleReshardCancel},
	{"GET", "/v1/backup", (*Server).handleBackup},
	{"GET", "/v1/wal", (*Server).handleWAL},
	{"GET", "/healthz", (*Server).handleHealthz},
	{"GET", "/readyz", (*Server).handleReadyz},
	{"GET", "/metrics", (*Server).handleMetrics},
	{"GET", "/debug/rexp/traces", (*Server).handleTraces},
}

// Routes lists the registered routes as "METHOD /path" strings (pprof,
// mounted wholesale under /debug/pprof/, is listed as its mount point).
func Routes() []string {
	out := make([]string, 0, len(routes)+1)
	for _, r := range routes {
		out = append(out, r.Method+" "+r.Pattern)
	}
	out = append(out, "GET /debug/pprof/")
	return out
}

// ObserveClock does nothing: the server reads the index's clock, which
// every write advances, so there is no served clock to move.  It is
// kept for callers that wrote to the index behind the server's back.
func (s *Server) ObserveClock(float64) {}

// Drain stops admitting mutations (they are refused with 503 +
// Retry-After; /readyz flips to 503) and waits for the in-flight ones
// to finish.  It does not close the index — the daemon does that after
// the HTTP listener has drained its readers too — and is idempotent.
func (s *Server) Drain() {
	// Taking the admission lock exclusively flushes out admitMutation's
	// check-then-Add sections: every Add either happened before this
	// point (so Wait sees it) or starts after and is refused.  Without
	// it an Add could race the Wait at counter zero, which sync.WaitGroup
	// forbids.
	s.admit.Lock()
	s.draining.Store(true)
	s.admit.Unlock()
	s.inflight.Wait()
}

// CloseIndex checkpoints and closes the index; idempotent.
func (s *Server) CloseIndex() error {
	s.closeOnce.Do(func() { s.closeErr = s.ix.Close() })
	return s.closeErr
}

// admitMutation gates every mutating request: a read-only follower
// refuses it with 403, a drain with 503; otherwise it joins the
// in-flight group the drain waits on.  The returned release must be
// called exactly once; ok is false when the request was already
// answered.
func (s *Server) admitMutation(w http.ResponseWriter) (release func(), ok bool) {
	if s.cfg.ReadOnly {
		writeError(w, http.StatusForbidden, "read-only follower: mutations must go to the leader")
		return nil, false
	}
	s.admit.RLock()
	if s.draining.Load() {
		s.admit.RUnlock()
		s.retryLater(w, http.StatusServiceUnavailable, "draining: not admitting mutations")
		return nil, false
	}
	s.inflight.Add(1)
	s.admit.RUnlock()
	// A drain that began after the Add above waits for this request
	// like any other in-flight mutation; no ack can race the close.
	return func() { s.inflight.Done() }, true
}

// acquireBatchSlot additionally bounds ingest-batch concurrency: when
// MaxInFlight batches are already streaming, the caller is told to back
// off with 429 + Retry-After instead of queueing without bound.
func (s *Server) acquireBatchSlot(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.gate <- struct{}{}:
		return func() { <-s.gate }, true
	default:
		s.retryLater(w, http.StatusTooManyRequests,
			"overloaded: %d ingest batches in flight", cap(s.gate))
		return nil, false
	}
}

// retryLater answers an overload or drain refusal with a back-off hint.
func (s *Server) retryLater(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
	writeError(w, status, format, args...)
}
