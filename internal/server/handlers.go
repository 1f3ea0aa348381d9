package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"rexptree"
	"rexptree/internal/obs"
)

// reply is a handler outcome awaiting encoding.
type reply struct {
	status int
	body   any
}

func okReply(v any) reply { return reply{http.StatusOK, v} }

// errReply classifies an error: malformed requests are 400, index
// errors 500.
func errReply(err error) reply {
	var br badRequest
	if errors.As(err, &br) {
		return reply{http.StatusBadRequest, errorResponse{br.Error()}}
	}
	return reply{http.StatusInternalServerError, errorResponse{err.Error()}}
}

func (r reply) write(w http.ResponseWriter) {
	if er, ok := r.body.(errorResponse); ok {
		writeJSON(w, r.status, er)
		return
	}
	writeJSON(w, r.status, r.body)
}

// deadline resolves the request's deadline: the configured
// RequestTimeout, tightened by an explicit ?timeout= parameter
// (a Go duration).  Zero means no deadline.
func (s *Server) deadline(r *http.Request) (time.Duration, error) {
	d := s.cfg.RequestTimeout
	if p := r.URL.Query().Get("timeout"); p != "" {
		pd, err := time.ParseDuration(p)
		if err != nil || pd <= 0 {
			return 0, badRequestf("invalid timeout %q", p)
		}
		if d == 0 || pd < d {
			d = pd
		}
	}
	return d, nil
}

// run executes fn under the request deadline.  On timeout the request
// is answered 504 while fn runs to completion in the background —
// whatever it was doing is then simply never acknowledged (and, for a
// mutation, still holds its in-flight slot, so a drain waits for it).
func (s *Server) run(w http.ResponseWriter, r *http.Request, fn func() reply) {
	d, err := s.deadline(r)
	if err != nil {
		errReply(err).write(w)
		return
	}
	if d <= 0 {
		fn().write(w)
		return
	}
	done := make(chan reply, 1)
	go func() { done <- fn() }()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case res := <-done:
		res.write(w)
	case <-timer.C:
		// Answer 504 and return.  Do NOT touch r.Body here: its mutex
		// is held by the stalled read, so Close would deadlock.  When
		// this handler returns, net/http aborts the pending read
		// (finishRequest -> abortPendingRead), which errors fn's next
		// Read so it finishes and releases its admission slot (and,
		// for a mutation, its drain token).  Connection: close keeps
		// the half-consumed body from poisoning a keep-alive reuse.
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusGatewayTimeout, "deadline %v exceeded", d)
	case <-r.Context().Done():
		// Client gone; the pending read aborts when we return, fn
		// finishes in the background and its reply is dropped.
	}
}

// --- Mutations ---------------------------------------------------------

// updateResponse acknowledges a single routed mutation.
type updateResponse struct {
	OK      bool    `json:"ok"`
	Removed bool    `json:"removed,omitempty"` // deletes: report existed
	Clock   float64 `json:"clock"`             // the time the op was applied at
}

// handleUpdate applies one report: POST /v1/update, body a Record.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitMutation(w)
	if !ok {
		return
	}
	s.run(w, r, func() reply {
		defer release()
		var rec Record
		if err := decodeBody(r.Body, &rec); err != nil {
			return errReply(err)
		}
		if rec.Op != "" && rec.Op != "update" {
			return errReply(badRequestf("op %q not valid on /v1/update (use /v1/delete or /v1/batch)", rec.Op))
		}
		p, err := rec.point(s.ix.Dims())
		if err != nil {
			return errReply(badRequest{err.Error()})
		}
		now := max(rec.Time, s.ix.Now())
		if err := s.ix.Update(rec.ID, p, now); err != nil {
			return errReply(err)
		}
		return okReply(updateResponse{OK: true, Clock: now})
	})
}

// handleDelete removes one report: POST /v1/delete, body {"id": N}.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitMutation(w)
	if !ok {
		return
	}
	s.run(w, r, func() reply {
		defer release()
		var rec Record
		if err := decodeBody(r.Body, &rec); err != nil {
			return errReply(err)
		}
		if rec.Op != "" && rec.Op != "delete" {
			return errReply(badRequestf("op %q not valid on /v1/delete", rec.Op))
		}
		now := max(rec.Time, s.ix.Now())
		removed, err := s.ix.Delete(rec.ID, now)
		if err != nil {
			return errReply(err)
		}
		return okReply(updateResponse{OK: true, Removed: removed, Clock: now})
	})
}

// batchResponse acknowledges a streamed ingest batch.
type batchResponse struct {
	Applied int     `json:"applied"` // update records applied
	Deleted int     `json:"deleted"` // delete records applied
	Batches int     `json:"batches"` // UpdateBatch calls issued
	Clock   float64 `json:"clock"`
}

// handleBatch streams an NDJSON body — one Record per line, updates
// and deletes — into the index, chunked into UpdateBatch calls of at
// most MaxBatch reports (a delete flushes the pending chunk first, so
// the stream applies in order).  Everything before a malformed line
// stays applied; the 400 names the offending line.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitMutation(w)
	if !ok {
		return
	}
	slot, ok := s.acquireBatchSlot(w)
	if !ok {
		release()
		return
	}
	s.run(w, r, func() reply {
		defer release()
		defer slot()
		resp, err := s.ingest(r.Body)
		if err != nil {
			return errReply(err)
		}
		return okReply(resp)
	})
}

// ingestBuffers is what an ingest body borrows for its whole run and
// returns when ingest returns: the scanner's line buffer, the pending
// chunk and the record decoder.  Nothing downstream keeps a reference:
// UpdateBatch copies what it stores, logs and forwards.
type ingestBuffers struct {
	line    []byte
	pending []rexptree.Report
	dec     recordDecoder
}

var ingestPool = sync.Pool{New: func() any {
	return &ingestBuffers{line: make([]byte, 64*1024)}
}}

// ingest is the body of handleBatch.
func (s *Server) ingest(body io.Reader) (batchResponse, error) {
	bufs := ingestPool.Get().(*ingestBuffers)
	defer ingestPool.Put(bufs)
	var resp batchResponse
	pending := bufs.pending[:0]
	defer func() { bufs.pending = pending[:0] }()
	var pendingMax float64

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		now := max(pendingMax, s.ix.Now())
		if err := s.ix.UpdateBatch(pending, now); err != nil {
			return err
		}
		resp.Applied += len(pending)
		resp.Batches++
		resp.Clock = now
		pending = pending[:0]
		return nil
	}

	sc := bufio.NewScanner(body)
	sc.Buffer(bufs.line, 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rec, err := bufs.dec.decode(raw)
		if err != nil {
			return resp, badRequestf("line %d: %v", line, err)
		}
		switch rec.Op {
		case "", "update":
			p, err := rec.point(s.ix.Dims())
			if err != nil {
				return resp, badRequestf("line %d: %v", line, err)
			}
			if rec.Time > pendingMax {
				pendingMax = rec.Time
			}
			pending = append(pending, rexptree.Report{ID: rec.ID, Point: p})
			if len(pending) >= s.cfg.MaxBatch {
				if err := flush(); err != nil {
					return resp, err
				}
			}
		case "delete":
			if err := flush(); err != nil {
				return resp, err
			}
			now := max(rec.Time, s.ix.Now())
			if _, err := s.ix.Delete(rec.ID, now); err != nil {
				return resp, err
			}
			resp.Deleted++
			resp.Clock = now
		default:
			return resp, badRequestf("line %d: unknown op %q", line, rec.Op)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return resp, badRequestf("line %d: exceeds the 1 MiB line limit", line+1)
		}
		return resp, err
	}
	if err := flush(); err != nil {
		return resp, err
	}
	if resp.Clock == 0 {
		resp.Clock = s.ix.Now()
	}
	return resp, nil
}

// decodeBody decodes a single-JSON-value request body strictly.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("malformed body: %v", err)
	}
	if dec.More() {
		return badRequestf("malformed body: trailing data after the JSON value")
	}
	return nil
}

// --- Queries -----------------------------------------------------------

// queryNow resolves the query's evaluation time: an explicit ?now=
// (absolute or "+N"), else the index clock, read once per request.
func (s *Server) queryNow(params url.Values) (float64, error) {
	clock := s.ix.Now()
	v := params.Get("now")
	if v == "" {
		return clock, nil
	}
	now, err := parseTime(v, clock)
	if err != nil {
		return 0, badRequestf("now: %v", err)
	}
	return now, nil
}

// queryParam is one parameter of a query route.  A required one that
// is missing is refused; an optional one left out keeps the query's
// default (at's is the request's now).
type queryParam struct {
	name     string
	optional bool
}

// queryParams is the parse table of the four query routes, GET
// /v1/<kind>?...: each kind's parameters in the order they are parsed,
// so the first bad one is the one reported.  ?now= is resolved before
// them, and the +N times resolve against it.
var queryParams = [...][]queryParam{
	rexptree.QueryTimeslice: {{"lo", false}, {"hi", false}, {"at", false}},
	rexptree.QueryWindow:    {{"lo", false}, {"hi", false}, {"t1", false}, {"t2", false}},
	rexptree.QueryMoving:    {{"lo1", false}, {"hi1", false}, {"lo2", false}, {"hi2", false}, {"t1", false}, {"t2", false}},
	rexptree.QueryNearest:   {{"pos", false}, {"k", false}, {"at", true}},
}

// queryRoute is the handler of kind's query route.
func queryRoute(kind rexptree.QueryKind) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) {
		s.run(w, r, func() reply { return s.query(kind, r.URL.Query()) })
	}
}

// query parses one query request into the query value, runs it — with
// its trace under ?explain=1 — and packages the results.  A query the
// index refuses is the client's fault: 400.
func (s *Server) query(kind rexptree.QueryKind, params url.Values) reply {
	now, err := s.queryNow(params)
	if err != nil {
		return errReply(err)
	}
	explain, _ := strconv.ParseBool(params.Get("explain")) // ?explain=1 or =true
	q := rexptree.Query{Kind: kind, At: now, Explain: explain}
	dims := s.ix.Dims()
	for _, p := range queryParams[kind] {
		v := params.Get(p.name)
		if v == "" && p.optional {
			continue
		}
		if err := setParam(&q, p.name, v, now, dims); err != nil {
			return errReply(badRequestf("%s: %v", p.name, err))
		}
	}
	rs, tc, err := s.ix.Query(q, now)
	if err != nil {
		return errReply(badRequest{err.Error()})
	}
	return okReply(queryResponse{Now: now, Count: len(rs), Results: toResultJSON(rs, dims), Trace: tc})
}

// setParam parses the value v of the query parameter name into q.
func setParam(q *rexptree.Query, name, v string, now float64, dims int) (err error) {
	switch name {
	case "lo", "lo1":
		q.R.Lo, err = parseVec(v, dims)
	case "hi", "hi1":
		q.R.Hi, err = parseVec(v, dims)
	case "lo2":
		q.R2.Lo, err = parseVec(v, dims)
	case "hi2":
		q.R2.Hi, err = parseVec(v, dims)
	case "pos":
		q.Pos, err = parseVec(v, dims)
	case "at":
		q.At, err = parseTime(v, now)
	case "t1":
		q.T1, err = parseTime(v, now)
	case "t2":
		q.T2, err = parseTime(v, now)
	case "k":
		if q.K, err = strconv.Atoi(v); err != nil || q.K <= 0 {
			err = fmt.Errorf("%q is not a positive integer", v)
		}
	}
	return err
}

// handleObject answers GET /v1/object?id=N — the object's current
// report, or 404.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	s.run(w, r, func() reply {
		q := r.URL.Query()
		id, err := strconv.ParseUint(q.Get("id"), 10, 32)
		if err != nil {
			return errReply(badRequestf("id: %q is not an object id", q.Get("id")))
		}
		now, err := s.queryNow(q)
		if err != nil {
			return errReply(err)
		}
		p, ok := s.ix.Get(uint32(id), now)
		if !ok {
			return reply{http.StatusNotFound, errorResponse{fmt.Sprintf("object %d: no live report", id)}}
		}
		rows := toResultJSON([]rexptree.Result{{ID: uint32(id), Point: p}}, s.ix.Dims())
		return okReply(rows[0])
	})
}

// statsResponse describes the served index.
type statsResponse struct {
	Clock      float64   `json:"clock"`
	Objects    int       `json:"objects"`
	Shards     int       `json:"shards"`
	Generation int       `json:"generation"`
	Partition  string    `json:"partition"`
	SpeedBands []float64 `json:"speed_bands,omitempty"`
	Durability string    `json:"durability"`
	Draining   bool      `json:"draining"`
	Height     int       `json:"height"`
	Pages      int       `json:"pages"`
}

// handleStats answers GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.ix.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Clock:      s.ix.Now(),
		Objects:    s.ix.Len(),
		Shards:     s.ix.NumShards(),
		Generation: s.ix.Generation(),
		Partition:  s.ix.Partition().String(),
		SpeedBands: s.ix.SpeedBands(),
		Durability: s.durabilityName(),
		Draining:   s.draining.Load(),
		Height:     st.Height,
		Pages:      st.Pages,
	})
}

// durability is configured on the daemon, not readable off the tree;
// rexpd records it on the server for /v1/stats.
func (s *Server) durabilityName() string { return s.durability }

// SetDurability records the daemon's durability policy for /v1/stats.
func (s *Server) SetDurability(name string) { s.durability = name }

// handleHealthz answers GET /healthz: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz answers GET /readyz: ready to serve; flips to 503 the
// moment a drain begins (so load balancers stop routing here), and on
// a follower it also flips to 503 {"status":"stale"} when replication
// lag exceeds the configured threshold — a replica too far behind
// should stop receiving reads.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.cfg.LagSeconds != nil && s.cfg.MaxLag > 0 {
		if lag := s.cfg.LagSeconds(); lag > s.cfg.MaxLag.Seconds() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "stale", "lag_seconds": lag, "max_lag_seconds": s.cfg.MaxLag.Seconds(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the Prometheus exposition (aggregate + per-shard
// sections, plus the Go runtime families unless disabled, plus the
// replication families when a hub or applier is wired in).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.ix.MetricsHandler()
	if s.cfg.RuntimeMetrics {
		h = obs.WithRuntimeMetrics(h, obs.DefaultPrefix)
	}
	if rs := s.cfg.ReplStats; rs != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r)
			obs.WriteReplMetrics(w, obs.DefaultPrefix, rs())
		})
	}
	h.ServeHTTP(w, r)
}

// handleTraces serves the flight recorder's retained traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.ix.TraceHandler().ServeHTTP(w, r)
}

// --- Replication -------------------------------------------------------

// handleBackup streams a consistent hot-backup snapshot: GET
// /v1/backup.  The stream is produced by the replication hub directly
// (no request deadline — a backup legitimately runs long); without a
// hub the route answers 503 so a misconfigured follower fails loudly.
func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Backup == nil {
		writeError(w, http.StatusServiceUnavailable, "replication not enabled on this server (start rexpd with -repl-retain > 0)")
		return
	}
	s.cfg.Backup.ServeHTTP(w, r)
}

// handleWAL serves the logical record tail: GET /v1/wal?from=&epoch=.
// Long-polls, so it bypasses the request deadline machinery.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	if s.cfg.WALFeed == nil {
		writeError(w, http.StatusServiceUnavailable, "replication not enabled on this server (start rexpd with -repl-retain > 0)")
		return
	}
	s.cfg.WALFeed.ServeHTTP(w, r)
}

// --- Live reshard ------------------------------------------------------

// reshardRequest describes the target layout of POST /v1/reshard.
type reshardRequest struct {
	Shards     int       `json:"shards,omitempty"`      // 0 keeps the current count
	Policy     string    `json:"policy"`                // "hash" or "speed"
	SpeedBands []float64 `json:"speed_bands,omitempty"` // empty under "speed": re-derived from observed speeds
}

// reshardStatusResponse mirrors rexptree.ReshardStatus on the wire.
type reshardStatusResponse struct {
	InFlight    bool   `json:"in_flight"`
	Phase       string `json:"phase"`
	Generation  int    `json:"generation"`
	Shards      int    `json:"shards"`
	Policy      string `json:"policy"`
	Scanned     uint64 `json:"scanned"`
	Backfilled  uint64 `json:"backfilled"`
	DualApplied uint64 `json:"dual_applied"`
	LastError   string `json:"last_error,omitempty"`
}

func toReshardStatusJSON(st rexptree.ReshardStatus) reshardStatusResponse {
	return reshardStatusResponse{
		InFlight:    st.InFlight,
		Phase:       st.Phase,
		Generation:  st.Generation,
		Shards:      st.Shards,
		Policy:      st.Policy,
		Scanned:     st.Scanned,
		Backfilled:  st.Backfilled,
		DualApplied: st.DualApplied,
		LastError:   st.LastError,
	}
}

// handleReshard starts a live reshard: POST /v1/reshard, body a
// reshardRequest.  The call returns as soon as the background engine is
// started (202) — progress is observable on /v1/reshard/status; a
// reshard already in flight is refused with 409.
func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReadOnly {
		writeError(w, http.StatusForbidden, "read-only follower: resharding must be done on the leader")
		return
	}
	s.run(w, r, func() reply {
		var req reshardRequest
		if err := decodeBody(r.Body, &req); err != nil {
			return errReply(err)
		}
		policy, err := rexptree.ParsePartitionPolicy(req.Policy)
		if err != nil {
			return errReply(badRequestf("policy: %v", err))
		}
		spec := rexptree.ReshardSpec{
			Shards:     req.Shards,
			Policy:     policy,
			SpeedBands: req.SpeedBands,
		}
		if err := s.ix.StartReshard(spec); err != nil {
			if errors.Is(err, rexptree.ErrReshardInFlight) {
				return reply{http.StatusConflict, errorResponse{err.Error()}}
			}
			return errReply(badRequestf("%v", err))
		}
		return reply{http.StatusAccepted, toReshardStatusJSON(s.ix.ReshardStatus())}
	})
}

// handleReshardStatus answers GET /v1/reshard/status: progress of the
// in-flight reshard, or the terminal state of the last one.
func (s *Server) handleReshardStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, toReshardStatusJSON(s.ix.ReshardStatus()))
}

// handleReshardCancel answers POST /v1/reshard/cancel: asks the
// in-flight reshard to abort cleanly.  Canceled reports whether there
// was one to cancel; cancellation completes asynchronously.
func (s *Server) handleReshardCancel(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReadOnly {
		writeError(w, http.StatusForbidden, "read-only follower: resharding must be done on the leader")
		return
	}
	canceled := s.ix.CancelReshard()
	writeJSON(w, http.StatusOK, map[string]bool{"canceled": canceled})
}
