package main

// The -remote -replay mode: stream a rexpgen workload file to a running
// rexpd over HTTP — inserts and deletes as NDJSON ingest lines, queries
// as GETs — the path the README quickstart walks by hand.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"rexptree/internal/geom"
	"rexptree/internal/server"
	"rexptree/internal/workload"
)

// remoteClient wraps the target daemon's base URL.
type remoteClient struct {
	base string
	hc   *http.Client
}

func newRemoteClient(addr string) *remoteClient {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &remoteClient{
		base: strings.TrimRight(addr, "/"),
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

// post sends body to path and decodes the JSON response into out.
// A 429 is returned as an *overloadError carrying the server's
// Retry-After hint so callers can back off and retry.
func (c *remoteClient) post(path string, body []byte, out any) error {
	resp, err := c.hc.Post(c.base+path, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode == http.StatusTooManyRequests {
		return &overloadError{retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// get fetches path?query and decodes the JSON response into out.
func (c *remoteClient) get(path string, query url.Values, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	resp, err := c.hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// overloadError is a 429 refusal (admission control or the per-client
// rate limiter); retryAfter is the server's Retry-After hint, 0 when
// the header was absent or unparseable.
type overloadError struct{ retryAfter time.Duration }

func (e *overloadError) Error() string {
	if e.retryAfter > 0 {
		return fmt.Sprintf("server overloaded (429, retry after %v)", e.retryAfter)
	}
	return "server overloaded (429)"
}

// wait picks the back-off before retrying: the server's hint when it
// sent one, else the caller's fallback — in both cases jittered over
// [d/2, 3d/2) so a fleet of refused clients does not return in
// lockstep and re-overload the server at the same instant.
func (e *overloadError) wait(fallback time.Duration) time.Duration {
	d := e.retryAfter
	if d <= 0 {
		d = fallback
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// parseRetryAfter reads the delay-seconds form of a Retry-After value
// (the only form rexpd sends).
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// batchAck mirrors the server's batch response.
type batchAck struct {
	Applied int `json:"applied"`
	Deleted int `json:"deleted"`
}

// queryAck mirrors the server's query response envelope.
type queryAck struct {
	Count int `json:"count"`
}

func ndjson(recs []server.Record) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		enc.Encode(r)
	}
	return buf.Bytes()
}

// replayWorkload streams a rexpgen text workload to the daemon at addr
// in order: inserts and deletes accumulate into NDJSON ingest bodies,
// flushed before each query so the stream applies in sequence.  It
// prints one summary line on success.
func replayWorkload(addr, file string) error {
	c := newRemoteClient(addr)
	if err := c.get("/healthz", nil, nil); err != nil {
		return fmt.Errorf("daemon not reachable: %w", err)
	}
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()

	var inserts, deletes, queries, results int
	start := time.Now()
	var pending []server.Record

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		var ack batchAck
		for {
			err := c.post("/v1/batch", ndjson(pending), &ack)
			var oe *overloadError
			if errors.As(err, &oe) {
				time.Sleep(oe.wait(50 * time.Millisecond))
				continue
			}
			if err != nil {
				return err
			}
			break
		}
		inserts += ack.Applied
		deletes += ack.Deleted
		pending = pending[:0]
		return nil
	}

	sc := workload.NewScanner(f)
	for sc.Scan() {
		op := sc.Op()
		switch op.Kind {
		case workload.OpInsert:
			at := op.Point.At(op.Time)
			expires := op.Point.TExp
			if !geom.IsFinite(expires) {
				expires = 0 // the wire encoding of "never expires"
			}
			pending = append(pending, server.Record{
				ID:      op.OID,
				Pos:     []float64{at[0], at[1]},
				Vel:     []float64{op.Point.Vel[0], op.Point.Vel[1]},
				Time:    op.Time,
				Expires: expires,
			})
		case workload.OpDelete:
			pending = append(pending, server.Record{Op: "delete", ID: op.OID, Time: op.Time})
		case workload.OpQuery:
			if err := flush(); err != nil {
				return err
			}
			v, path := queryParams(op.Query)
			var ack queryAck
			if err := c.get(path, v, &ack); err != nil {
				return err
			}
			queries++
			results += ack.Count
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Printf("rexpbench: replayed %d inserts, %d deletes, %d queries (%d results) in %.2fs\n",
		inserts, deletes, queries, results, time.Since(start).Seconds())
	return nil
}

// queryParams translates a workload query to its GET endpoint.
func queryParams(q geom.Query) (url.Values, string) {
	ft := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	vec := func(p geom.Vec) string { return ft(p[0]) + "," + ft(p[1]) }
	v := url.Values{}
	r1, r2 := q.Region.At(q.T1), q.Region.At(q.T2)
	switch workload.KindOfQuery(q) {
	case "timeslice":
		v.Set("lo", vec(r1.Lo))
		v.Set("hi", vec(r1.Hi))
		v.Set("at", ft(q.T1))
		return v, "/v1/timeslice"
	case "window":
		v.Set("lo", vec(r1.Lo))
		v.Set("hi", vec(r1.Hi))
		v.Set("t1", ft(q.T1))
		v.Set("t2", ft(q.T2))
		return v, "/v1/window"
	default:
		v.Set("lo1", vec(r1.Lo))
		v.Set("hi1", vec(r1.Hi))
		v.Set("lo2", vec(r2.Lo))
		v.Set("hi2", vec(r2.Hi))
		v.Set("t1", ft(q.T1))
		v.Set("t2", ft(q.T2))
		return v, "/v1/moving"
	}
}
