package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"rexptree"
)

// The wire formats of the rexpd HTTP API.  Every request and response
// body is JSON; the ingest stream (/v1/batch) is newline-delimited
// JSON, one record per line.  docs/API.md is the reference and is kept
// in sync with the registered routes by a doc-coverage test.

// Record is one ingest line: an update (the default) or, with
// Op == "delete", a deletion.  Times are the index's logical clock;
// Expires == 0 means the report never expires.
type Record struct {
	Op      string    `json:"op,omitempty"` // "", "update" or "delete"
	ID      uint32    `json:"id"`
	Pos     []float64 `json:"pos,omitempty"`
	Vel     []float64 `json:"vel,omitempty"`
	Time    float64   `json:"time"`
	Expires float64   `json:"expires,omitempty"`
}

// point converts a record to the public report type, validating the
// coordinate arity against the index dimensionality.
func (r Record) point(dims int) (rexptree.Point, error) {
	if len(r.Pos) != dims {
		return rexptree.Point{}, fmt.Errorf("pos has %d coordinates, index has %d dimensions", len(r.Pos), dims)
	}
	if len(r.Vel) != 0 && len(r.Vel) != dims {
		return rexptree.Point{}, fmt.Errorf("vel has %d coordinates, index has %d dimensions", len(r.Vel), dims)
	}
	p := rexptree.Point{Time: r.Time, Expires: r.Expires}
	for i, c := range r.Pos {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return rexptree.Point{}, fmt.Errorf("pos[%d] is not finite", i)
		}
		p.Pos[i] = c
	}
	for i, c := range r.Vel {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return rexptree.Point{}, fmt.Errorf("vel[%d] is not finite", i)
		}
		p.Vel[i] = c
	}
	if p.Expires == 0 {
		p.Expires = rexptree.NoExpiry()
	}
	return p, nil
}

// resultJSON is one query result row.
type resultJSON struct {
	ID      uint32    `json:"id"`
	Pos     []float64 `json:"pos"`
	Vel     []float64 `json:"vel"`
	Time    float64   `json:"time"`
	Expires float64   `json:"expires,omitempty"`
}

// toResultJSON converts query results to rows.  Every row's pos and vel
// are cut from one backing array, so a response costs two allocations,
// not two per row.
func toResultJSON(rs []rexptree.Result, dims int) []resultJSON {
	out := make([]resultJSON, len(rs))
	coords := make([]float64, 2*dims*len(rs))
	for i, r := range rs {
		c := coords[2*dims*i : 2*dims*(i+1) : 2*dims*(i+1)]
		row := resultJSON{ID: r.ID, Time: r.Point.Time, Pos: c[:dims:dims], Vel: c[dims:]}
		for d := 0; d < dims; d++ {
			row.Pos[d] = r.Point.Pos[d]
			row.Vel[d] = r.Point.Vel[d]
		}
		if !math.IsInf(r.Point.Expires, 1) {
			row.Expires = r.Point.Expires
		}
		out[i] = row
	}
	return out
}

// queryResponse is the body of every query endpoint.
type queryResponse struct {
	Now     float64              `json:"now"`             // evaluation time used
	Count   int                  `json:"count"`           // len(results)
	Results []resultJSON         `json:"results"`         // ascending id (nearest: distance)
	Trace   *rexptree.QueryTrace `json:"trace,omitempty"` // with ?explain=1
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// badRequest reports a malformed request (400).
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Sprintf(format, args...)}
}

// parseVec parses a comma-separated coordinate list ("400,620") with
// exactly dims components.
func parseVec(s string, dims int) (rexptree.Vec, error) {
	var v rexptree.Vec
	if s == "" {
		return v, fmt.Errorf("missing coordinates")
	}
	parts := strings.Split(s, ",")
	if len(parts) != dims {
		return v, fmt.Errorf("%q has %d coordinates, index has %d dimensions", s, len(parts), dims)
	}
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return v, fmt.Errorf("coordinate %q is not a finite number", p)
		}
		v[i] = f
	}
	return v, nil
}

// parseTime parses a query time parameter.  A leading "+" makes the
// value relative to the request's now ("t2=+10" means now+10), which is
// what curl invocations against a live logical clock want.
func parseTime(s string, now float64) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("missing time")
	}
	rel := strings.HasPrefix(s, "+")
	f, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("time %q is not a finite number", s)
	}
	if rel {
		return now + f, nil
	}
	return f, nil
}
