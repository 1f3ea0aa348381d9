package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// conn is one keep-alive connection to one daemon: its transport holds
// at most a single connection, so a load loop that owns a conn is one
// client socket, as the workload definition says.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // response body of the last request, reused
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends the request and reads the whole response into c.buf (valid
// until the next call).  Any transport error or non-2xx status is an
// error; the status is returned so callers can count refusals.
func (c *conn) do(method, pathQuery string, body []byte) (status int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+pathQuery, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d: %s", method, pathQuery, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return resp.StatusCode, nil
}

// getJSON fetches pathQuery and decodes the JSON body into out.
func (c *conn) getJSON(pathQuery string, out any) error {
	if _, err := c.do("GET", pathQuery, nil); err != nil {
		return err
	}
	return json.Unmarshal(c.buf.Bytes(), out)
}

// batchAck mirrors the server's /v1/batch response.
type batchAck struct {
	Applied int     `json:"applied"`
	Deleted int     `json:"deleted"`
	Batches int     `json:"batches"`
	Clock   float64 `json:"clock"`
}

// statsAck is the part of /v1/stats the bench reads.
type statsAck struct {
	Clock float64 `json:"clock"`
}

// row is one query result row as the API returns it.
type row struct {
	ID      uint32    `json:"id"`
	Pos     []float64 `json:"pos"`
	Vel     []float64 `json:"vel"`
	Time    float64   `json:"time"`
	Expires float64   `json:"expires"`
}

type queryAck struct {
	Now     float64 `json:"now"`
	Count   int     `json:"count"`
	Results []row   `json:"results"`
}

// series is one scrape of /metrics: every sample keyed by its full
// series string, e.g. `rexp_op_duration_seconds_count{op="window"}`.
type series map[string]float64

func (c *conn) scrape() (series, error) {
	if _, err := c.do("GET", "/metrics", nil); err != nil {
		return nil, err
	}
	return parseSeries(c.buf.Bytes()), nil
}

// parseSeries reads a Prometheus text exposition.
func parseSeries(text []byte) series {
	out := series{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sub returns the per-series difference s - prev (gauges included; the
// caller reads gauges from s itself).
func (s series) sub(prev series) series {
	d := make(series, len(s))
	for k, v := range s {
		d[k] = v - prev[k]
	}
	return d
}

// The families the bench reads, by their exposition names.
const (
	mReads        = "rexp_buffer_reads_total"
	mWrites       = "rexp_buffer_writes_total"
	mHits         = "rexp_buffer_hits_total"
	mEvictions    = "rexp_buffer_evictions_total"
	mNodeVisits   = "rexp_query_node_visits_total"
	mBatched      = "rexp_batched_updates_total"
	mShardVisits  = "rexp_query_shard_visits_total"
	mShardsPruned = "rexp_query_shards_pruned_total"
	mRerouted     = "rexp_partition_rerouted_total"
	mPublishes    = "rexp_snapshot_publishes_total"
	mTrimmed      = "rexp_snapshot_versions_trimmed_total"
	mWALBytes     = "rexp_wal_bytes_total"
	mWALFsyncs    = "rexp_wal_fsyncs_total"
	mCheckpoints  = "rexp_checkpoints_total"
	mIndexPages   = "rexp_index_pages"
	mFeedRecords  = "rexp_repl_feed_records_total"
	mFeedBytes    = "rexp_repl_feed_bytes_total"
	mSnapBytes    = "rexp_repl_snapshot_bytes_total"
	mTailRequests = "rexp_repl_tail_requests_total"
	mApplied      = "rexp_repl_applied_records_total"
	mAppliedLSN   = "rexp_repl_applied_lsn"
	mReconnects   = "rexp_repl_reconnects_total"
	mLagBytes     = "rexp_repl_lag_bytes"
)

func opCount(op string) string    { return `rexp_op_duration_seconds_count{op="` + op + `"}` }
func phaseSum(p string) string    { return `rexp_phase_duration_seconds_sum{phase="` + p + `"}` }
func phaseCnt(p string) string    { return `rexp_phase_duration_seconds_count{phase="` + p + `"}` }
func lockWaitSum(m string) string { return `rexp_lock_wait_seconds_sum{mode="` + m + `"}` }

// queries sums the four query operations' completed-call counts.
func (s series) queries() float64 {
	return s[opCount("timeslice")] + s[opCount("window")] + s[opCount("moving")] + s[opCount("nearest")]
}
