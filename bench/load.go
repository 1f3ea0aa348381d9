package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rexptree/internal/workload"
)

// The paper's workload parameters (§5.1, Table 1 defaults) that every
// workload shares: network scenario, speed groups 0.75/1.5/3 (fixed in
// internal/workload), UI 60, ExpT = 2·UI, query squares of 0.25 % of
// the space, querying window W = UI/2.
const (
	paperUI    = 60.0
	bodySize   = 100        // reports per W body, the probe included
	probeID    = 4000000000 // reserved object id, above every generated one
	probeEvery = 10         // every 10th R request reads the probe back
)

// worlds is how many independent copies of the network scenario a
// stream overlays.  One copy has 20 destinations, and where a seed
// happens to put them moves every count metric by several percent;
// eight copies with seeds of their own, sharing the space and the
// population, average that out, so that runs of different seeds can be
// compared.
const worlds = 8

// stream is the operation source of every workload: the paper's
// network scenario (§5.1), worlds copies merged by time, with objects
// silently turned off and replaced at the paper's NewOb = 1 rate (one
// replacement per ten insertions of a 10·Objects stream) for as long
// as the run lasts, so reports keep expiring unrefreshed.
type stream struct {
	gens     [worlds]*workload.Generator
	heads    [worlds]workload.Op // each world's next operation
	clock    float64             // time of the newest report handed out
	probeSeq int
	genTime  time.Duration // spent generating and encoding
	genOps   int
}

// newStream builds the stream for objects objects in all, with one
// query per queriesPer insertions.
func newStream(seed int64, objects, queriesPer int) (*stream, error) {
	const insertions = 1 << 30 // never reached: the run ends first
	s := &stream{}
	for k := range s.gens {
		gen, err := workload.NewGenerator(workload.Params{
			Seed:                 seed*worlds + int64(k),
			Objects:              objects / worlds,
			Insertions:           insertions,
			UI:                   paperUI,
			NewOb:                float64(insertions) / float64(10*(objects/worlds)),
			QueriesPerInsertions: queriesPer,
		})
		if err != nil {
			return nil, err
		}
		s.gens[k] = gen
		s.pull(k)
	}
	return s, nil
}

// pull advances world k to its next insertion or query.  The
// workload's explicit deletions are dropped: an update replaces the
// object's previous report.  Object ids interleave the worlds.
func (s *stream) pull(k int) {
	for {
		op, ok := s.gens[k].Next()
		if !ok {
			panic("bench: workload stream exhausted")
		}
		if op.Kind != workload.OpDelete {
			op.OID = op.OID*worlds + uint32(k)
			s.heads[k] = op
			return
		}
	}
}

// nextOp returns the stream's next operation in time order.
func (s *stream) nextOp() workload.Op {
	k := 0
	for i := 1; i < worlds; i++ {
		if s.heads[i].Time < s.heads[k].Time {
			k = i
		}
	}
	op := s.heads[k]
	s.pull(k)
	return op
}

// next returns the next n reports of the stream, skipping its queries.
func (s *stream) next(n int, reps []report) []report {
	start := time.Now()
	reps = reps[:0]
	for len(reps) < n {
		if op := s.nextOp(); op.Kind == workload.OpInsert {
			reps = append(reps, reportOf(op))
			s.clock = op.Time
		}
	}
	s.genTime += time.Since(start)
	s.genOps += n
	return reps
}

// probe returns the next probe report: a stationary, never-expiring
// object whose position encodes a sequence number, so a read of it
// tells which W body the reader can already see.
func (s *stream) probe() report {
	s.probeSeq++
	return report{id: probeID, t: s.clock,
		pos: [2]float64{float64(s.probeSeq % 1000), float64(s.probeSeq / 1000)}}
}

func encodeBody(buf []byte, reps []report) []byte {
	buf = buf[:0]
	for _, r := range reps {
		buf = appendRecord(buf, r)
	}
	return buf
}

// samples collects what one load loop measured inside the window.
type samples struct {
	latMs    []float64
	bytes    int64 // request bytes (W) or response bytes (R)
	units    int64 // reports acked (W) or results returned (R)
	chunks   int64 // UpdateBatch calls the server issued for W's bodies
	attempts int64
	failures int64
	refused  int64 // 429
	timeouts int64 // 504
}

// load is the closed loop of one served workload: W streams bodies to
// the leader and waits for each ack, R queries the read daemon back to
// back; both run from warm-up start to window end and record only
// requests that start and finish inside the window.
type load struct {
	st    *stream
	m     *model
	wconn *conn // to the leader
	rconn *conn // to the leader, or to the follower
	seed  int64

	follower bool // R reads a follower: probe reads measure lag

	// nearestFloor is the least clock offset R gives a nearest query.
	// The index refuses a nearest query whose time precedes the tree's
	// clock, and that clock moves with every body applied between the
	// server resolving "+N" and the tree checking it, so a query less
	// than a few bodies ahead of the clock can be refused (400) through
	// no fault of its own.  Three bodies' worth of stream time keeps
	// the workload free of failing operations.
	nearestFloor float64
	start, end   time.Time

	lastClock atomic.Uint64 // float64 bits: clock of W's last ack

	ackMu sync.Mutex
	acks  []time.Time // acks[seq-1]: when W saw body seq acknowledged

	w, r   samples
	lagMs  []float64 // per body: leader ack to first follower read showing it
	errs   []string
	errsMu sync.Mutex
}

func (l *load) inWindow(t0, t1 time.Time) bool { return !t0.Before(l.start) && !t1.After(l.end) }

func (l *load) fail(format string, args ...any) {
	l.errsMu.Lock()
	if len(l.errs) < 10 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
	l.errsMu.Unlock()
}

func (s *samples) note(status int) {
	s.failures++
	switch status {
	case http.StatusTooManyRequests:
		s.refused++
	case http.StatusGatewayTimeout:
		s.timeouts++
	}
}

// run drives both loops until the window ends.
func (l *load) run() {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); l.writer() }()
	go func() { defer wg.Done(); l.reader() }()
	wg.Wait()
}

// writer is W: a fleet gateway streaming 100-report NDJSON bodies.
func (l *load) writer() {
	var (
		reps []report
		body []byte
	)
	for time.Now().Before(l.end) {
		reps = l.st.next(bodySize-1, reps)
		reps = append(reps, l.st.probe())
		enc := time.Now()
		body = encodeBody(body, reps)
		l.st.genTime += time.Since(enc)

		t0 := time.Now()
		status, err := l.wconn.do("POST", "/v1/batch", body)
		t1 := time.Now()
		var ack batchAck
		if err == nil {
			if err = json.Unmarshal(l.wconn.buf.Bytes(), &ack); err == nil && ack.Applied != len(reps) {
				err = fmt.Errorf("batch: %d of %d reports applied", ack.Applied, len(reps))
			}
		}
		in := l.inWindow(t0, t1)
		if in {
			l.w.attempts++
		}
		if err != nil {
			// An unacknowledged body may or may not be applied; leave the
			// model alone and let the checks count what disagrees.
			l.fail("W: %v", err)
			if in {
				l.w.note(status)
			}
			l.ackMu.Lock()
			l.acks = append(l.acks, time.Time{})
			l.ackMu.Unlock()
			continue
		}
		l.m.apply(reps)
		l.lastClock.Store(math.Float64bits(ack.Clock))
		l.ackMu.Lock()
		l.acks = append(l.acks, t1)
		l.ackMu.Unlock()
		if in {
			l.w.latMs = append(l.w.latMs, t1.Sub(t0).Seconds()*1000)
			l.w.bytes += int64(len(body))
			l.w.units += int64(len(reps))
			l.w.chunks += int64(ack.Batches)
		}
	}
}

// reader is R: an LBS application issuing queries back to back, every
// probeEvery-th request reading the probe object instead.
func (l *load) reader() {
	rng := rand.New(rand.NewSource(l.seed + 1))
	seen := 0 // bodies whose probe a read has already shown
	for i := 1; time.Now().Before(l.end); i++ {
		if i%probeEvery == 0 {
			seen = l.readProbe(seen)
			continue
		}
		// The leader resolves "+N" times against its own clock.  A
		// follower cannot be asked that way: it refreshes its served
		// clock twice a second while its replica's clock advances with
		// every applied record, and it refuses (400) a query time that
		// falls between the two.  So a follower is asked in absolute
		// times at the leader's last acknowledged clock, which the
		// replica can never be ahead of.
		now := math.Float64frombits(l.lastClock.Load())
		q := drawQuery(rng, drawKind(rng), now, l.m.pick)
		if q.kind == qNearest {
			q.off1 = max(q.off1, l.nearestFloor)
		}
		t0 := time.Now()
		status, err := l.rconn.do("GET", q.pathQuery(now, l.follower), nil)
		t1 := time.Now()
		if !l.inWindow(t0, t1) {
			continue
		}
		l.r.attempts++
		if err != nil {
			l.fail("R: %v", err)
			l.r.note(status)
			continue
		}
		l.r.latMs = append(l.r.latMs, t1.Sub(t0).Seconds()*1000)
		l.r.bytes += int64(l.rconn.buf.Len())
		l.r.units += int64(countOf(l.rconn.buf.Bytes()))
	}
}

// readProbe reads the probe object and returns the newest body
// sequence number it shows.  Against a follower every body newly shown
// yields one visible-lag sample (its leader ack to this read's
// completion); against the leader itself the read must show every body
// acknowledged before it started — read-your-writes — or it failed.
func (l *load) readProbe(seen int) int {
	l.ackMu.Lock()
	acked := len(l.acks)
	l.ackMu.Unlock()

	t0 := time.Now()
	status, err := l.rconn.do("GET", "/v1/object?id="+strconv.Itoa(probeID), nil)
	t1 := time.Now()
	in := l.inWindow(t0, t1)
	if in {
		l.r.attempts++
	}
	shown := 0
	if err == nil {
		var rw row
		if err = json.Unmarshal(l.rconn.buf.Bytes(), &rw); err == nil && len(rw.Pos) == 2 {
			shown = int(rw.Pos[0]) + 1000*int(rw.Pos[1])
		}
	}
	if status == http.StatusNotFound && (acked == 0 || l.follower) {
		return seen // nothing written yet, or not replicated yet
	}
	if err != nil || (!l.follower && shown < acked) {
		if err == nil {
			err = fmt.Errorf("probe shows body %d after body %d was acknowledged", shown, acked)
		}
		l.fail("R: %v", err)
		if in {
			l.r.note(status)
		}
		return seen
	}
	if l.follower && shown > seen {
		l.ackMu.Lock()
		for seq := seen + 1; seq <= shown && seq <= len(l.acks); seq++ {
			if ack := l.acks[seq-1]; !ack.IsZero() && l.inWindow(ack, t1) {
				l.lagMs = append(l.lagMs, math.Max(0, t1.Sub(ack).Seconds()*1000))
			}
		}
		l.ackMu.Unlock()
	}
	return max(seen, shown)
}

// countOf reads the "count" field off a query response without
// decoding the rows (R is a load generator, not a JSON benchmark).
func countOf(body []byte) int {
	const key = `"count":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}
