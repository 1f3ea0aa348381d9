package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// env is what every workload run needs from its surroundings.
type env struct {
	root  string // checkout root
	rexpd string // built daemon binary
	tmp   string // scratch directory inside the checkout, per run
}

// sizes are the workload dimensions.  They are constants of the
// benchmark (defaultSizes), not flags: BENCHMARK.json fixes the window
// length and everything else is fixed here; only the smoke test
// substitutes smaller ones.
type sizes struct {
	objects      int           // served population
	warm         time.Duration // served warm-up before the window
	setups       int           // set-ups per untraced run; setup_s is their median
	checkQueries int           // post-window oracle queries per type
	engineRate   int           // engine_paper insertions per second of --seconds
	ladderBodies int           // traced pass: write bodies replayed through the ladder
}

var defaultSizes = sizes{
	objects:      20000,
	warm:         2 * time.Second,
	setups:       3,
	checkQueries: 200,
	engineRate:   7000,
	ladderBodies: 240,
}

// served describes one of the three served workloads.
type served struct {
	name     string
	durable  bool // -path + -durability on-commit, durablePoolPages
	follower bool // plus a rexpd -follow that R reads from
}

var servedWorkloads = map[string]served{
	wlServeMem:      {name: wlServeMem},
	wlServeDurable:  {name: wlServeDurable, durable: true},
	wlServeFollower: {name: wlServeFollower, durable: true, follower: true},
}

const shards = 4

// durablePoolPages is the buffer budget of the durable daemons, 16
// pages a shard.  The issue's serve_durable is 50 000 objects under the
// default 50 pages a shard; the run budget allows 20 000 objects, whose
// ~170-page index would fit that pool whole and leave storage idle.
// One serve_durable window measured at each size (seed 5, 2 CPUs):
//
//	objects  pool  io/report  hit rate  WAL B/report  fsyncs/body  checkpoints/body
//	 50 000   200    3.21       0.87       2840          5.3           0.65
//	 20 000   200    0          1.00         85          4.0           0
//	 20 000    80    1.67       0.93       2714          7.8           1.9
//	 20 000    64    2.92       0.84       3158          8.1           2.0
//	 20 000    48    4.04       0.78       4073         10.5           3.3
//
// 64 pages reproduce the full-size pool traffic, hit rate and WAL
// volume per report; checkpoints stay more frequent (and smaller) than
// at full size, because a 100-report body dirties about as many pages
// as a 16-page shard cache holds.
const durablePoolPages = 64

// leaderArgs are the daemon flags of the workload: serve_mem holds the
// index in memory under a cache it fits in (4096 pages); the durable
// workloads run on a file with a cache well under half the index, so
// the pool has to evict, write back and checkpoint.
func (s served) leaderArgs(dir string) []string {
	if !s.durable {
		return []string{"-shards", strconv.Itoa(shards), "-buffer-pages", "4096"}
	}
	return []string{"-shards", strconv.Itoa(shards), "-buffer-pages", strconv.Itoa(durablePoolPages),
		"-path", filepath.Join(dir, "idx"), "-durability", "on-commit"}
}

// cluster is the running daemons of one set-up.
type cluster struct {
	leader, follower *daemon
	dir              string
	bootstrap        time.Duration // follower spawn to ready
	snapBytes        float64       // leader bytes streamed to bootstrap it
}

func (c *cluster) daemons() []*daemon {
	if c.follower != nil {
		return []*daemon{c.follower, c.leader}
	}
	return []*daemon{c.leader}
}

func (c *cluster) kill() {
	for _, d := range c.daemons() {
		d.kill()
	}
	os.RemoveAll(c.dir)
}

// setUp is what setup_s times: spawn the leader, wait until it serves,
// preload the population, and — on serve_follower — spawn the follower
// and wait until it has bootstrapped and serves.
func (s served) setUp(ctx context.Context, e *env, n int, bodies [][]byte) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{dir: filepath.Join(e.tmp, fmt.Sprintf("%s-%d", s.name, n))}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, 0, err
	}
	var err error
	if c.leader, err = spawn(ctx, e.rexpd, s.leaderArgs(c.dir)...); err != nil {
		return nil, 0, err
	}
	lc := newConn(c.leader.base)
	defer lc.close()
	for _, body := range bodies {
		if _, err := lc.do("POST", "/v1/batch", body); err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
	}
	if s.follower {
		fstart := time.Now()
		c.follower, err = spawn(ctx, e.rexpd, "-follow", c.leader.base, "-path", filepath.Join(c.dir, "replica"))
		if err != nil {
			c.leader.kill()
			os.RemoveAll(c.dir)
			return nil, 0, err
		}
		c.bootstrap = time.Since(fstart)
		if sc, err := lc.scrape(); err == nil {
			c.snapBytes = sc[mSnapBytes]
		}
	}
	return c, time.Since(start), nil
}

// edge is everything read at one edge of the measured window.
type edge struct {
	leader, reads series // reads: the daemon R queries (the follower, or the leader again)
	cpu           float64
	rssPeakMB     float64
	self          procUsage
}

func (c *cluster) edge() (edge, error) {
	var e edge
	lc := newConn(c.leader.base)
	defer lc.close()
	var err error
	if e.leader, err = lc.scrape(); err != nil {
		return e, err
	}
	e.reads = e.leader
	if c.follower != nil {
		fc := newConn(c.follower.base)
		defer fc.close()
		if e.reads, err = fc.scrape(); err != nil {
			return e, err
		}
	}
	for _, d := range c.daemons() {
		u := usageOf(d.cmd.Process.Pid)
		e.cpu += u.cpuSeconds
		e.rssPeakMB += u.rssPeakMB
	}
	e.self = usageOf(os.Getpid())
	return e, nil
}

// run is one run of a served workload.
func (s served) run(ctx context.Context, e *env, sz sizes, seed int64, window time.Duration, trace bool) (*result, error) {
	res := &result{Workload: s.name, Seed: seed, Seconds: window.Seconds(), Trace: trace, Metrics: map[string]metric{}}
	st, err := newStream(seed, sz.objects, math.MaxInt32) // no stream queries: R draws its own
	if err != nil {
		return nil, err
	}

	// The preload is the stream up to one update interval: by then the
	// whole population has entered (§5.1 introduces it over the first
	// UI).  Generated once, posted at every set-up.
	var (
		preload []report
		bodies  [][]byte
	)
	for st.clock < paperUI {
		chunk := st.next(1000, nil)
		preload = append(preload, chunk...)
		bodies = append(bodies, encodeBody(nil, chunk))
	}

	// Set up several times and report the median; the last set-up is
	// the one the window runs against.  The traced pass reports no
	// setup_s and sets up once.
	setups := sz.setups
	if trace {
		setups = 1
	}
	var (
		c      *cluster
		setupS []float64
	)
	for n := 0; n < setups; n++ {
		if c != nil {
			c.kill()
		}
		var took time.Duration
		if c, took, err = s.setUp(ctx, e, n, bodies); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	alive := true
	defer func() {
		if alive {
			c.kill()
		}
	}()
	res.Metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", Samples: len(setupS)}

	m := newModel()
	m.apply(preload)
	l := &load{st: st, m: m, seed: seed, follower: s.follower,
		nearestFloor: 3 * bodySize * paperUI / float64(sz.objects),
		wconn:        newConn(c.leader.base), rconn: newConn(c.leader.base)}
	if s.follower {
		l.rconn = newConn(c.follower.base)
	}
	defer l.wconn.close()
	defer l.rconn.close()
	st.genTime, st.genOps = 0, 0
	l.start = time.Now().Add(sz.warm)
	l.end = l.start.Add(window)
	done := make(chan struct{})
	go func() { defer close(done); l.run() }()

	w := &windowed{l: l, c: c, window: window}
	time.Sleep(time.Until(l.start))
	if w.e1, err = c.edge(); err != nil {
		<-done
		return nil, err
	}
	if trace && s.follower {
		w.lagBytesMax = s.watchLag(c, l.end)
	} else {
		time.Sleep(time.Until(l.end))
	}
	w.e2, err = c.edge()
	<-done
	if err != nil {
		return nil, err
	}
	res.add(&checked{attempted: l.w.attempts + l.r.attempts, failed: l.w.failures + l.r.failures, notes: l.errs})

	// Quiesced: check the answers against the oracle.
	ck, err := s.check(c, sz, seed, m)
	if err != nil {
		return nil, err
	}
	res.add(ck)
	if s.durable && !s.follower {
		cr, err := s.crashCheck(ctx, e, c, m, ck.clock)
		if err != nil {
			return nil, err
		}
		w.recovery = cr.recovery
		res.add(&cr.checked)
		res.Notes = append(res.Notes, "crash check: a process kill leaves the OS page cache intact, so it proves WAL replay, not the device's flush")
	}

	// Graceful stop, timed: followers first so the leader's feed
	// handlers are idle when it drains.
	alive = false
	for _, d := range c.daemons() {
		stop := &checked{attempted: 1}
		took, err := d.drain()
		if err != nil {
			stop.fail("drain: %v", err)
		}
		res.add(stop)
		w.drain += took
	}
	os.RemoveAll(c.dir)

	w.endToEnd(res)
	if trace {
		if err := s.layers(e, res, sz, seed, w); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// windowed is what a served run measured around and after its window.
type windowed struct {
	l               *load
	c               *cluster
	window          time.Duration
	e1, e2          edge
	lagBytesMax     float64       // follower, traced pass
	drain, recovery time.Duration // SIGTERM to exit; SIGKILL to serving again
}

// endToEnd fills the end-to-end metrics of a served run.
func (w *windowed) endToEnd(res *result) {
	l, e1, e2 := w.l, w.e1, w.e2
	secs := w.window.Seconds()
	nw, nr := len(l.w.latMs), len(l.r.latMs)
	res.put("reports_per_s", "1/s", float64(l.w.units)/secs, 0)
	res.put("write_p50_ms", "ms", percentile(l.w.latMs, 0.50), nw)
	res.put("write_p95_ms", "ms", percentile(l.w.latMs, 0.95), nw)
	res.put("queries_per_s", "1/s", float64(nr)/secs, 0)
	res.put("query_p50_ms", "ms", percentile(l.r.latMs, 0.50), nr)
	res.put("query_p95_ms", "ms", percentile(l.r.latMs, 0.95), nr)
	dl, dr := e2.leader.sub(e1.leader), e2.reads.sub(e1.reads)
	res.put("nodes_per_query", "count", ratio(dr[mNodeVisits], dr.queries()), 0)
	res.put("io_per_report", "count", ratio(dl[mReads]+dl[mWrites], dl[mBatched]), 0)
	res.put("index_pages", "count", e2.leader[mIndexPages], 0)
}

// watchLag samples the follower's unapplied feed bytes every 250 ms
// until the window ends and returns the largest value seen (traced
// pass only: a scrape costs the follower CPU).
func (s served) watchLag(c *cluster, until time.Time) float64 {
	fc := newConn(c.follower.base)
	defer fc.close()
	var worst float64
	for time.Now().Before(until) {
		if sc, err := fc.scrape(); err == nil && sc[mLagBytes] > worst {
			worst = sc[mLagBytes]
		}
		time.Sleep(min(250*time.Millisecond, time.Until(until)))
	}
	return worst
}

// checked is the outcome of a correctness pass.
type checked struct {
	attempted, failed int64
	notes             []string
	clock             float64 // the quiesced logical clock the pass ran at
}

func (ck *checked) fail(format string, args ...any) {
	ck.failed++
	if len(ck.notes) < 10 {
		ck.notes = append(ck.notes, fmt.Sprintf(format, args...))
	}
}

// check runs the fixed question set against the quiesced daemons: every
// answer must equal the oracle's element-wise — on serve_follower the
// follower's too, once it has caught up.
func (s served) check(c *cluster, sz sizes, seed int64, m *model) (*checked, error) {
	ck := &checked{}
	lc := newConn(c.leader.base)
	defer lc.close()
	var stats statsAck
	if err := lc.getJSON("/v1/stats", &stats); err != nil {
		return nil, err
	}
	ck.clock = stats.Clock

	var fc *conn
	if c.follower != nil {
		fc = newConn(c.follower.base)
		defer fc.close()
		ck.attempted++
		if err := awaitCatchUp(lc, fc); err != nil {
			ck.fail("follower: %v", err)
		}
	}

	// The follower is held to the oracle like the leader (not to the
	// leader's bytes: objects parked at one destination sit at exactly
	// equal distances, and which of them closes a nearest answer
	// depends on tree shape, which the two do not share).
	conns := []*conn{lc}
	if fc != nil {
		conns = append(conns, fc)
	}
	for _, q := range checkQueries(seed+2, sz.checkQueries, ck.clock, m) {
		pq := q.pathQuery(ck.clock, true)
		for _, cn := range conns {
			ck.attempted++
			var ack queryAck
			if err := cn.getJSON(pq, &ack); err != nil {
				ck.fail("check: %v", err)
			} else if err := m.verify(q, ck.clock, resultsOf(ack.Results)); err != nil {
				ck.fail("check: %s%s: %v", cn.base, pq, err)
			}
		}
	}
	return ck, nil
}

// awaitCatchUp waits until the follower has applied every record the
// (now idle) leader has fed.
func awaitCatchUp(leader, follower *conn) error {
	ls, err := leader.scrape()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		fs, err := follower.scrape()
		if err != nil {
			return err
		}
		if fs[mAppliedLSN] >= ls[mFeedRecords] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not caught up after 30s: applied lsn %.0f of %.0f", fs[mAppliedLSN], ls[mFeedRecords])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// expiresAtClock reports whether texp equals the clock to within the
// page format's float32 rounding.  The live index keeps such a report
// until float32(texp) < clock, recovery drops it when the unrounded
// texp <= clock, so right at the clock either answer is correct and the
// crash check does not ask.
func expiresAtClock(texp, clock float64) bool {
	c := float32(clock)
	ulp := float64(math.Nextafter32(c, float32(math.Inf(1))) - c)
	return math.Abs(texp-clock) <= 2*ulp
}

// crashed is the outcome of the crash check.
type crashed struct {
	checked
	recovery time.Duration
}

// crashCheck SIGKILLs the durable leader, restarts it on the same path
// and requires every acknowledged report to be readable: an object
// whose report is still valid at the quiesced clock must come back
// with its stored trajectory, an expired one must be absent.  The
// restarted daemon replaces c.leader.
func (s served) crashCheck(ctx context.Context, e *env, c *cluster, m *model, clock float64) (*crashed, error) {
	cr := &crashed{}
	c.leader.kill()
	start := time.Now()
	d, err := spawn(ctx, e.rexpd, s.leaderArgs(c.dir)...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	cr.recovery = time.Since(start)
	c.leader = d

	// Two connections read, half the ids each.
	var (
		wg    sync.WaitGroup
		parts [2]checked
	)
	for half := range parts {
		wg.Add(1)
		go func(part *checked, ids []uint32) {
			defer wg.Done()
			cn := newConn(d.base)
			defer cn.close()
			for _, id := range ids {
				mp := m.recs[id]
				if expiresAtClock(mp.TExp, clock) {
					continue
				}
				part.attempted++
				status, err := cn.do("GET", fmt.Sprintf("/v1/object?id=%d&now=%s", id, strconv.FormatFloat(clock, 'g', -1, 64)), nil)
				if mp.TExp < clock {
					if status != http.StatusNotFound {
						part.fail("crash check: expired object %d answered %d", id, status)
					}
					continue
				}
				var rw row
				if err == nil {
					err = json.Unmarshal(cn.buf.Bytes(), &rw)
				}
				if err == nil {
					err = sameTrajectory(resultsOf([]row{rw})[0].Point, mp)
				}
				if err != nil {
					part.fail("crash check: acked object %d: %v", id, err)
				}
			}
		}(&parts[half], m.ids[half*len(m.ids)/2:(half+1)*len(m.ids)/2])
	}
	wg.Wait()
	for i := range parts {
		cr.attempted += parts[i].attempted
		cr.failed += parts[i].failed
		cr.notes = append(cr.notes, parts[i].notes...)
	}
	return cr, nil
}
