package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rexptree"
	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/obs"
	"rexptree/internal/repl"
	"rexptree/internal/server"
	"rexptree/internal/storage"
)

// The traced pass measures the layers from outside, as a ladder: one
// goroutine replays a fixed sample of the workload's operations,
// entering the stack at a different rung each time — the loopback
// socket, Server.ServeHTTP, the ShardedTree call — and feeds the same
// operations to two twins, a single rexptree.Tree and a bare core.Tree.
// Every execution is a span; a layer's self time is its rung's median
// duration minus the median of the rung below.  Nothing inside the
// program is instrumented and the Trace* API is not used.

// span is one execution of one operation at one rung.
type span struct {
	Op     int    `json:"op"`
	Kind   string `json:"kind"` // "write" or the query type
	Rung   string `json:"rung"`
	Parent string `json:"parent,omitempty"` // the rung above
	Start  int64  `json:"start_ns"`         // since the ladder began
	End    int64  `json:"end_ns"`
}

// rung is one entry point into the stack.  Rungs of one group share an
// index, so a write enters at one of them (in rotation); every query
// runs at every rung.
type rung struct {
	name  string
	group int
	write func(body []byte, reps []report, now float64) error
	ask   func(q query, now float64) (results int, err error)
}

const (
	rungSocket  = "socket"
	rungHandler = "handler"
	rungShard   = "shard"
	rungTree    = "tree"
	rungCore    = "core"
)

type ladder struct {
	rungs  []rung
	began  time.Time
	spans  []span
	ms     map[string][]float64 // "<rung>/write", "<rung>/query": durations in ms
	checks checked              // every rung must return the same result count
	close  []func()

	twin       *coreTwin    // the bottom rung, for its counters
	twinBefore obs.Snapshot // its registry when the sample began
	results    int          // results the sample's queries returned (per rung)
}

// begin starts the timed sample: everything before it was warm-up.
func (ld *ladder) begin() {
	ld.twinBefore = ld.twin.met.Snapshot()
	ld.began = time.Now()
}

func (ld *ladder) timed(op int, kind string, i int, fn func() error) {
	r := ld.rungs[i]
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	sp := span{Op: op, Kind: kind, Rung: r.name, Start: t0.Sub(ld.began).Nanoseconds(), End: t1.Sub(ld.began).Nanoseconds()}
	if i > 0 {
		sp.Parent = ld.rungs[i-1].name
	}
	ld.spans = append(ld.spans, sp)
	key := r.name + "/query"
	if kind == "write" {
		key = r.name + "/write"
	}
	ld.ms[key] = append(ld.ms[key], t1.Sub(t0).Seconds()*1000)
	ld.checks.attempted++
	if err != nil {
		ld.checks.fail("ladder %s %s: %v", r.name, kind, err)
	}
}

// groups lists the rungs of each group, by index into ld.rungs.
func (ld *ladder) groups() [][]int {
	var gs [][]int
	for i, r := range ld.rungs {
		for len(gs) <= r.group {
			gs = append(gs, nil)
		}
		gs[r.group] = append(gs[r.group], i)
	}
	return gs
}

// write sends one write to one rung of every group, timed; n picks the
// rung.
func (ld *ladder) write(op, n int, body []byte, reps []report, now float64) {
	for _, members := range ld.groups() {
		i := members[n%len(members)]
		ld.timed(op, "write", i, func() error { return ld.rungs[i].write(body, reps, now) })
	}
}

// warm applies one write to every group's index, untimed: group 0
// through its lowest rung, and the groups side by side, since each has
// an index of its own and filling them is most of the traced pass.
func (ld *ladder) warm(body []byte, reps []report, now float64) {
	gs := ld.groups()
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for g, members := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = ld.rungs[members[len(members)-1]].write(body, reps, now)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			ld.checks.fail("ladder warm-up, group %d: %v", g, err)
		}
	}
}

// query runs q at every rung and requires one answer size from all.
func (ld *ladder) query(op int, q query, now float64) {
	counts := make([]int, len(ld.rungs))
	for i, r := range ld.rungs {
		ld.timed(op, kindNames[q.kind], i, func() (err error) {
			counts[i], err = r.ask(q, now)
			return err
		})
	}
	ld.results += counts[0]
	for i := range counts {
		if counts[i] != counts[0] {
			ld.checks.fail("ladder: %s answers %d results at rung %s, %d at rung %s",
				kindNames[q.kind], counts[0], ld.rungs[0].name, counts[i], ld.rungs[i].name)
			break
		}
	}
}

func (ld *ladder) med(key string) float64 { return median(ld.ms[key]) }

// self is a layer's self time: its rung's median minus the rung below.
func (ld *ladder) self(rungName, below, what string) float64 {
	return ld.med(rungName+"/"+what) - ld.med(below+"/"+what)
}

func (ld *ladder) shutdown() {
	for i := len(ld.close) - 1; i >= 0; i-- {
		ld.close[i]()
	}
}

// writeTrace writes the spans to bench/out/trace-<workload>.json.
func (ld *ladder) writeTrace(e *env, workload string) error {
	f, err := os.Create(filepath.Join(mkdir(filepath.Join(e.root, "bench", "out")), "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, s := range ld.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, `{"op":%d,"kind":%q,"rung":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`, s.Op, s.Kind, s.Rung, s.Parent, s.Start, s.End)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreTwin is the bottom rung: a bare core.Tree with its own metrics
// registry, driven the way rexptree.Tree drives its engine (one
// published batch per write; delete-then-insert per report).
type coreTwin struct {
	t    *core.Tree
	met  *obs.Metrics
	objs map[uint32]geom.MovingPoint
}

func newCoreTwin(bufferPages int) (*coreTwin, error) {
	met := obs.New()
	t, err := core.New(core.Config{
		Dims: 2, BRKind: hull.KindNearOptimal, ExpireAware: true, AlgsUseExp: true,
		BufferPages: bufferPages, Metrics: met,
	}, storage.NewMemStore())
	if err != nil {
		return nil, err
	}
	return &coreTwin{t: t, met: met, objs: make(map[uint32]geom.MovingPoint)}, nil
}

func (c *coreTwin) write(_ []byte, reps []report, now float64) error {
	c.t.BeginBatch()
	defer c.t.EndBatch()
	for _, r := range reps {
		if old, ok := c.objs[r.id]; ok {
			if _, err := c.t.Delete(r.id, old, now); err != nil {
				return err
			}
			delete(c.objs, r.id)
		}
		mp := r.stored()
		if err := c.t.Insert(r.id, mp, now); err != nil {
			return err
		}
		c.objs[r.id] = mp
	}
	return nil
}

func (c *coreTwin) ask(q query, now float64) (int, error) {
	if q.kind == qNearest {
		rs, err := c.t.NearestSnap(q.r1.Center(2), now+q.off1, nearestK, now)
		return len(rs), err
	}
	rs, err := c.t.SearchSnap(q.region(now), now)
	return len(rs), err
}

func indexRung(name string, group int, ix index, after func(now float64)) rung {
	return rung{name: name, group: group,
		write: func(_ []byte, reps []report, now float64) error {
			err := write(ix, reps, now)
			if after != nil {
				after(now)
			}
			return err
		},
		ask: func(q query, now float64) (int, error) {
			rs, err := ask(ix, q, now)
			return len(rs), err
		},
	}
}

// servedLadder builds the five rungs of a served workload in this
// process, configured like the daemon: the same shard count, buffer
// budget, durability, flight recorder and (durable) replication hub.
func servedLadder(s served, dir string) (*ladder, error) {
	ld := &ladder{ms: map[string][]float64{}}
	opts := rexptree.DefaultOptions()
	opts.FlightRecorder = 256 // rexpd's default
	opts.BufferPages = 4096
	if s.durable {
		opts.BufferPages = durablePoolPages
		opts.Durability = rexptree.DurabilityOnCommit
		opts.Path = filepath.Join(dir, "idx")
	}
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: shards})
	if err != nil {
		return nil, err
	}
	ld.close = append(ld.close, func() { ix.Close() })
	scfg := server.Config{Index: ix, RequestTimeout: 30 * time.Second, Pprof: true, RuntimeMetrics: true}
	if s.durable {
		hub := repl.NewHub(ix, repl.DefaultRetainBytes)
		scfg.Backup, scfg.WALFeed, scfg.ReplStats = hub.BackupHandler(), hub.WALHandler(), hub.Stats
		ld.close = append(ld.close, hub.Close)
	}
	srv := server.New(scfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ld.shutdown()
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() { defer close(served); hs.Serve(ln) }()
	cn := newConn("http://" + ln.Addr().String())
	ld.close = append(ld.close, func() { cn.close(); hs.Close(); <-served })

	topts := opts
	if s.durable {
		topts.Path = filepath.Join(dir, "twin")
	}
	tr, err := rexptree.Open(topts)
	if err != nil {
		ld.shutdown()
		return nil, err
	}
	ld.close = append(ld.close, func() { tr.Close() })
	twin, err := newCoreTwin(opts.BufferPages)
	if err != nil {
		ld.shutdown()
		return nil, err
	}

	handle := func(method, target string, body []byte) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return rec, fmt.Errorf("%s %s: %d: %s", method, target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return rec, nil
	}
	ld.rungs = []rung{
		{name: rungSocket, group: 0,
			write: func(body []byte, _ []report, _ float64) error {
				_, err := cn.do("POST", "/v1/batch", body)
				return err
			},
			ask: func(q query, _ float64) (int, error) {
				_, err := cn.do("GET", q.pathQuery(0, false), nil)
				return countOf(cn.buf.Bytes()), err
			}},
		{name: rungHandler, group: 0,
			write: func(body []byte, _ []report, _ float64) error {
				_, err := handle("POST", "/v1/batch", body)
				return err
			},
			ask: func(q query, _ float64) (int, error) {
				rec, err := handle("GET", q.pathQuery(0, false), nil)
				return countOf(rec.Body.Bytes()), err
			}},
		// A write below the server must still advance the server's
		// clock, or the upper rungs would resolve "+N" against a stale
		// one.
		indexRung(rungShard, 0, ix, srv.ObserveClock),
		indexRung(rungTree, 1, tr, nil),
		{name: rungCore, group: 2, write: twin.write, ask: twin.ask},
	}
	ld.twin = twin
	return ld, nil
}
