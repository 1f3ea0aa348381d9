package main

import (
	"fmt"
	"math"
	"time"

	"rexptree"
	"rexptree/internal/geom"
	"rexptree/internal/workload"
)

// index is the surface rexptree.Tree and rexptree.ShardedTree share;
// the engine workload and the ladder's in-process rungs drive it.
type index interface {
	Update(id uint32, p rexptree.Point, now float64) error
	UpdateBatch(batch []rexptree.Report, now float64) error
	Timeslice(r rexptree.Rect, at, now float64) ([]rexptree.Result, error)
	Window(r rexptree.Rect, t1, t2, now float64) ([]rexptree.Result, error)
	Moving(r1, r2 rexptree.Rect, t1, t2, now float64) ([]rexptree.Result, error)
	Nearest(pos rexptree.Vec, at float64, k int, now float64) ([]rexptree.Result, error)
	Metrics() rexptree.Metrics
}

func pubRect(r geom.Rect) rexptree.Rect {
	return rexptree.Rect{Lo: rexptree.Vec(r.Lo), Hi: rexptree.Vec(r.Hi)}
}

// ask runs q against ix at clock now.
func ask(ix index, q query, now float64) ([]rexptree.Result, error) {
	switch q.kind {
	case qTimeslice:
		return ix.Timeslice(pubRect(q.r1), now+q.off1, now)
	case qWindow:
		return ix.Window(pubRect(q.r1), now+q.off1, now+q.off2, now)
	case qMoving:
		return ix.Moving(pubRect(q.r1), pubRect(q.r2), now+q.off1, now+q.off2, now)
	default:
		return ix.Nearest(rexptree.Vec(q.r1.Center(2)), now+q.off1, nearestK, now)
	}
}

func write(ix index, reps []report, now float64) error {
	if len(reps) == 1 {
		return ix.Update(reps[0].id, reps[0].point(), now)
	}
	batch := make([]rexptree.Report, len(reps))
	for i, r := range reps {
		batch[i] = rexptree.Report{ID: r.id, Point: r.point()}
	}
	return ix.UpdateBatch(batch, now)
}

// queryOf converts a generated paper query to clock-relative form.
func queryOf(op workload.Op) query {
	g := op.Query
	q := query{off1: g.T1 - op.Time, off2: g.T2 - op.Time, r1: g.Region.At(g.T1), r2: g.Region.At(g.T2)}
	switch workload.KindOfQuery(g) {
	case "timeslice":
		q.kind = qTimeslice
	case "window":
		q.kind = qWindow
	default:
		q.kind = qMoving
	}
	return q
}

// engineOp is one step of the paper's stream: a report, or — when q is
// set — a query, at stream time t.
type engineOp struct {
	rep report
	q   *query
	t   float64
}

// paperStream generates the engine_paper inputs: the preload (the
// stream's first update interval, during which the population enters)
// and then the measured work — a fixed number of insertions with the
// paper's one query per hundred.  Deletions are folded into the
// updates that cause them: rexptree.Tree.Update replaces the object's
// previous report itself.
func paperStream(seed int64, objects, insertions int) (preload []report, ops []engineOp, err error) {
	st, err := newStream(seed, objects, 100)
	if err != nil {
		return nil, nil, err
	}
	done := 0
	for done < insertions {
		op := st.nextOp()
		switch {
		case op.Kind == workload.OpInsert && op.Time < paperUI:
			preload = append(preload, reportOf(op))
		case op.Kind == workload.OpInsert:
			ops = append(ops, engineOp{rep: reportOf(op), t: op.Time})
			done++
		case op.Kind == workload.OpQuery && op.Time >= paperUI:
			q := queryOf(op)
			ops = append(ops, engineOp{q: &q, t: op.Time})
		}
	}
	return preload, ops, nil
}

// runEngine is the engine_paper workload: no server, one goroutine
// replaying the paper's §5.1 stream into a default rexptree.Tree with
// the paper's 50-page buffer, as fixed work (--seconds sets how much,
// at a fixed rate, so the counts of a seed repeat exactly).
func runEngine(e *env, sz sizes, seed int64, window time.Duration, trace bool) (*result, error) {
	res := &result{Workload: wlEnginePaper, Seed: seed, Seconds: window.Seconds(), Trace: trace, Metrics: map[string]metric{}}
	insertions := int(window.Seconds() * float64(sz.engineRate))
	preload, ops, err := paperStream(seed, sz.objects, insertions)
	if err != nil {
		return nil, err
	}
	if trace {
		return res, engineLadder(e, res, preload, ops)
	}

	// Set-up — open the tree and load the population — several times;
	// the last tree is the one measured.
	var (
		tr     *rexptree.Tree
		setupS []float64
	)
	for n := 0; n < sz.setups; n++ {
		if tr != nil {
			tr.Close()
		}
		start := time.Now()
		if tr, err = rexptree.Open(rexptree.DefaultOptions()); err != nil {
			return nil, err
		}
		for _, r := range preload {
			if err := tr.Update(r.id, r.point(), r.t); err != nil {
				tr.Close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer tr.Close()
	m := newModel()
	m.apply(preload)

	var (
		writeMs = make([]float64, 0, insertions)
		queryMs []float64
		clock   float64
	)
	before := tr.Metrics()
	start := time.Now()
	ck := &checked{}
	for _, op := range ops {
		clock = op.t
		ck.attempted++
		t0 := time.Now()
		if op.q != nil {
			_, err = ask(tr, *op.q, op.t)
			queryMs = append(queryMs, time.Since(t0).Seconds()*1000)
		} else {
			err = tr.Update(op.rep.id, op.rep.point(), op.t)
			writeMs = append(writeMs, time.Since(t0).Seconds()*1000)
		}
		if err != nil {
			ck.fail("replay: %v", err)
		}
	}
	elapsed := time.Since(start).Seconds()
	d := tr.Metrics().Sub(before)
	for _, op := range ops {
		if op.q == nil {
			m.apply([]report{op.rep})
		}
	}

	for _, q := range checkQueries(seed+2, sz.checkQueries, clock, m) {
		ck.attempted++
		got, err := ask(tr, q, clock)
		if err == nil {
			err = m.verify(q, clock, got)
		}
		if err != nil {
			ck.fail("check: %v", err)
		}
	}
	res.add(ck)

	nw, nq := len(writeMs), len(queryMs)
	res.put("setup_s", "s", median(setupS), len(setupS))
	res.put("reports_per_s", "1/s", float64(nw)/elapsed, 0)
	res.put("write_p50_ms", "ms", percentile(writeMs, 0.50), nw)
	res.put("write_p95_ms", "ms", percentile(writeMs, 0.95), nw)
	res.put("queries_per_s", "1/s", float64(nq)/elapsed, 0)
	res.put("query_p50_ms", "ms", percentile(queryMs, 0.50), nq)
	res.put("query_p95_ms", "ms", percentile(queryMs, 0.95), nq)
	res.put("nodes_per_query", "count", ratio(float64(d.QueryNodeVisits), float64(nq)), 0)
	res.put("io_per_report", "count", ratio(float64(d.BufferReads+d.BufferWrites), float64(nw)), 0)
	res.put("index_pages", "count", float64(d.Pages), 0)
	if math.Abs(elapsed-window.Seconds()) > window.Seconds()/2 {
		res.Notes = append(res.Notes, fmt.Sprintf("the fixed work took %.1fs on this host against a %.0fs window", elapsed, window.Seconds()))
	}
	return res, nil
}
