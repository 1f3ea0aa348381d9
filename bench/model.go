package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"rexptree"
	"rexptree/internal/geom"
	"rexptree/internal/workload"
)

// report is one positional report in wire form: position at time t,
// velocity, absolute expiry (0 = never).
type report struct {
	id       uint32
	pos, vel [2]float64
	t, exp   float64
}

func (r report) point() rexptree.Point {
	p := rexptree.Point{Time: r.t, Expires: r.exp}
	copy(p.Pos[:], r.pos[:])
	copy(p.Vel[:], r.vel[:])
	if r.exp == 0 {
		p.Expires = rexptree.NoExpiry()
	}
	return p
}

// stored returns the record as the index keeps it: the epoch
// representation (position at t = 0) rounded to the page format's
// float32 — the two steps rexptree.Tree.Update and core.Tree.Insert
// apply — so the oracle compares against exactly what a correct index
// must return.  TestStoredMatchesIndex pins it to the real thing.
func (r report) stored() geom.MovingPoint {
	var mp geom.MovingPoint
	for i := 0; i < 2; i++ {
		mp.Vel[i] = float64(float32(r.vel[i]))
		mp.Pos[i] = float64(float32(r.pos[i] - r.vel[i]*r.t))
	}
	mp.TExp = math.Inf(1)
	if r.exp != 0 {
		mp.TExp = float64(float32(r.exp))
	}
	return mp
}

// appendRecord appends the report's NDJSON ingest line.
func appendRecord(b []byte, r report) []byte {
	f := func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'g', -1, 64) }
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, uint64(r.id), 10)
	b = append(b, `,"pos":[`...)
	b = f(b, r.pos[0])
	b = append(b, ',')
	b = f(b, r.pos[1])
	b = append(b, `],"vel":[`...)
	b = f(b, r.vel[0])
	b = append(b, ',')
	b = f(b, r.vel[1])
	b = append(b, `],"time":`...)
	b = f(b, r.t)
	if r.exp != 0 {
		b = append(b, `,"expires":`...)
		b = f(b, r.exp)
	}
	return append(b, "}\n"...)
}

// reportOf converts a generated insertion to wire form.
func reportOf(op workload.Op) report {
	at := op.Point.At(op.Time)
	r := report{id: op.OID, t: op.Time, pos: [2]float64{at[0], at[1]}, vel: [2]float64{op.Point.Vel[0], op.Point.Vel[1]}}
	if geom.IsFinite(op.Point.TExp) {
		r.exp = op.Point.TExp
	}
	return r
}

// model is the brute-force reference: the last acknowledged report of
// every object, in stored form.  The writer applies acks, the reader
// picks trajectories for moving queries, the checks scan it linearly.
type model struct {
	mu   sync.Mutex
	recs map[uint32]geom.MovingPoint
	ids  []uint32
}

func newModel() *model { return &model{recs: make(map[uint32]geom.MovingPoint)} }

func (m *model) apply(rs []report) {
	m.mu.Lock()
	for _, r := range rs {
		if _, seen := m.recs[r.id]; !seen {
			m.ids = append(m.ids, r.id)
		}
		m.recs[r.id] = r.stored()
	}
	m.mu.Unlock()
}

// pick returns the trajectory of a random known object.
func (m *model) pick(rng *rand.Rand) (geom.MovingPoint, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ids) == 0 {
		return geom.MovingPoint{}, false
	}
	return m.recs[m.ids[rng.Intn(len(m.ids))]], true
}

// The four query types.  The served mix is 0.45/0.15/0.15/0.25: the
// paper's 0.6/0.2/0.2 (§5.1) scaled to leave a quarter for k-NN.
type queryKind int

const (
	qTimeslice queryKind = iota
	qWindow
	qMoving
	qNearest
	numQueryKinds
)

var kindNames = [numQueryKinds]string{"timeslice", "window", "moving", "nearest"}

const nearestK = 10

// query is one query with clock-relative times: off1/off2 are added to
// whatever clock the query is evaluated at.
type query struct {
	kind       queryKind
	r1, r2     geom.Rect // r2: the moving query's end rectangle
	off1, off2 float64
}

func drawKind(rng *rand.Rand) queryKind {
	switch u := rng.Float64(); {
	case u < 0.45:
		return qTimeslice
	case u < 0.60:
		return qWindow
	case u < 0.75:
		return qMoving
	default:
		return qNearest
	}
}

// drawQuery draws one query of the given kind the way the paper's
// generator does (workload.genQuery): a square of 0.25 % of the space,
// times within W = UI/2 of the clock, a moving query's centre following
// the trajectory of a known object (pick) from now+off1 to now+off2.  A
// nearest query asks for the k objects around the square's centre.
func drawQuery(rng *rand.Rand, kind queryKind, now float64, pick func(*rand.Rand) (geom.MovingPoint, bool)) query {
	const w = paperUI / 2
	side := (workload.Space.Hi[0] - workload.Space.Lo[0]) * math.Sqrt(0.0025)
	randRect := func() geom.Rect {
		var r geom.Rect
		for i := 0; i < 2; i++ {
			lo := workload.Space.Lo[i] + rng.Float64()*(workload.Space.Hi[i]-workload.Space.Lo[i]-side)
			r.Lo[i], r.Hi[i] = lo, lo+side
		}
		return r
	}
	a, b := rng.Float64()*w, rng.Float64()*w
	q := query{kind: kind, off1: math.Min(a, b), off2: math.Max(a, b)}
	if q.off2 == q.off1 {
		q.off2 += 1e-6
	}
	q.r1 = randRect()
	if kind == qMoving {
		rec, ok := pick(rng)
		if !ok {
			q.kind = qWindow
			return q
		}
		centered := func(c geom.Vec) geom.Rect {
			var r geom.Rect
			for i := 0; i < 2; i++ {
				r.Lo[i], r.Hi[i] = c[i]-side/2, c[i]+side/2
			}
			return r
		}
		q.r1, q.r2 = centered(rec.At(now+q.off1)), centered(rec.At(now+q.off2))
	}
	return q
}

// pathQuery renders the query's GET target.  With abs false the times
// are "+off" (resolved by the server against its clock); with abs true
// they are absolute from now and now itself is passed explicitly, so
// the same string asks a leader and a follower the same question.
func (q query) pathQuery(now float64, abs bool) string {
	b := make([]byte, 0, 160)
	f := func(x float64) { b = strconv.AppendFloat(b, x, 'g', -1, 64) }
	vec := func(name string, v geom.Vec) {
		b = append(b, name...)
		f(v[0])
		b = append(b, ',')
		f(v[1])
	}
	tm := func(name string, off float64) {
		b = append(b, name...)
		if abs {
			f(now + off)
		} else {
			b = append(b, "%2B"...)
			f(off)
		}
	}
	b = append(b, "/v1/"...)
	b = append(b, kindNames[q.kind]...)
	switch q.kind {
	case qTimeslice:
		vec("?lo=", q.r1.Lo)
		vec("&hi=", q.r1.Hi)
		tm("&at=", q.off1)
	case qWindow:
		vec("?lo=", q.r1.Lo)
		vec("&hi=", q.r1.Hi)
		tm("&t1=", q.off1)
		tm("&t2=", q.off2)
	case qMoving:
		vec("?lo1=", q.r1.Lo)
		vec("&hi1=", q.r1.Hi)
		vec("&lo2=", q.r2.Lo)
		vec("&hi2=", q.r2.Hi)
		tm("&t1=", q.off1)
		tm("&t2=", q.off2)
	case qNearest:
		vec("?pos=", q.r1.Center(2))
		b = append(b, "&k="...)
		b = strconv.AppendInt(b, nearestK, 10)
		tm("&at=", q.off1)
	}
	if abs {
		b = append(b, "&now="...)
		f(now)
	}
	return string(b)
}

// region is the query's trapezoid at clock now (nearest has none).
func (q query) region(now float64) geom.Query {
	switch q.kind {
	case qTimeslice:
		return geom.Timeslice(q.r1, now+q.off1)
	case qWindow:
		return geom.Window(q.r1, now+q.off1, now+q.off2)
	default:
		return geom.Moving(q.r1, q.r2, now+q.off1, now+q.off2, 2)
	}
}

// answer is the oracle: a linear scan of the model with the paper's
// expiry rule — a report is absent once the query time passes t_exp
// (a trajectory is matched over [t1, min(t2, t_exp)], §4.1.5; a
// nearest neighbour must still be valid at the query instant).  Region
// results come in ascending id, nearest results nearest first.
func (m *model) answer(q query, now float64) []uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q.kind != qNearest {
		gq := q.region(now)
		var ids []uint32
		for id, mp := range m.recs {
			if gq.MatchesPoint(mp, 2, true) {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids
	}
	at, pos := now+q.off1, q.r1.Center(2)
	type cand struct {
		d  float64
		id uint32
	}
	var cs []cand
	for id, mp := range m.recs {
		if mp.TExp >= at {
			cs = append(cs, cand{pos.Dist(mp.At(at), 2), id})
		}
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].d != cs[b].d {
			return cs[a].d < cs[b].d
		}
		return cs[a].id < cs[b].id
	})
	if len(cs) > nearestK {
		cs = cs[:nearestK]
	}
	ids := make([]uint32, len(cs))
	for i, c := range cs {
		ids[i] = c.id
	}
	return ids
}

// verify compares one answer element-wise with the oracle: the same
// ids — region answers as sets in ascending id (a single tree returns
// traversal order), nearest answers in order, except that objects at
// exactly equal distances may permute — and for each the stored
// velocity and expiry and the position extrapolated to the evaluation
// time.  got is sorted in place.
func (m *model) verify(q query, now float64, got []rexptree.Result) error {
	want := m.answer(q, now)
	if q.kind != qNearest {
		sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d results, oracle has %d", kindNames[q.kind], len(got), len(want))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	at, pos := now+q.off1, q.r1.Center(2)
	for i, g := range got {
		mp, ok := m.recs[g.ID]
		if !ok {
			return fmt.Errorf("%s: result %d is unknown object %d", kindNames[q.kind], i, g.ID)
		}
		if g.ID != want[i] {
			tie := q.kind == qNearest && mp.TExp >= at &&
				pos.Dist(mp.At(at), 2) == pos.Dist(m.recs[want[i]].At(at), 2)
			if !tie {
				return fmt.Errorf("%s: result %d is object %d, oracle has %d", kindNames[q.kind], i, g.ID, want[i])
			}
		}
		if err := sameTrajectory(g.Point, mp); err != nil {
			return fmt.Errorf("%s: object %d: %v", kindNames[q.kind], g.ID, err)
		}
	}
	return nil
}

// sameTrajectory checks an answered report against the stored record:
// identical velocity and expiry, and the position the stored
// trajectory predicts for the report's reference time.
func sameTrajectory(p rexptree.Point, mp geom.MovingPoint) error {
	want := mp.At(p.Time)
	for d := 0; d < 2; d++ {
		if p.Vel[d] != mp.Vel[d] || math.Abs(p.Pos[d]-want[d]) > 1e-9*(1+math.Abs(want[d])) {
			return fmt.Errorf("got pos %v vel %v at t=%v, stored trajectory gives pos %v vel %v", p.Pos, p.Vel, p.Time, want, mp.Vel)
		}
	}
	if p.Expires != mp.TExp {
		return fmt.Errorf("expires %v, stored %v", p.Expires, mp.TExp)
	}
	return nil
}

// resultsOf converts API rows to the public result type (expires
// omitted on the wire means never).
func resultsOf(rows []row) []rexptree.Result {
	out := make([]rexptree.Result, len(rows))
	for i, r := range rows {
		p := rexptree.Point{Time: r.Time, Expires: r.Expires}
		copy(p.Pos[:], r.Pos)
		copy(p.Vel[:], r.Vel)
		if r.Expires == 0 {
			p.Expires = rexptree.NoExpiry()
		}
		out[i] = rexptree.Result{ID: r.ID, Point: p}
	}
	return out
}

// checkQueries is the fixed post-window question set: n queries of each
// type from a seed of their own, so every run of a seed asks the same.
func checkQueries(seed int64, n int, now float64, m *model) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, 0, n*int(numQueryKinds))
	for k := queryKind(0); k < numQueryKinds; k++ {
		for i := 0; i < n; i++ {
			qs = append(qs, drawQuery(rng, k, now, m.pick))
		}
	}
	return qs
}
