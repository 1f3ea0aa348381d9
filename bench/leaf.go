package main

import (
	"bytes"
	"time"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/repl"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// leafLayers times the leaf layers by calling them directly, on inputs
// drawn from the workload: the model's stored trajectories at the
// clock the run ended on.
func leafLayers(res *result, m *model, clock float64) {
	pts := make([]geom.MovingPoint, 0, len(m.ids))
	for _, id := range m.ids {
		if mp := m.recs[id]; mp.TExp >= clock {
			pts = append(pts, mp)
		}
	}

	// hull: near-optimal TPBRs of node-sized entry sets (consecutive
	// runs of live trajectories, a leaf's worth each).
	const nodeSize = 100
	order := []int{0, 1}
	var nodes [][]geom.TPRect
	for i := 0; i+nodeSize <= len(pts) && len(nodes) < 200; i += nodeSize {
		items := make([]geom.TPRect, nodeSize)
		for j := range items {
			items[j] = geom.PointTPRect(pts[i+j])
		}
		nodes = append(nodes, items)
	}
	brs := make([]geom.TPRect, len(nodes))
	start := time.Now()
	for i, items := range nodes {
		brs[i] = hull.NearOptimal(items, clock, 1.5*paperUI, 2, order)
	}
	res.put("hull.tpbr_us_per_node", "us", ratio(time.Since(start).Seconds()*1e6, float64(len(nodes))), len(nodes))

	// geom: one trapezoid intersection test per leaf entry, and one
	// area integral per bounding rectangle (ChooseSubtree's objective).
	q := geom.Window(geom.Rect{Lo: geom.Vec{400, 400}, Hi: geom.Vec{450, 450}}, clock+5, clock+20)
	hits := 0
	start = time.Now()
	for _, p := range pts {
		if q.MatchesPoint(p, 2, true) {
			hits++
		}
	}
	res.put("geom.intersect_ns_per_entry", "ns", ratio(time.Since(start).Seconds()*1e9, float64(len(pts))), len(pts))
	area := 0.0
	start = time.Now()
	for _, br := range brs {
		area += geom.AreaIntegral(br, clock, clock+1.5*paperUI, 2)
	}
	res.put("geom.integral_ns", "ns", ratio(time.Since(start).Seconds()*1e9, float64(len(brs))), len(brs))
	sink = float64(hits) + area

	// storage: a 50-page pool over 200 pages read round-robin misses
	// every time (LRU); one page read repeatedly always hits.
	pool := storage.NewBufferPool(storage.NewMemStore(), 50)
	ids := make([]storage.PageID, 200)
	for i := range ids {
		ids[i], _, _ = pool.Allocate()
	}
	const rounds = 20
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			pool.Get(id)
		}
	}
	res.put("storage.get_miss_us", "us", time.Since(start).Seconds()*1e6/float64(rounds*len(ids)), rounds*len(ids))
	const hitReads = 100000
	start = time.Now()
	for i := 0; i < hitReads; i++ {
		pool.Get(ids[len(ids)-1])
	}
	res.put("storage.get_hit_ns", "ns", time.Since(start).Seconds()*1e9/hitReads, hitReads)

	// repl: one logical record through the feed's wire format and back
	// (WAL encoding, record frame, CRC frame; then the reverse).
	n := min(len(pts), 20000)
	var (
		wire    bytes.Buffer
		payload []byte
		frame   []byte
	)
	fw := repl.NewFrameWriter(&wire)
	start = time.Now()
	for i, p := range pts[:n] {
		at := p.At(clock)
		payload = wal.EncodeUpdate(payload[:0], wal.Update{ID: uint32(i), Now: clock, Time: clock, Expires: p.TExp,
			Pos: [3]float64{at[0], at[1]}, Vel: [3]float64{p.Vel[0], p.Vel[1]}})
		frame = repl.EncodeRecordFrame(frame, uint64(i+1), uint64(i+1)*uint64(len(payload)), payload)
		fw.WriteFrame(repl.FrameRecord, frame)
	}
	fr := repl.NewFrameReader(&wire)
	var rec wal.Record
	for i := 0; i < n; i++ {
		_, body, err := fr.ReadFrame()
		if err != nil {
			break
		}
		if _, _, pl, err := repl.DecodeRecordFrame(body); err == nil {
			wal.DecodeRecord(pl, &rec)
		}
	}
	res.put("repl.frame_us_per_record", "us", ratio(time.Since(start).Seconds()*1e6, float64(n)), n)
}

// sink keeps the timed loops' results alive.
var sink float64
