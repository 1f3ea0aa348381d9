// Package rexptree implements the R^exp-tree — an R*-tree–based index
// for the current and anticipated future positions of moving point
// objects whose positional reports expire after a deadline — together
// with its baseline, the TPR-tree.  It reproduces "Indexing of Moving
// Objects for Location-Based Services" (Šaltenis and Jensen, TimeCenter
// TR-63 / ICDE 2002).
//
// Objects are linear trajectories: a position at a reference time, a
// velocity vector, and an expiration time after which the report is
// considered worthless.  The index answers three kinds of queries
// about predicted positions — timeslice, window and moving — while
// never reporting expired objects, and lazily removes expired entries
// during ordinary updates.
//
// The index is disk-page based (4 KiB nodes behind an LRU buffer
// pool), either fully in memory or backed by a file.  All methods are
// safe for concurrent use by multiple goroutines.
package rexptree

import (
	"math"

	"rexptree/internal/core"
	"rexptree/internal/geom"
)

// MaxDims is the highest supported dimensionality.
const MaxDims = 3

// NoExpiry marks a report that never expires.
func NoExpiry() float64 { return math.Inf(1) }

// Vec is a position or velocity vector; only the first Dims components
// are used.
type Vec [MaxDims]float64

// Point is one object's positional report: the position at time Time,
// the velocity vector valid from then on, and the absolute expiration
// time of the report (NoExpiry() if it never expires).
type Point struct {
	Pos     Vec
	Vel     Vec
	Time    float64
	Expires float64
}

// At predicts the object's position at time t.
func (p Point) At(t float64) Vec {
	var out Vec
	for i := range out {
		out[i] = p.Pos[i] + p.Vel[i]*(t-p.Time)
	}
	return out
}

// Rect is an axis-parallel rectangle.
type Rect struct {
	Lo, Hi Vec
}

// Result is one object returned by a query.
type Result struct {
	ID    uint32
	Point Point
}

// toInternal converts a report to the engine's epoch representation
// (coordinates at t = 0).
func toInternal(p Point, dims int) geom.MovingPoint {
	var mp geom.MovingPoint
	for i := 0; i < dims; i++ {
		mp.Vel[i] = p.Vel[i]
		mp.Pos[i] = p.Pos[i] - p.Vel[i]*p.Time
	}
	mp.TExp = p.Expires
	if mp.TExp == 0 {
		mp.TExp = math.Inf(1)
	}
	return mp
}

// fromInternal converts an engine record back to the public form,
// reporting the position at time now.
func fromInternal(mp geom.MovingPoint, now float64, dims int) Point {
	p := Point{Time: now, Expires: mp.TExp}
	at := mp.At(now)
	for i := 0; i < dims; i++ {
		p.Pos[i] = at[i]
		p.Vel[i] = mp.Vel[i]
	}
	return p
}

func toRect(r Rect) geom.Rect {
	return geom.Rect{Lo: geom.Vec(r.Lo), Hi: geom.Vec(r.Hi)}
}

// fromNeighbors converts a nearest-neighbor answer to the public form,
// in the same order.
func fromNeighbors(ns []core.Neighbor, now float64, dims int) []Result {
	out := make([]Result, len(ns))
	for i, n := range ns {
		out[i] = Result{ID: n.OID, Point: fromInternal(n.Point, now, dims)}
	}
	return out
}
