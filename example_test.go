package rexptree_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rexptree"
)

// The basic lifecycle: open an index, report a moving object, and ask
// where it will be.
func ExampleOpen() {
	tree, err := rexptree.Open(rexptree.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()

	// A car at (100, 200) km heading east at 1.5 km/min; the report is
	// trusted until t = 120.
	tree.Update(1, rexptree.Point{
		Pos:     rexptree.Vec{100, 200},
		Vel:     rexptree.Vec{1.5, 0},
		Time:    0,
		Expires: 120,
	}, 0)

	res, _ := tree.Timeslice(rexptree.Rect{
		Lo: rexptree.Vec{110, 195},
		Hi: rexptree.Vec{120, 205},
	}, 10, 0)
	for _, r := range res {
		p := r.Point.At(10)
		fmt.Printf("object %d predicted at (%.0f, %.0f)\n", r.ID, p[0], p[1])
	}
	// Output:
	// object 1 predicted at (115, 200)
}

// Expired reports disappear from query results on their own.
func ExampleTree_Timeslice() {
	tree, _ := rexptree.Open(rexptree.DefaultOptions())
	defer tree.Close()

	tree.Update(1, rexptree.Point{Pos: rexptree.Vec{500, 500}, Time: 0, Expires: 30}, 0)
	world := rexptree.Rect{Hi: rexptree.Vec{1000, 1000}}

	before, _ := tree.Timeslice(world, 10, 10)
	after, _ := tree.Timeslice(world, 60, 60)
	fmt.Printf("visible at t=10: %d, at t=60: %d\n", len(before), len(after))
	// Output:
	// visible at t=10: 1, at t=60: 0
}

// Nearest-neighbor search over predicted positions.
func ExampleTree_Nearest() {
	tree, _ := rexptree.Open(rexptree.DefaultOptions())
	defer tree.Close()

	tree.Update(1, rexptree.Point{Pos: rexptree.Vec{100, 100}, Expires: rexptree.NoExpiry()}, 0)
	tree.Update(2, rexptree.Point{Pos: rexptree.Vec{300, 300}, Expires: rexptree.NoExpiry()}, 0)
	// Object 3 is far away now but racing toward the query point.
	tree.Update(3, rexptree.Point{
		Pos: rexptree.Vec{900, 100}, Vel: rexptree.Vec{-8, 0}, Expires: rexptree.NoExpiry(),
	}, 0)

	res, _ := tree.Nearest(rexptree.Vec{120, 120}, 97, 1, 0)
	fmt.Println("nearest at t=97: object", res[0].ID)
	// Output:
	// nearest at t=97: object 3
}

// Batched updates apply a group of reports under one lock
// acquisition.
func ExampleTree_UpdateBatch() {
	tree, _ := rexptree.Open(rexptree.DefaultOptions())
	defer tree.Close()

	// One position fix per vehicle, applied as a single batch.
	batch := []rexptree.Report{
		{ID: 1, Point: rexptree.Point{Pos: rexptree.Vec{100, 100}, Expires: 60}},
		{ID: 2, Point: rexptree.Point{Pos: rexptree.Vec{200, 200}, Expires: 60}},
		{ID: 3, Point: rexptree.Point{Pos: rexptree.Vec{300, 300}, Expires: 60}},
	}
	if err := tree.UpdateBatch(batch, 0); err != nil {
		log.Fatal(err)
	}

	m := tree.Metrics()
	fmt.Printf("%d objects stored, %d reports batched\n", tree.Len(), m.BatchedUpdates)
	// Output:
	// 3 objects stored, 3 reports batched
}

// A sharded index partitions objects across independent trees and
// visits each of them for a query.
func ExampleShardedTree() {
	tree, _ := rexptree.OpenSharded(rexptree.ShardedOptions{
		Options: rexptree.DefaultOptions(),
		Shards:  4,
	})
	defer tree.Close()

	for id := uint32(1); id <= 8; id++ {
		tree.Update(id, rexptree.Point{
			Pos:     rexptree.Vec{float64(id) * 100, 500},
			Vel:     rexptree.Vec{1, 0},
			Expires: rexptree.NoExpiry(),
		}, 0)
	}

	// The fan-out merge returns results in ascending id order.
	res, _ := tree.Window(rexptree.Rect{
		Lo: rexptree.Vec{250, 0},
		Hi: rexptree.Vec{560, 1000},
	}, 0, 10, 0)
	for _, r := range res {
		fmt.Println("object", r.ID)
	}
	// Output:
	// object 3
	// object 4
	// object 5
}

// A durability policy makes a file-backed index crash-safe: every
// acknowledged mutation is WAL-logged (and, under DurabilityOnCommit,
// fsynced) before the call returns, and reopening recovers
// automatically.
func Example_durability() {
	dir, err := os.MkdirTemp("", "rexp")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := rexptree.DefaultOptions()
	opts.Path = filepath.Join(dir, "fleet.rexp")
	opts.Durability = rexptree.DurabilityOnCommit

	tree, err := rexptree.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	tree.Update(7, rexptree.Point{
		Pos: rexptree.Vec{100, 200}, Vel: rexptree.Vec{1, 0},
		Expires: rexptree.NoExpiry(),
	}, 0)
	tree.Close()

	// A new process (or one recovering from a crash) reopens the file
	// with the same policy and finds the acknowledged report.
	tree, err = rexptree.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()
	p, ok := tree.Get(7, 0)
	fmt.Printf("object 7 recovered: %v, at (%.0f, %.0f)\n", ok, p.Pos[0], p.Pos[1])
	// Output:
	// object 7 recovered: true, at (100, 200)
}

// The flight recorder retains the traces of recent operations in a
// lock-free ring, so the queries leading up to an incident stay
// inspectable after the fact (rexpd serves them at /debug/rexp/traces).
func Example_flightRecorder() {
	opts := rexptree.DefaultOptions()
	opts.FlightRecorder = 8 // ring capacity; 0 (the default) disables

	tree, _ := rexptree.Open(opts)
	defer tree.Close()

	tree.Update(1, rexptree.Point{Pos: rexptree.Vec{10, 10}, Expires: rexptree.NoExpiry()}, 0)
	tree.Window(rexptree.Rect{Hi: rexptree.Vec{100, 100}}, 0, 5, 0)

	recent, _ := tree.Traces() // newest first
	fmt.Println("retained:", len(recent))
	fmt.Println("newest op:", recent[0].Op, "with", recent[0].Results, "result(s)")
	// Output:
	// retained: 2
	// newest op: window with 1 result(s)
}

// A query with Explain set returns the results plus its EXPLAIN trace;
// on a sharded index the trace includes the per-shard table.
func ExampleShardedTree_Query() {
	tree, _ := rexptree.OpenSharded(rexptree.ShardedOptions{
		Options: rexptree.DefaultOptions(),
		Shards:  2,
	})
	defer tree.Close()

	for id := uint32(1); id <= 6; id++ {
		tree.Update(id, rexptree.Point{
			Pos:     rexptree.Vec{float64(id) * 100, 500},
			Expires: rexptree.NoExpiry(),
		}, 0)
	}

	res, trace, _ := tree.Query(rexptree.Query{
		Kind:    rexptree.QueryWindow,
		R:       rexptree.Rect{Lo: rexptree.Vec{150, 0}, Hi: rexptree.Vec{450, 1000}},
		T1:      0,
		T2:      10,
		Explain: true,
	}, 0)

	fmt.Printf("op %s: %d results\n", trace.Op, len(res))
	for _, sh := range trace.Shards {
		fmt.Printf("shard %d: %d result(s)\n", sh.Shard, sh.Results)
	}
	// Output:
	// op window: 3 results
	// shard 0: 1 result(s)
	// shard 1: 2 result(s)
}
