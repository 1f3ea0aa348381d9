package rexptree_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

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
	// trusted until t = 120: if the car goes silent, the index forgets it.
	tree.Update(1, rexptree.Point{
		Pos:     rexptree.Vec{100, 200},
		Vel:     rexptree.Vec{1.5, 0},
		Time:    0,
		Expires: 120,
	}, 0)

	// Who is predicted to be inside this box at time 10?
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

// Botfighters, the paper's motivating location-based game: players
// roam a 20 x 20 km city and may "shoot" anyone predicted within range.
// A phone that goes silent (switched off, out of coverage) just stops
// reporting; its last report expires and matchmaking stops offering
// it, with no delete ever sent.
func Example_botfighters() {
	const (
		players   = 2000
		reportTTL = 8.0  // a position report is trusted for 8 minutes
		shotRange = 0.25 // km
		citySide  = 20.0 // km
	)
	opts := rexptree.DefaultOptions()
	opts.World = rexptree.Rect{Hi: rexptree.Vec{citySide, citySide}}
	tree, err := rexptree.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()

	type player struct {
		pos, vel rexptree.Vec
		online   bool
	}
	rng := rand.New(rand.NewSource(7))
	roster := make([]player, players)
	for i := range roster {
		roster[i] = player{pos: rexptree.Vec{rng.Float64() * citySide, rng.Float64() * citySide}, online: true}
	}

	// An hour in one-minute ticks: an online player reports about every
	// four minutes, walking or riding at 0.06..0.6 km/min, and every ten
	// minutes twenty phones go dark without notice.
	now := 0.0
	for tick := 0; tick < 60; tick++ {
		now = float64(tick)
		for id := range roster {
			p := &roster[id]
			if !p.online || rng.Float64() > 0.25 {
				continue
			}
			speed := 0.06 + rng.Float64()*0.54
			angle := rng.Float64() * 2 * math.Pi
			p.vel = rexptree.Vec{speed * math.Cos(angle), speed * math.Sin(angle)}
			if err := tree.Update(uint32(id), rexptree.Point{
				Pos: p.pos, Vel: p.vel, Time: now, Expires: now + reportTTL,
			}, now); err != nil {
				log.Fatal(err)
			}
		}
		if tick%10 == 9 {
			for i := 0; i < players/100; i++ {
				roster[rng.Intn(players)].online = false
			}
		}
		// True positions move on, bounced at the city limits.
		for id := range roster {
			p := &roster[id]
			for d := 0; d < 2; d++ {
				p.pos[d] += p.vel[d]
				if p.pos[d] < 0 || p.pos[d] > citySide {
					p.vel[d] = -p.vel[d]
					p.pos[d] += 2 * p.vel[d]
				}
			}
		}
	}

	// Player 42 looks for targets predicted within shot range in the
	// next half minute.  Expired (dark) players are never offered.
	const shooter = 42
	at := roster[shooter].pos
	targets, _ := tree.Window(rexptree.Rect{
		Lo: rexptree.Vec{at[0] - shotRange, at[1] - shotRange},
		Hi: rexptree.Vec{at[0] + shotRange, at[1] + shotRange},
	}, now, now+0.5, now)
	slices.SortFunc(targets, func(a, b rexptree.Result) int { return int(a.ID) - int(b.ID) })
	fmt.Printf("player %d at (%.2f, %.2f) can shoot:\n", shooter, at[0], at[1])
	for _, t := range targets {
		if t.ID != shooter {
			p := t.Point.At(now)
			fmt.Printf("  player %d predicted at (%.2f, %.2f)\n", t.ID, p[0], p[1])
		}
	}

	// Silent players age out of the game on their own.
	alive, _ := tree.Timeslice(opts.World, now, now)
	fmt.Printf("matchmaking sees %d active players\n", len(alive))
	// Output:
	// player 42 at (14.53, 5.40) can shoot:
	//   player 1120 predicted at (14.71, 5.63)
	//   player 1173 predicted at (14.61, 5.28)
	//   player 1911 predicted at (14.31, 5.18)
	// matchmaking sees 1703 active players
}
