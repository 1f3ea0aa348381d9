// Command rexpmap builds an index from a generated workload and
// renders an ASCII density map of the objects' *predicted* positions
// at a chosen time offset — a quick visual check that trajectories,
// expiration and the three query types behave sensibly.
//
//	rexpmap -scale 0.01 -ahead 10 -qx 480 -qy 480
//
// The map marks the density of predicted positions ('.' to '@'), the
// query box ('#' border), and prints the query answer.
package main

import (
	"flag"
	"fmt"
	"os"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
	"rexptree/internal/workload"
)

const (
	gridW = 72
	gridH = 36
)

func main() {
	var (
		scale = flag.Float64("scale", 0.01, "fraction of the paper's workload scale")
		seed  = flag.Int64("seed", 1, "seed")
		ahead = flag.Float64("ahead", 10, "prediction time offset (minutes past the last update)")
		qx    = flag.Float64("qx", 475, "query box lower-left x")
		qy    = flag.Float64("qy", 475, "query box lower-left y")
		qside = flag.Float64("qside", 50, "query box side length")
	)
	flag.Parse()

	cfg := core.Config{Dims: 2, BRKind: hull.KindNearOptimal, ExpireAware: true, AlgsUseExp: true, Seed: *seed}
	tree, err := core.New(cfg, storage.NewMemStore())
	if err != nil {
		fail(err)
	}
	gen, err := workload.NewGenerator(workload.Params{Seed: *seed}.Scale(*scale))
	if err != nil {
		fail(err)
	}
	now := 0.0
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		now = op.Time
		switch op.Kind {
		case workload.OpInsert:
			err = tree.Insert(op.OID, op.Point, op.Time)
		case workload.OpDelete:
			_, err = tree.DeleteBySearch(op.OID, op.Point, op.Time)
		default:
			continue
		}
		if err != nil {
			fail(err)
		}
	}

	at := now + *ahead
	space := workload.Space
	var grid [gridH][gridW]int
	world := geom.Timeslice(space, at)
	total := 0
	err = tree.SearchFunc(world, now, func(r core.Result) bool {
		p := r.Point.At(at)
		cx := int((p[0] - space.Lo[0]) / (space.Hi[0] - space.Lo[0]) * gridW)
		cy := int((p[1] - space.Lo[1]) / (space.Hi[1] - space.Lo[1]) * gridH)
		if cx >= 0 && cx < gridW && cy >= 0 && cy < gridH {
			grid[cy][cx]++
			total++
		}
		return true
	})
	if err != nil {
		fail(err)
	}

	q := geom.Timeslice(geom.Rect{
		Lo: geom.Vec{*qx, *qy},
		Hi: geom.Vec{*qx + *qside, *qy + *qside},
	}, at)
	matches, err := tree.Search(q, now)
	if err != nil {
		fail(err)
	}

	shades := []byte(" .:-=+*%@")
	inQuery := func(cx, cy int) bool {
		x := space.Lo[0] + (float64(cx)+0.5)/gridW*(space.Hi[0]-space.Lo[0])
		y := space.Lo[1] + (float64(cy)+0.5)/gridH*(space.Hi[1]-space.Lo[1])
		return x >= *qx && x <= *qx+*qside && y >= *qy && y <= *qy+*qside
	}
	fmt.Printf("predicted density at t = %.1f (now %.1f, %d live objects); query box '#'\n", at, now, total)
	for cy := gridH - 1; cy >= 0; cy-- {
		row := make([]byte, gridW)
		for cx := 0; cx < gridW; cx++ {
			v := grid[cy][cx]
			idx := 0
			switch {
			case v == 0:
			case v < 2:
				idx = 1
			case v < 4:
				idx = 2
			case v < 8:
				idx = 4
			case v < 16:
				idx = 6
			default:
				idx = 8
			}
			c := shades[idx]
			if inQuery(cx, cy) && v == 0 {
				c = '#'
			}
			row[cx] = c
		}
		fmt.Println(string(row))
	}
	fmt.Printf("timeslice query [%g,%g]x[%g,%g] at t=%.1f: %d objects\n",
		*qx, *qx+*qside, *qy, *qy+*qside, at, len(matches))
	for i, m := range matches {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(matches)-8)
			break
		}
		p := m.Point.At(at)
		fmt.Printf("  object %5d predicted at (%.1f, %.1f)\n", m.OID, p[0], p[1])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rexpmap:", err)
	os.Exit(1)
}
