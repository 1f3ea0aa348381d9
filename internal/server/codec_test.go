package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"rexptree"
)

// TestResultRowsEncodeAsSeparateSlices checks that rows whose pos and
// vel share one backing array encode byte for byte as rows that own
// their slices, on random results that include -0, tiny and huge
// coordinates and a never-expiring report, in one to three dimensions.
func TestResultRowsEncodeAsSeparateSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{math.Copysign(0, -1), 0, 1e-7, -1e-7, 1e21, -1e21, 123.456}
	coord := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * 1000
	}
	for dims := 1; dims <= 3; dims++ {
		for n := 0; n < 60; n += 1 + n/4 {
			rs := make([]rexptree.Result, n)
			for i := range rs {
				p := rexptree.Point{Time: coord(), Expires: coord()}
				if rng.Intn(4) == 0 {
					p.Expires = rexptree.NoExpiry()
				}
				for d := 0; d < dims; d++ {
					p.Pos[d], p.Vel[d] = coord(), coord()
				}
				rs[i] = rexptree.Result{ID: rng.Uint32(), Point: p}
			}
			want := make([]resultJSON, n)
			for i, r := range rs {
				row := resultJSON{ID: r.ID, Time: r.Point.Time,
					Pos: make([]float64, dims), Vel: make([]float64, dims)}
				for d := 0; d < dims; d++ {
					row.Pos[d] = r.Point.Pos[d]
					row.Vel[d] = r.Point.Vel[d]
				}
				if !math.IsInf(r.Point.Expires, 1) {
					row.Expires = r.Point.Expires
				}
				want[i] = row
			}
			got, err := json.Marshal(queryResponse{Now: 1, Count: n, Results: toResultJSON(rs, dims)})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := json.Marshal(queryResponse{Now: 1, Count: n, Results: want})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("dims %d, %d rows:\n got %s\nwant %s", dims, n, got, ref)
			}
		}
	}
}
