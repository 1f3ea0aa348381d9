package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// benchLine is a /v1/batch line as the repository benchmark writes it.
const benchLine = `{"id":18213,"pos":[412.53103917264,88.03450021],"vel":[-0.77310044,1.2209],"time":361.2578125,"expires":481.2578125}`

// FuzzIngestRecord holds the hand-written line decoder to
// json.Unmarshal into a Record: both accept or both refuse every line,
// with the same error text; an accepted line gives equal Records (a nil
// and an empty pos or vel alike) and equal point results in two and
// three dimensions.
func FuzzIngestRecord(f *testing.F) {
	var remote bytes.Buffer
	enc := json.NewEncoder(&remote)
	enc.Encode(Record{ID: 7, Pos: []float64{1.5, -2}, Vel: []float64{0.25, 0}, Time: 3, Expires: 120})
	enc.Encode(Record{Op: "delete", ID: 7, Time: 4})
	for _, line := range bytes.Split(remote.Bytes(), []byte("\n")) {
		f.Add(line)
	}
	for _, s := range []string{
		benchLine,
		`{"id":1,"pos":[1e-7,-0],"vel":[0,0],"time":0}`,
		`{"id":1,"pos":[1,2],"time":1e400}`,
		`{"id":1,"pos":[1,2],"time":1e-400}`,
		`{"id":01,"pos":[1,2],"time":0}`,
		`{"id":1,"pos":[00.5,2],"time":0}`,
		`{"id":-0,"pos":[1,2]}`,
		`{"id":4294967296,"pos":[1,2]}`,
		`{"id":1.0,"pos":[1,2]}`,
		`{"ID":1,"Pos":[1,2],"Time":3}`,
		`{"id":1,"id":2,"pos":[1,2]}`,
		`{"id":1,"pos":[1,2],"pos":[3,4,5]}`,
		`{"id":1,"pos":[1,2],"wat":{"a":[1,null]}}`,
		`null`,
		`{"id":null,"pos":null,"vel":[null,1],"time":null}`,
		`{"op":"update","id":1,"pos":[1,2],"vel":[3,4],"time":5,"expires":6}`,
		`{"op":"delete","id":9,"time":2}`,
		`{"op":"upsert","id":9}`,
		`{"op":"delete","id":9}`,
		`{"op":"délete","id":9}`,
		"\t{ \"id\" :\t1 , \"pos\" : [ 1 ,\t2 ] }\r",
		"{\"id\":1,\"pos\":[1,2]}\r\n",
		`{"id":1,"pos":[1,2]} x`,
		`{"id":1,"pos":[1,2]}{}`,
		`{"id":1,"pos":[1,2,3,4]}`,
		`{"id":1,"pos":[1,2,3],"vel":[1,2,3]}`,
		`{"id":1,"pos":[],"vel":[]}`,
		`{}`,
		`[1,2]`,
		`{"id":1,"pos":[1,2],}`,
		`{"id":1,"pos":[1,2`,
		`{"id":1,"pos":[1.,2]}`,
		`{"id":1,"pos":[1e,2]}`,
		`{"id":1,"pos":[+1,2]}`,
		`{"id":1,"op":5}`,
		`{"id":"1"}`,
	} {
		f.Add([]byte(s))
	}
	var d recordDecoder
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, gerr := d.decode(raw)
		var want Record
		werr := json.Unmarshal(raw, &want)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%q: decoder error %v, json.Unmarshal error %v", raw, gerr, werr)
		}
		if werr != nil {
			return
		}
		if !sameRecord(*got, want) {
			t.Fatalf("%q: decoder %+v, json.Unmarshal %+v", raw, *got, want)
		}
		for dims := 2; dims <= 3; dims++ {
			gp, gerr := got.point(dims)
			wp, werr := want.point(dims)
			if fmt.Sprint(gp, gerr) != fmt.Sprint(wp, werr) {
				t.Fatalf("%q in %d dimensions: decoder point %v %v, json.Unmarshal point %v %v", raw, dims, gp, gerr, wp, werr)
			}
		}
	})
}

// sameRecord compares two records bit for bit, a nil and an empty
// coordinate slice alike.
func sameRecord(a, b Record) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameVec := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !same(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a.Op == b.Op && a.ID == b.ID && same(a.Time, b.Time) && same(a.Expires, b.Expires) &&
		sameVec(a.Pos, b.Pos) && sameVec(a.Vel, b.Vel)
}

// TestDecodeRecordAllocs pins the decoder's fast path at no allocation
// for the lines the clients write.
func TestDecodeRecordAllocs(t *testing.T) {
	var d recordDecoder
	for _, line := range []string{benchLine, `{"op":"delete","id":9,"time":2}`, `{"op":"update","id":1,"pos":[1,2,3],"time":5}`} {
		raw := []byte(line)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := d.decode(raw); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("decoding %s allocates %.1f objects, want 0", line, allocs)
		}
	}
}

// BenchmarkDecodeRecord decodes one benchmark line per op.
func BenchmarkDecodeRecord(b *testing.B) {
	var d recordDecoder
	raw := []byte(benchLine)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
