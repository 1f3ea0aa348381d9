package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"testing"

	"rexptree/internal/geom"
	"rexptree/internal/server"
	"rexptree/internal/workload"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rexpgen")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func generate(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	out, err := exec.Command(bin, append([]string{"-scale", "0.002"}, args...)...).Output()
	if err != nil {
		t.Fatalf("rexpgen %v: %v", args, err)
	}
	return out
}

// TestSameSeedSameBytes: a seed fixes the output byte for byte in both
// formats, and another seed changes it.
func TestSameSeedSameBytes(t *testing.T) {
	bin := buildTool(t)
	for _, format := range [][]string{nil, {"-ndjson"}} {
		a := generate(t, bin, append([]string{"-seed", "5"}, format...)...)
		b := generate(t, bin, append([]string{"-seed", "5"}, format...)...)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%v: two runs of seed 5 differ (%d and %d bytes)", format, len(a), len(b))
		}
		if c := generate(t, bin, append([]string{"-seed", "6"}, format...)...); bytes.Equal(a, c) {
			t.Fatalf("%v: seeds 5 and 6 give the same output", format)
		}
	}
}

// TestNDJSONIsTheTextStream: every -ndjson line decodes as a /v1/batch
// record, with no field the record lacks, and the lines are the text
// format's inserts and deletes of the same seed, in order: an insert
// carries its position at the report time, its velocity and its expiry
// (0 for never), a delete its id and time.
func TestNDJSONIsTheTextStream(t *testing.T) {
	bin := buildTool(t)
	var ops []workload.Op
	sc := workload.NewScanner(bytes.NewReader(generate(t, bin)))
	for sc.Scan() {
		if op := sc.Op(); op.Kind != workload.OpQuery {
			ops = append(ops, op)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimSuffix(generate(t, bin, "-ndjson"), []byte("\n")), []byte("\n"))
	if len(lines) != len(ops) || len(ops) == 0 {
		t.Fatalf("%d batch lines for %d inserts and deletes", len(lines), len(ops))
	}
	// The text format rounds times and positions to 4 decimals and
	// velocities to 5.
	near := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
	for i, line := range lines {
		var rec server.Record
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d %s: %v", i+1, line, err)
		}
		op := ops[i]
		ok := rec.ID == op.OID && near(rec.Time, op.Time, 5e-5)
		switch op.Kind {
		case workload.OpInsert:
			at := op.Point.At(op.Time)
			expires := op.Point.TExp
			if !geom.IsFinite(expires) {
				expires = 0
			}
			ok = ok && rec.Op == "" && len(rec.Pos) == 2 && len(rec.Vel) == 2 &&
				near(rec.Pos[0], at[0], 1e-4) && near(rec.Pos[1], at[1], 1e-4) &&
				near(rec.Vel[0], op.Point.Vel[0], 5e-6) && near(rec.Vel[1], op.Point.Vel[1], 5e-6) &&
				near(rec.Expires, expires, 5e-5)
		case workload.OpDelete:
			ok = ok && rec.Op == "delete" && rec.Pos == nil && rec.Vel == nil
		}
		if !ok {
			t.Fatalf("line %d %s does not match the text stream's op %+v", i+1, line, op)
		}
	}
}
