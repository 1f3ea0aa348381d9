package rexptree

import (
	"math/rand"
	"path/filepath"
	"testing"
)

func TestOpenBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs := make([]BulkObject, 3000)
	for i := range objs {
		objs[i] = BulkObject{
			ID: uint32(i),
			Point: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
				Time:    0,
				Expires: 200,
			},
		}
	}
	tr, err := OpenBulk(DefaultOptions(), objs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Len() != 3000 {
		t.Fatalf("len = %d", tr.Len())
	}
	// The object directory is usable: updates and deletes work immediately.
	if _, ok := tr.Get(7, 1); !ok {
		t.Fatal("Get after bulk load failed")
	}
	if found, err := tr.Delete(7, 1); err != nil || !found {
		t.Fatalf("delete after bulk load: %v %v", found, err)
	}
	if err := tr.Update(7, objs[7].Point, 1); err != nil {
		t.Fatal(err)
	}
	// Queries see the whole population (a few objects drift past the
	// world edge by t=1, so query a padded box).
	res, err := tr.Timeslice(Rect{Lo: Vec{-10, -10}, Hi: Vec{1010, 1010}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3000 {
		t.Fatalf("whole-space query: %d", len(res))
	}
}

func TestOpenBulkFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bulk.db")
	opts := DefaultOptions()
	opts.Path = path
	objs := []BulkObject{{ID: 1, Point: Point{Pos: Vec{5, 5}, Expires: NoExpiry()}}}
	tr, err := OpenBulk(opts, objs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopens like any other index.
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened len = %d", re.Len())
	}
	// Refusing to clobber an existing file.
	if _, err := OpenBulk(opts, objs, 0); err == nil {
		t.Fatal("OpenBulk overwrote an existing file")
	}
}
