package rexptree

import (
	"fmt"
	"os"

	"rexptree/internal/core"
	"rexptree/internal/storage"
)

// BulkObject is one object of an initial population for OpenBulk.
type BulkObject struct {
	ID    uint32
	Point Point
}

// OpenBulk creates a tree pre-loaded with an initial object population
// using sort-tile-recursive packing adapted to moving points.  It is
// far faster than inserting the population one report at a time and
// produces a well-filled tree.  now is the load time; every report is
// interpreted as of its own Point.Time, as in Update.
//
// Options.Path, if set, must not name an existing file.
func OpenBulk(opts Options, objs []BulkObject, now float64) (*Tree, error) {
	var store storage.Store
	if opts.Path != "" {
		if _, err := os.Stat(opts.Path); err == nil {
			return nil, fmt.Errorf("rexptree: OpenBulk: %s already exists", opts.Path)
		}
		fs, err := storage.CreateFileStore(opts.Path)
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = storage.NewMemStore()
	}
	dims := opts.Dims
	items := make([]core.BulkItem, len(objs))
	for i, o := range objs {
		items[i] = core.BulkItem{OID: o.ID, Point: toInternal(o.Point, dims)}
	}
	m := newMetrics(opts)
	cfg := opts.internal()
	cfg.Metrics = m
	t, err := core.BulkLoad(cfg, store, items, now)
	if err != nil {
		store.Close()
		return nil, err
	}
	return &Tree{t: t, store: store, dims: dims, m: m}, nil
}
