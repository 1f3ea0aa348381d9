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
// interpreted as of its own Point.Time, as in Update.  Every other
// option applies as in Open: under a durability policy the loaded tree
// is checkpointed before OpenBulk returns.
//
// Options.Path, if set, must not name an existing file.
func OpenBulk(opts Options, objs []BulkObject, now float64) (*Tree, error) {
	if opts.Path != "" {
		if _, err := os.Stat(opts.Path); err == nil {
			return nil, fmt.Errorf("rexptree: OpenBulk: %s already exists", opts.Path)
		}
	}
	items := make([]core.BulkItem, len(objs))
	for i, o := range objs {
		items[i] = core.BulkItem{OID: o.ID, Point: toInternal(o.Point, opts.Dims)}
	}
	return open(opts, func(cfg core.Config, store storage.Store) (*core.Tree, error) {
		return core.BulkLoad(cfg, store, items, now)
	}, false)
}
