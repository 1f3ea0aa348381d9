// Package sched implements the scheduled-deletion approach of the
// paper's §3: alongside the main index, a B-tree on the composite key
// (expiration time, object id) holds one deletion event per expiring
// entry.  Processing an event removes it from the B-tree and performs
// the deletion in the main tree; updating or deleting an object before
// it expires also updates the queue.
//
// The paper evaluates this approach both over the TPR-tree and over
// the R^exp-tree (Figures 13-16), and notes that its competitiveness
// hinges on ignoring the B-tree's own I/O — which is why this package
// tracks main-tree and B-tree I/O separately.
package sched

import (
	"rexptree/internal/btree"
	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/storage"
)

// Index is a tree with eagerly scheduled deletions of expiring
// entries.
type Index struct {
	tree  *core.Tree
	queue *btree.BTree

	// records keeps the last inserted record per object: the deletion
	// in the main tree needs the record to locate the leaf.  It plays
	// the role of the primary object store of a moving-objects
	// database.
	records map[uint32]geom.MovingPoint
}

// New wraps the tree with a scheduled-deletion queue.  queueStore
// backs the B-tree; queueBuffer is its buffer-pool capacity.
func New(tree *core.Tree, queueStore storage.Store, queueBuffer int) (*Index, error) {
	bt, err := btree.New(queueStore, queueBuffer)
	if err != nil {
		return nil, err
	}
	return &Index{tree: tree, queue: bt, records: make(map[uint32]geom.MovingPoint)}, nil
}

// Tree returns the wrapped main tree.
func (x *Index) Tree() *core.Tree { return x.tree }

// QueueLen returns the number of pending deletion events.
func (x *Index) QueueLen() int { return x.queue.Len() }

// ProcessDue pops and executes every deletion event with expiration
// time at or before now.  Each event deletes the expired entry from
// the main tree at exactly its expiration instant, so the deletion
// succeeds even in an expiration-aware tree.
func (x *Index) ProcessDue(now float64) error {
	for {
		k, ok, err := x.queue.Min()
		if err != nil {
			return err
		}
		if !ok || k.TExp > now {
			return nil
		}
		if _, _, err := x.queue.PopMin(); err != nil {
			return err
		}
		rec, ok := x.records[k.OID]
		if !ok {
			continue // already deleted through the front door
		}
		if _, err := x.tree.DeleteBySearch(k.OID, rec, k.TExp); err != nil {
			return err
		}
		delete(x.records, k.OID)
	}
}

// Insert adds the record to the main tree and schedules its deletion.
func (x *Index) Insert(oid uint32, p geom.MovingPoint, now float64) error {
	if err := x.tree.Insert(oid, p, now); err != nil {
		return err
	}
	stored := x.tree.Stored(p)
	if !geom.IsFinite(stored.TExp) {
		// A plain TPR-tree ignores expiration times, but the whole
		// point of the scheduled-deletion approach is to remove the
		// entry anyway: keep the report's own expiry for the queue.
		stored.TExp = float64(float32(p.TExp))
	}
	x.records[oid] = stored
	if geom.IsFinite(stored.TExp) {
		if _, err := x.queue.Insert(stored.TExp, oid); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the record from the main tree and unschedules its
// deletion event.
func (x *Index) Delete(oid uint32, p geom.MovingPoint, now float64) (bool, error) {
	rec, ok := x.records[oid]
	if !ok {
		// The object has already been removed by a scheduled deletion.
		return false, nil
	}
	found, err := x.tree.DeleteBySearch(oid, rec, now)
	if err != nil {
		return found, err
	}
	delete(x.records, oid)
	if geom.IsFinite(rec.TExp) {
		if _, err := x.queue.Delete(rec.TExp, oid); err != nil {
			return found, err
		}
	}
	return found, nil
}

// Search queries the main tree.  Callers that account I/O should call
// ProcessDue first and attribute its cost to maintenance.
func (x *Index) Search(q geom.Query, now float64) ([]core.Result, error) {
	return x.tree.Search(q, now)
}

// TreeStats returns the main tree's I/O counters.
func (x *Index) TreeStats() storage.Stats { return x.tree.IOStats() }

// QueueStats returns the B-tree's I/O counters, reported separately
// because the paper's figures exclude them.
func (x *Index) QueueStats() storage.Stats { return x.queue.Stats() }

// ResetStats zeroes both counters.
func (x *Index) ResetStats() {
	x.tree.ResetIOStats()
	x.queue.ResetStats()
}
