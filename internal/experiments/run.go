// Package experiments reproduces the performance study of the paper's
// §5: it replays the workloads of internal/workload against tree
// configurations and collects the metrics plotted in Figures 9-16 —
// average search I/O per query, average update I/O per insertion or
// deletion, and index size in disk pages.
package experiments

import (
	"fmt"

	"rexptree/internal/core"
	"rexptree/internal/obs"
	"rexptree/internal/sched"
	"rexptree/internal/storage"
	"rexptree/internal/workload"
)

// Instrument, when non-nil, is attached to every tree the harness
// builds, so callers (cmd/rexpbench) can expose or dump aggregate
// observability counters across a whole experiment run.  Gauges
// reflect the most recently synced tree.  Set it before running
// figures; it is not safe to change concurrently with Run.
var Instrument *obs.Metrics

// TreeConfig names one index configuration under test.
type TreeConfig struct {
	Label     string
	Core      core.Config
	Scheduled bool // wrap with the B-tree scheduled-deletion queue
}

// Metrics summarizes one workload run.
type Metrics struct {
	Label string
	X     float64 // the varied workload parameter

	SearchIO float64 // average page reads per query
	UpdateIO float64 // average page reads+writes per insertion/deletion (incl. scheduled-deletion maintenance)
	QueueIO  float64 // average B-tree reads+writes per insertion/deletion (scheduled variants; reported separately as in the paper)

	IndexPages  float64 // average index size over the run, in pages
	FinalPages  int
	LeafEntries int     // final physically stored leaf entries
	ExpiredFrac float64 // final fraction of stored leaf entries that are expired

	Queries int
	Updates int // insert + delete operations
}

// Run replays the workload against the configuration and returns its
// metrics.  Both the workload and the tree are deterministic given
// their seeds.
func Run(tc TreeConfig, wp workload.Params) (Metrics, error) {
	gen, err := workload.NewGenerator(wp)
	if err != nil {
		return Metrics{}, err
	}
	if tc.Core.BufferPages == 0 {
		// Scale the buffer with the workload: the paper pairs a
		// 50-page buffer with a ~100k-entry index.  Keeping the
		// buffer-to-index ratio preserves the miss behaviour at
		// reduced scale.
		tc.Core.BufferPages = 50 * gen.Params().Objects / 100000
		if tc.Core.BufferPages < 8 {
			tc.Core.BufferPages = 8
		}
	}
	if Instrument != nil && tc.Core.Metrics == nil {
		tc.Core.Metrics = Instrument
	}
	tree, err := core.New(tc.Core, storage.NewMemStore())
	if err != nil {
		return Metrics{}, err
	}
	defer tree.SyncGauges()
	var queue *sched.Index
	if tc.Scheduled {
		queue, err = sched.New(tree, storage.NewMemStore(), tc.Core.BufferPages)
		if err != nil {
			return Metrics{}, err
		}
	}

	m := Metrics{Label: tc.Label}
	var searchIO, updateIO, queueIO uint64
	var sizeSamples, sizeTotal int

	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		if queue != nil {
			// Scheduled-deletion maintenance is charged to updates.
			before, qBefore := tree.IOStats(), queue.QueueStats()
			if err := queue.ProcessDue(op.Time); err != nil {
				return m, err
			}
			updateIO += tree.IOStats().Sub(before).IO()
			queueIO += queue.QueueStats().Sub(qBefore).IO()
		}
		switch op.Kind {
		case workload.OpInsert:
			before := tree.IOStats()
			if queue != nil {
				qBefore := queue.QueueStats()
				err = queue.Insert(op.OID, op.Point, op.Time)
				queueIO += queue.QueueStats().Sub(qBefore).IO()
			} else {
				err = tree.Insert(op.OID, op.Point, op.Time)
			}
			if err != nil {
				return m, fmt.Errorf("insert %d at %v: %w", op.OID, op.Time, err)
			}
			updateIO += tree.IOStats().Sub(before).IO()
			m.Updates++
		case workload.OpDelete:
			before := tree.IOStats()
			if queue != nil {
				qBefore := queue.QueueStats()
				_, err = queue.Delete(op.OID, op.Point, op.Time)
				queueIO += queue.QueueStats().Sub(qBefore).IO()
			} else {
				_, err = tree.DeleteBySearch(op.OID, op.Point, op.Time)
			}
			if err != nil {
				return m, fmt.Errorf("delete %d at %v: %w", op.OID, op.Time, err)
			}
			updateIO += tree.IOStats().Sub(before).IO()
			m.Updates++
		case workload.OpQuery:
			before := tree.IOStats()
			if _, err := tree.Search(op.Query, op.Time); err != nil {
				return m, fmt.Errorf("query at %v: %w", op.Time, err)
			}
			searchIO += tree.IOStats().Sub(before).Reads
			m.Queries++
			// Queries double as periodic index-size samples.
			sizeTotal += tree.Size()
			sizeSamples++
		}
	}

	if m.Queries > 0 {
		m.SearchIO = float64(searchIO) / float64(m.Queries)
	}
	if m.Updates > 0 {
		m.UpdateIO = float64(updateIO) / float64(m.Updates)
		m.QueueIO = float64(queueIO) / float64(m.Updates)
	}
	if sizeSamples > 0 {
		m.IndexPages = float64(sizeTotal) / float64(sizeSamples)
	}
	m.FinalPages = tree.Size()
	live, expired, err := tree.EntryStats()
	if err != nil {
		return m, err
	}
	m.LeafEntries = live + expired
	if m.LeafEntries > 0 {
		m.ExpiredFrac = float64(expired) / float64(m.LeafEntries)
	}
	return m, nil
}
