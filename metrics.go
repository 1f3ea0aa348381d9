package rexptree

import (
	"io"
	"net/http"

	"rexptree/internal/obs"
)

// NumOps is the number of instrumented public operations (Update,
// Delete, Timeslice, Window, Moving, Nearest).
const NumOps = int(obs.NumOps)

// numBuckets mirrors the fixed latency-histogram bucket count of
// internal/obs: len(LatencyBucketBounds()) finite bounds plus one
// overflow bucket.
const numBuckets = obs.NumBuckets

// LatencyBucketBounds returns the upper bounds, in seconds, of the
// finite latency-histogram buckets; the last bucket of OpMetrics is
// the overflow (+Inf) bucket.
func LatencyBucketBounds() []float64 { return obs.Bounds() }

// OpMetrics is the frozen latency state of one public operation.
type OpMetrics struct {
	Op           string  // operation name: update, delete, timeslice, window, moving, nearest
	Count        uint64  // completed calls
	Errors       uint64  // calls that returned an error
	TotalSeconds float64 // summed latency
	// Buckets holds per-bucket (non-cumulative) latency counts; bucket
	// i covers latencies up to LatencyBucketBounds()[i], the last
	// bucket everything slower.
	Buckets [numBuckets]uint64
}

// Mean returns the mean latency in seconds (0 before any call).
func (o OpMetrics) Mean() float64 {
	if o.Count == 0 {
		return 0
	}
	return o.TotalSeconds / float64(o.Count)
}

// Sub returns the activity since the earlier snapshot prev.
func (o OpMetrics) Sub(prev OpMetrics) OpMetrics {
	d := o
	d.Count -= prev.Count
	d.Errors -= prev.Errors
	d.TotalSeconds -= prev.TotalSeconds
	for i := range d.Buckets {
		d.Buckets[i] -= prev.Buckets[i]
	}
	return d
}

// Metrics is a consistent snapshot of the tree's instrumentation,
// from the buffer pool up to the public API.  Counters are cumulative
// since Open; Sub turns two snapshots into the activity between them.
// Each counter's paper section reference is listed in the README's
// Observability table.
type Metrics struct {
	// Structure gauges (current values).
	Height          int     // tree levels
	Pages           int     // allocated pages (index size, Figure 15)
	LeafEntries     int     // stored leaf entries, live plus unpurged expired
	BufferResident  int     // buffered pages
	BufferPoolPages int     // buffer pool page capacity (sum over shards when sharded)
	UIEstimate      float64 // self-tuned update-interval estimate (§4.2.3)
	Horizon         float64 // time horizon H = UI + W (§4.2.1)

	// Speed-band envelope of a speed-partitioned ShardedTree: the
	// [lower, upper) |velocity| range covered by the shards' bands (the
	// upper bound is +Inf for the fastest band).  Zero on a stand-alone
	// tree or under hash partitioning.
	SpeedBandLo float64
	SpeedBandHi float64

	// Buffer-pool counters (§5.1).
	BufferReads           uint64 // pages read from the store (misses)
	BufferWrites          uint64 // pages written to the store
	BufferHits            uint64 // requests served from the buffer
	BufferEvictions       uint64 // frames evicted by LRU replacement
	BufferDirtyWritebacks uint64 // evictions that wrote the frame back
	FaultTrips            uint64 // injected storage faults that fired

	// Snapshot read-path counters.
	EpochPins               uint64 // epochs pinned by snapshot traversals
	SnapshotNodeHits        uint64 // node lookups served lock-free from version chains
	SnapshotNodeMisses      uint64 // snapshot lookups that found no version at the pinned sequence (the query fails)
	SnapshotPublishes       uint64 // snapshot publications (atomic root/version swaps)
	SnapshotVersionsTrimmed uint64 // retired page versions reclaimed by the writer

	// Structural counters.
	ChooseSubtreeDescents   uint64 // ChooseSubtree steps, one per level (§4.2.2)
	QueryNodeVisits         uint64 // nodes visited by queries
	QueryLeafEntriesScanned uint64 // leaf entries examined by queries
	Splits                  uint64 // node splits (§4.2.2)
	ForcedReinserts         uint64 // forced-reinsertion rounds (§4.2.2)
	Condenses               uint64 // underflowing nodes dissolved (§4.3)
	OrphansReinserted       uint64 // entries placed back via the orphan list (§4.3)
	ExpiredPurged           uint64 // expired leaf entries lazily purged (§4.3)
	SubtreesFreed           uint64 // expired internal subtrees deallocated (§4.3)

	// BatchedUpdates counts individual reports applied through
	// UpdateBatch (each batch also counts once under the update_batch
	// operation in Ops).
	BatchedUpdates uint64

	// Sharded front-end counters (zero on a stand-alone tree).
	ShardVisits uint64 // shards searched by front-end queries
	Rerouted    uint64 // objects moved between shards on a speed-band change

	// Live-reshard counters (zero on a stand-alone tree, or before any
	// live reshard).
	ReshardRuns        uint64 // live reshards completed (cut over to a new generation)
	ReshardDualApplied uint64 // mutations mirrored into an in-flight target generation
	ReshardBackfilled  uint64 // snapshot records copied into the target generation

	// ReshardCutoverStall records the exclusive mutation stall taken
	// by each live-reshard cutover.
	ReshardCutoverStall LatencyMetrics

	// Durability counters (zero under DurabilityNone).
	WALAppends             uint64 // logical records appended to the write-ahead log
	WALBytes               uint64 // bytes appended to the WAL, including checkpoint images
	WALFsyncs              uint64 // fsyncs issued on the WAL file
	Checkpoints            uint64 // checkpoints completed
	RecoveryReplayed       uint64 // logical WAL records replayed during recovery
	RecoveryDroppedExpired uint64 // replayed inserts skipped as already expired
	ChecksumFailures       uint64 // page or superblock checksum mismatches detected

	// RecoveryDuration records the wall-clock time of each recovery
	// pass run by Open/OpenSharded after an unclean shutdown.
	RecoveryDuration LatencyMetrics

	// Lock-wait histograms: how long public operations blocked before
	// acquiring the tree's shared (read) or exclusive (write) lock.
	LockWaitRead  LatencyMetrics
	LockWaitWrite LatencyMetrics

	// Ops holds the per-operation latency histograms in the fixed
	// order update, delete, timeslice, window, moving, nearest,
	// update_batch.
	Ops [NumOps]OpMetrics
}

// LatencyMetrics is a frozen latency histogram without an operation
// identity (used for the lock-wait instruments).
type LatencyMetrics struct {
	Count        uint64  // recorded waits
	TotalSeconds float64 // summed wait time
	// Buckets holds per-bucket (non-cumulative) counts over the same
	// bounds as LatencyBucketBounds.
	Buckets [numBuckets]uint64
}

// Mean returns the mean wait in seconds (0 before any observation).
func (l LatencyMetrics) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.TotalSeconds / float64(l.Count)
}

// Sub returns the activity since the earlier snapshot prev.
func (l LatencyMetrics) Sub(prev LatencyMetrics) LatencyMetrics {
	d := l
	d.Count -= prev.Count
	d.TotalSeconds -= prev.TotalSeconds
	for i := range d.Buckets {
		d.Buckets[i] -= prev.Buckets[i]
	}
	return d
}

// Sub returns the activity between the earlier snapshot prev and m:
// counters and histograms are subtracted, while the gauges keep m's
// (current) values.
func (m Metrics) Sub(prev Metrics) Metrics {
	d := m
	d.BufferReads -= prev.BufferReads
	d.BufferWrites -= prev.BufferWrites
	d.BufferHits -= prev.BufferHits
	d.BufferEvictions -= prev.BufferEvictions
	d.BufferDirtyWritebacks -= prev.BufferDirtyWritebacks
	d.FaultTrips -= prev.FaultTrips
	d.EpochPins -= prev.EpochPins
	d.SnapshotNodeHits -= prev.SnapshotNodeHits
	d.SnapshotNodeMisses -= prev.SnapshotNodeMisses
	d.SnapshotPublishes -= prev.SnapshotPublishes
	d.SnapshotVersionsTrimmed -= prev.SnapshotVersionsTrimmed
	d.ChooseSubtreeDescents -= prev.ChooseSubtreeDescents
	d.QueryNodeVisits -= prev.QueryNodeVisits
	d.QueryLeafEntriesScanned -= prev.QueryLeafEntriesScanned
	d.Splits -= prev.Splits
	d.ForcedReinserts -= prev.ForcedReinserts
	d.Condenses -= prev.Condenses
	d.OrphansReinserted -= prev.OrphansReinserted
	d.ExpiredPurged -= prev.ExpiredPurged
	d.SubtreesFreed -= prev.SubtreesFreed
	d.BatchedUpdates -= prev.BatchedUpdates
	d.ShardVisits -= prev.ShardVisits
	d.Rerouted -= prev.Rerouted
	d.ReshardRuns -= prev.ReshardRuns
	d.ReshardDualApplied -= prev.ReshardDualApplied
	d.ReshardBackfilled -= prev.ReshardBackfilled
	d.ReshardCutoverStall = m.ReshardCutoverStall.Sub(prev.ReshardCutoverStall)
	d.WALAppends -= prev.WALAppends
	d.WALBytes -= prev.WALBytes
	d.WALFsyncs -= prev.WALFsyncs
	d.Checkpoints -= prev.Checkpoints
	d.RecoveryReplayed -= prev.RecoveryReplayed
	d.RecoveryDroppedExpired -= prev.RecoveryDroppedExpired
	d.ChecksumFailures -= prev.ChecksumFailures
	d.RecoveryDuration = m.RecoveryDuration.Sub(prev.RecoveryDuration)
	d.LockWaitRead = m.LockWaitRead.Sub(prev.LockWaitRead)
	d.LockWaitWrite = m.LockWaitWrite.Sub(prev.LockWaitWrite)
	for i := range d.Ops {
		d.Ops[i] = m.Ops[i].Sub(prev.Ops[i])
	}
	return d
}

// Op returns the metrics of the named operation (update, delete,
// timeslice, window, moving, nearest); ok is false for unknown names.
func (m Metrics) Op(name string) (o OpMetrics, ok bool) {
	for i := range m.Ops {
		if m.Ops[i].Op == name {
			return m.Ops[i], true
		}
	}
	return OpMetrics{}, false
}

// snapshot refreshes the structure gauges and freezes the registry.
func (tr *Tree) snapshot() obs.Snapshot {
	tr.rlock()
	tr.t.SyncGauges()
	tr.mu.RUnlock()
	return tr.m.Snapshot()
}

// Metrics returns a snapshot of the tree's full instrumentation.  It
// is safe to call concurrently with operations; see Metrics.Sub for
// interval accounting.
func (tr *Tree) Metrics() Metrics {
	return fromSnapshot(tr.snapshot())
}

func fromSnapshot(s obs.Snapshot) Metrics {
	m := Metrics{
		Height:          int(s.Height),
		Pages:           int(s.Pages),
		LeafEntries:     int(s.LeafEntries),
		BufferResident:  int(s.BufResident),
		BufferPoolPages: int(s.BufPoolPages),
		UIEstimate:      s.UI,
		Horizon:         s.Horizon,
		SpeedBandLo:     s.SpeedBandLo,
		SpeedBandHi:     s.SpeedBandHi,

		BufferReads:           s.BufReads,
		BufferWrites:          s.BufWrites,
		BufferHits:            s.BufHits,
		BufferEvictions:       s.BufEvictions,
		BufferDirtyWritebacks: s.BufDirtyWritebacks,
		FaultTrips:            s.FaultTrips,

		EpochPins:               s.EpochPins,
		SnapshotNodeHits:        s.SnapNodeHits,
		SnapshotNodeMisses:      s.SnapNodeMisses,
		SnapshotPublishes:       s.SnapPublishes,
		SnapshotVersionsTrimmed: s.SnapVersionsTrimmed,

		ChooseSubtreeDescents:   s.ChooseSubtree,
		QueryNodeVisits:         s.NodeVisits,
		QueryLeafEntriesScanned: s.LeafScans,
		Splits:                  s.Splits,
		ForcedReinserts:         s.ForcedReinserts,
		Condenses:               s.Condenses,
		OrphansReinserted:       s.OrphansReinserted,
		ExpiredPurged:           s.ExpiredPurged,
		SubtreesFreed:           s.SubtreesFreed,

		BatchedUpdates: s.BatchedUpdates,
		ShardVisits:    s.ShardVisits,
		Rerouted:       s.Rerouted,

		ReshardRuns:         s.ReshardRuns,
		ReshardDualApplied:  s.ReshardDualApplied,
		ReshardBackfilled:   s.ReshardBackfilled,
		ReshardCutoverStall: fromHist(s.ReshardCutoverStall),

		WALAppends:             s.WALAppends,
		WALBytes:               s.WALBytes,
		WALFsyncs:              s.WALFsyncs,
		Checkpoints:            s.Checkpoints,
		RecoveryReplayed:       s.RecoveryReplayed,
		RecoveryDroppedExpired: s.RecoveryDroppedExpired,
		ChecksumFailures:       s.ChecksumFailures,
		RecoveryDuration:       fromHist(s.RecoveryDuration),

		LockWaitRead:  fromHist(s.LockWaitRead),
		LockWaitWrite: fromHist(s.LockWaitWrite),
	}
	for i := range s.Ops {
		m.Ops[i] = OpMetrics{
			Op:           s.Ops[i].Op,
			Count:        s.Ops[i].Count,
			Errors:       s.Ops[i].Errors,
			TotalSeconds: s.Ops[i].SumSeconds,
			Buckets:      s.Ops[i].Buckets,
		}
	}
	return m
}

// fromHist converts an internal histogram snapshot.
func fromHist(h obs.HistSnapshot) LatencyMetrics {
	return LatencyMetrics{Count: h.Count, TotalSeconds: h.SumSeconds, Buckets: h.Buckets}
}

// WriteMetrics writes the current metrics in the Prometheus text
// exposition format (version 0.0.4).
func (tr *Tree) WriteMetrics(w io.Writer) error {
	return obs.WriteSnapshot(w, tr.snapshot())
}

// MetricsHandler returns an http.Handler serving the tree's metrics
// in Prometheus text format, for mounting on a scrape endpoint:
//
//	http.Handle("/metrics", tree.MetricsHandler())
func (tr *Tree) MetricsHandler() http.Handler {
	return obs.Handler(tr.snapshot)
}
