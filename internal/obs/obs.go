// Package obs is the observability subsystem of the index: atomic
// counters, gauges and fixed-bucket latency histograms for every layer
// from the buffer pool to the public API, with one counter per
// structural event (splits, forced reinserts, condensing, lazy purges
// of expired entries, buffer evictions), the slow-operation log, and a
// Prometheus-text exposition of the collected state.
//
// The package has no dependencies beyond the standard library and is
// designed for a nil fast path: every instrumented layer holds a
// *Metrics that may be nil, and all recording helpers are no-ops on a
// nil receiver, so an uninstrumented tree pays only a pointer test.
// With a *Metrics attached, the hot-path cost is a handful of atomic
// adds.  No recording path allocates.
package obs

import (
	"log"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic integer gauge.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// GaugeFloat is an atomic float64 gauge.
type GaugeFloat struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *GaugeFloat) Set(f float64) { g.bits.Store(math.Float64bits(f)) }

// Load returns the current value.
func (g *GaugeFloat) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// NumBuckets is the number of histogram buckets: len(Bounds) finite
// upper bounds plus one overflow (+Inf) bucket.
const NumBuckets = len(bounds) + 1

// bounds are the fixed latency bucket upper bounds in seconds,
// spanning 1 µs to 1 s; slower observations land in the overflow
// bucket.
var bounds = [...]float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

// Bounds returns the histogram bucket upper bounds in seconds (the
// overflow bucket is implicit).
func Bounds() []float64 { return append([]float64(nil), bounds[:]...) }

// Histogram is a fixed-bucket latency histogram.  Observations are
// durations; the exposition reports seconds, following the Prometheus
// convention.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	nanos  atomic.Int64
	count  atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(bounds) && s > bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.nanos.Add(int64(d))
	h.count.Add(1)
}

// HistSnapshot is the frozen state of one histogram.
type HistSnapshot struct {
	Count      uint64
	SumSeconds float64
	Buckets    [NumBuckets]uint64 // per-bucket (non-cumulative) counts
}

// Snapshot freezes the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumSeconds = float64(h.nanos.Load()) / 1e9
	for i := range s.Buckets {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// Sub returns the activity since the earlier snapshot o.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	d := s
	d.Count -= o.Count
	d.SumSeconds -= o.SumSeconds
	for i := range d.Buckets {
		d.Buckets[i] -= o.Buckets[i]
	}
	return d
}

// Add returns the combined activity of both snapshots.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	d := s
	d.Count += o.Count
	d.SumSeconds += o.SumSeconds
	for i := range d.Buckets {
		d.Buckets[i] += o.Buckets[i]
	}
	return d
}

// Op identifies one public index operation.
type Op int

// The public operations, in exposition order.
const (
	OpUpdate Op = iota
	OpDelete
	OpTimeslice
	OpWindow
	OpMoving
	OpNearest
	OpBatch // one UpdateBatch call (its size is counted separately by the caller)
	NumOps  // count, not an operation
)

var opNames = [NumOps]string{"update", "delete", "timeslice", "window", "moving", "nearest", "update_batch"}

// String returns the operation's lower-case name.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "unknown"
	}
	return opNames[o]
}

// OpMetrics holds the per-operation instruments.
type OpMetrics struct {
	Total   Counter
	Errors  Counter
	Latency Histogram
}

// Metrics is the complete instrument registry for one tree.  All
// counters and gauges are safe for concurrent use; SlowOp and
// SlowLabel must be set before the tree processes operations.
type Metrics struct {
	// Buffer pool (internal/storage, paper §5.1).
	BufReads           Counter // pages read from the store (buffer misses)
	BufWrites          Counter // pages written to the store
	BufHits            Counter // page requests served from the buffer
	BufEvictions       Counter // frames evicted by LRU replacement
	BufDirtyWritebacks Counter // evictions that had to write the frame back
	FaultTrips         Counter // injected storage faults that fired

	// Snapshot read path (internal/core + internal/epoch, PR 8).
	EpochPins           Counter // epochs pinned by snapshot traversals
	SnapNodeHits        Counter // node lookups served from version chains, lock-free
	SnapNodeMisses      Counter // snapshot lookups that found no version at the pinned sequence (the query fails)
	SnapPublishes       Counter // snapshot publications (atomic root/version swaps)
	SnapVersionsTrimmed Counter // retired page versions reclaimed by the writer

	// Structural counters (internal/core).
	ChooseSubtree     Counter // ChooseSubtree descents, one per level (§4.2.2)
	NodeVisits        Counter // nodes visited by search and nearest-neighbor queries
	LeafScans         Counter // leaf entries examined by queries
	Splits            Counter // node splits (§4.2.2)
	ForcedReinserts   Counter // forced-reinsertion rounds on overflow (§4.2.2)
	Condenses         Counter // underflowing nodes dissolved (CondenseTree, §4.3)
	OrphansReinserted Counter // entries placed back via the orphan list (CT3, §4.3)
	ExpiredPurged     Counter // expired leaf entries lazily purged (§4.3)
	SubtreesFreed     Counter // expired internal subtrees deallocated (§4.3)

	// Gauges, refreshed by Tree.SyncGauges at observation time.
	Height       Gauge      // tree levels
	Pages        Gauge      // allocated pages (index size, Figure 15)
	LeafEntries  Gauge      // stored leaf entries, live plus unpurged expired
	BufResident  Gauge      // buffered pages
	BufPoolPages Gauge      // buffer pool page capacity (PR 3)
	UI           GaugeFloat // self-tuned update-interval estimate (§4.2.3)
	Horizon      GaugeFloat // time horizon H = UI + W (§4.2.1)

	// Sharded front-end partitioning and pruning (PR 3).  On a shard's
	// own registry the speed-band gauges hold the shard's assigned
	// speed interval [lo, hi); on the aggregate they hold the envelope.
	ShardVisits Counter    // shards searched by front-end queries
	Rerouted    Counter    // objects moved between shards on a band change
	SpeedBandLo GaugeFloat // lower |velocity| bound of the shard's speed band
	SpeedBandHi GaugeFloat // upper |velocity| bound of the shard's speed band

	// Durability: write-ahead log, checkpoints and recovery (PR 5).
	WALAppends             Counter   // logical records appended to the WAL
	WALBytes               Counter   // bytes appended to the WAL (frames, including checkpoint images)
	WALFsyncs              Counter   // fsyncs issued on the WAL file
	Checkpoints            Counter   // checkpoints completed (image set + pool flush; a settling one also truncates the WAL)
	RecoveryReplayed       Counter   // logical WAL records replayed during recovery
	RecoveryDroppedExpired Counter   // replayed inserts skipped because the entry had already expired
	ChecksumFailures       Counter   // page or superblock checksum mismatches detected
	RecoveryDuration       Histogram // wall-clock duration of each recovery pass

	// Live reshard (PR 9): dual-apply window and the cutover.  The
	// stall histogram records how long each cutover held the mutation
	// path exclusively.
	ReshardRuns         Counter   // live reshards completed (cut over)
	ReshardDualApplied  Counter   // mutations mirrored into an in-flight target generation
	ReshardBackfilled   Counter   // snapshot records copied into the target generation
	ReshardCutoverStall Histogram // exclusive mutation stall of each cutover

	// Lock acquisition wait times of the public tree (PR 2): how long
	// operations block before entering the index.  Read covers the
	// shared (query) lock, Write the exclusive (update) lock.
	LockWaitRead  Histogram
	LockWaitWrite Histogram

	// BatchedUpdates counts individual object reports applied through
	// UpdateBatch (each batch is additionally one OpBatch operation).
	BatchedUpdates Counter

	// Phases holds the internal phase-latency histograms (queue wait,
	// page I/O, WAL append and fsync, checkpoint, merge), indexed by
	// Phase.  They attribute where operations spend their time below
	// the per-operation histograms (PR 6).
	Phases [NumPhases]Histogram

	// Ops holds the per-operation latency instruments, indexed by Op.
	Ops [NumOps]OpMetrics

	// SlowOp, when positive, logs every operation at least this long
	// through the standard logger, its name prefixed with SlowLabel
	// ("" for a stand-alone tree, "shard<i>/" or "fanout/").
	SlowOp    time.Duration
	SlowLabel string
}

// New returns an empty instrument registry.
func New() *Metrics { return &Metrics{} }

// ObserveOp records one public operation: its latency histogram, the
// total and error counters, and the slow-operation log line when the
// duration reaches SlowOp.  No-op on a nil receiver.
func (m *Metrics) ObserveOp(op Op, d time.Duration, err error) {
	if m == nil {
		return
	}
	o := &m.Ops[op]
	o.Total.Inc()
	if err != nil {
		o.Errors.Inc()
	}
	o.Latency.Observe(d)
	if m.SlowOp > 0 && d >= m.SlowOp {
		log.Printf("rexptree: slow %s%s: %v (threshold %v)", m.SlowLabel, op, d, m.SlowOp)
	}
}

// OpSnapshot is the frozen state of one operation's instruments.
type OpSnapshot struct {
	Op         string
	Count      uint64
	Errors     uint64
	SumSeconds float64
	Buckets    [NumBuckets]uint64 // per-bucket (non-cumulative) counts
}

// Sub returns the activity since the earlier snapshot o.
func (s OpSnapshot) Sub(o OpSnapshot) OpSnapshot {
	d := s
	d.Count -= o.Count
	d.Errors -= o.Errors
	d.SumSeconds -= o.SumSeconds
	for i := range d.Buckets {
		d.Buckets[i] -= o.Buckets[i]
	}
	return d
}

// Snapshot is a frozen, plain-value copy of a Metrics registry.
type Snapshot struct {
	BufReads           uint64
	BufWrites          uint64
	BufHits            uint64
	BufEvictions       uint64
	BufDirtyWritebacks uint64
	FaultTrips         uint64

	EpochPins           uint64
	SnapNodeHits        uint64
	SnapNodeMisses      uint64
	SnapPublishes       uint64
	SnapVersionsTrimmed uint64

	ChooseSubtree     uint64
	NodeVisits        uint64
	LeafScans         uint64
	Splits            uint64
	ForcedReinserts   uint64
	Condenses         uint64
	OrphansReinserted uint64
	ExpiredPurged     uint64
	SubtreesFreed     uint64

	Height       int64
	Pages        int64
	LeafEntries  int64
	BufResident  int64
	BufPoolPages int64
	UI           float64
	Horizon      float64

	ShardVisits uint64
	Rerouted    uint64
	SpeedBandLo float64
	SpeedBandHi float64

	WALAppends             uint64
	WALBytes               uint64
	WALFsyncs              uint64
	Checkpoints            uint64
	RecoveryReplayed       uint64
	RecoveryDroppedExpired uint64
	ChecksumFailures       uint64
	RecoveryDuration       HistSnapshot

	ReshardRuns         uint64
	ReshardDualApplied  uint64
	ReshardBackfilled   uint64
	ReshardCutoverStall HistSnapshot

	LockWaitRead   HistSnapshot
	LockWaitWrite  HistSnapshot
	BatchedUpdates uint64

	Phases [NumPhases]HistSnapshot

	Ops [NumOps]OpSnapshot
}

// Snapshot freezes the current state.  On a nil receiver it returns
// the zero snapshot.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	s.BufReads = m.BufReads.Load()
	s.BufWrites = m.BufWrites.Load()
	s.BufHits = m.BufHits.Load()
	s.BufEvictions = m.BufEvictions.Load()
	s.BufDirtyWritebacks = m.BufDirtyWritebacks.Load()
	s.FaultTrips = m.FaultTrips.Load()
	s.EpochPins = m.EpochPins.Load()
	s.SnapNodeHits = m.SnapNodeHits.Load()
	s.SnapNodeMisses = m.SnapNodeMisses.Load()
	s.SnapPublishes = m.SnapPublishes.Load()
	s.SnapVersionsTrimmed = m.SnapVersionsTrimmed.Load()
	s.ChooseSubtree = m.ChooseSubtree.Load()
	s.NodeVisits = m.NodeVisits.Load()
	s.LeafScans = m.LeafScans.Load()
	s.Splits = m.Splits.Load()
	s.ForcedReinserts = m.ForcedReinserts.Load()
	s.Condenses = m.Condenses.Load()
	s.OrphansReinserted = m.OrphansReinserted.Load()
	s.ExpiredPurged = m.ExpiredPurged.Load()
	s.SubtreesFreed = m.SubtreesFreed.Load()
	s.Height = m.Height.Load()
	s.Pages = m.Pages.Load()
	s.LeafEntries = m.LeafEntries.Load()
	s.BufResident = m.BufResident.Load()
	s.BufPoolPages = m.BufPoolPages.Load()
	s.UI = m.UI.Load()
	s.Horizon = m.Horizon.Load()
	s.ShardVisits = m.ShardVisits.Load()
	s.Rerouted = m.Rerouted.Load()
	s.SpeedBandLo = m.SpeedBandLo.Load()
	s.SpeedBandHi = m.SpeedBandHi.Load()
	s.WALAppends = m.WALAppends.Load()
	s.WALBytes = m.WALBytes.Load()
	s.WALFsyncs = m.WALFsyncs.Load()
	s.Checkpoints = m.Checkpoints.Load()
	s.RecoveryReplayed = m.RecoveryReplayed.Load()
	s.RecoveryDroppedExpired = m.RecoveryDroppedExpired.Load()
	s.ChecksumFailures = m.ChecksumFailures.Load()
	s.RecoveryDuration = m.RecoveryDuration.Snapshot()
	s.ReshardRuns = m.ReshardRuns.Load()
	s.ReshardDualApplied = m.ReshardDualApplied.Load()
	s.ReshardBackfilled = m.ReshardBackfilled.Load()
	s.ReshardCutoverStall = m.ReshardCutoverStall.Snapshot()
	s.LockWaitRead = m.LockWaitRead.Snapshot()
	s.LockWaitWrite = m.LockWaitWrite.Snapshot()
	s.BatchedUpdates = m.BatchedUpdates.Load()
	for p := Phase(0); p < NumPhases; p++ {
		s.Phases[p] = m.Phases[p].Snapshot()
	}
	for op := Op(0); op < NumOps; op++ {
		o := &m.Ops[op]
		snap := &s.Ops[op]
		snap.Op = op.String()
		snap.Count = o.Latency.count.Load()
		snap.Errors = o.Errors.Load()
		snap.SumSeconds = float64(o.Latency.nanos.Load()) / 1e9
		for i := range snap.Buckets {
			snap.Buckets[i] = o.Latency.counts[i].Load()
		}
	}
	return s
}

// Sub returns the activity between the earlier snapshot o and s:
// counters and histogram buckets are subtracted; gauges keep s's
// (current) values.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := s
	d.BufReads -= o.BufReads
	d.BufWrites -= o.BufWrites
	d.BufHits -= o.BufHits
	d.BufEvictions -= o.BufEvictions
	d.BufDirtyWritebacks -= o.BufDirtyWritebacks
	d.FaultTrips -= o.FaultTrips
	d.EpochPins -= o.EpochPins
	d.SnapNodeHits -= o.SnapNodeHits
	d.SnapNodeMisses -= o.SnapNodeMisses
	d.SnapPublishes -= o.SnapPublishes
	d.SnapVersionsTrimmed -= o.SnapVersionsTrimmed
	d.ChooseSubtree -= o.ChooseSubtree
	d.NodeVisits -= o.NodeVisits
	d.LeafScans -= o.LeafScans
	d.Splits -= o.Splits
	d.ForcedReinserts -= o.ForcedReinserts
	d.Condenses -= o.Condenses
	d.OrphansReinserted -= o.OrphansReinserted
	d.ExpiredPurged -= o.ExpiredPurged
	d.SubtreesFreed -= o.SubtreesFreed
	d.LockWaitRead = s.LockWaitRead.Sub(o.LockWaitRead)
	d.LockWaitWrite = s.LockWaitWrite.Sub(o.LockWaitWrite)
	d.BatchedUpdates -= o.BatchedUpdates
	for i := range d.Phases {
		d.Phases[i] = s.Phases[i].Sub(o.Phases[i])
	}
	d.ShardVisits -= o.ShardVisits
	d.Rerouted -= o.Rerouted
	d.WALAppends -= o.WALAppends
	d.WALBytes -= o.WALBytes
	d.WALFsyncs -= o.WALFsyncs
	d.Checkpoints -= o.Checkpoints
	d.RecoveryReplayed -= o.RecoveryReplayed
	d.RecoveryDroppedExpired -= o.RecoveryDroppedExpired
	d.ChecksumFailures -= o.ChecksumFailures
	d.RecoveryDuration = s.RecoveryDuration.Sub(o.RecoveryDuration)
	d.ReshardRuns -= o.ReshardRuns
	d.ReshardDualApplied -= o.ReshardDualApplied
	d.ReshardBackfilled -= o.ReshardBackfilled
	d.ReshardCutoverStall = s.ReshardCutoverStall.Sub(o.ReshardCutoverStall)
	for i := range d.Ops {
		d.Ops[i] = s.Ops[i].Sub(o.Ops[i])
	}
	return d
}

// Add returns the combined activity of both snapshots: counters,
// gauges and histogram buckets are summed.  It aggregates the
// registries of independent sub-indexes (the shards of a ShardedTree)
// into one fleet-wide view; summing gauges is meaningful there because
// each shard owns disjoint pages and entries.
func (s Snapshot) Add(o Snapshot) Snapshot {
	d := s
	d.BufReads += o.BufReads
	d.BufWrites += o.BufWrites
	d.BufHits += o.BufHits
	d.BufEvictions += o.BufEvictions
	d.BufDirtyWritebacks += o.BufDirtyWritebacks
	d.FaultTrips += o.FaultTrips
	d.EpochPins += o.EpochPins
	d.SnapNodeHits += o.SnapNodeHits
	d.SnapNodeMisses += o.SnapNodeMisses
	d.SnapPublishes += o.SnapPublishes
	d.SnapVersionsTrimmed += o.SnapVersionsTrimmed
	d.ChooseSubtree += o.ChooseSubtree
	d.NodeVisits += o.NodeVisits
	d.LeafScans += o.LeafScans
	d.Splits += o.Splits
	d.ForcedReinserts += o.ForcedReinserts
	d.Condenses += o.Condenses
	d.OrphansReinserted += o.OrphansReinserted
	d.ExpiredPurged += o.ExpiredPurged
	d.SubtreesFreed += o.SubtreesFreed
	if o.Height > d.Height {
		d.Height = o.Height // the fleet is as tall as its tallest shard
	}
	d.Pages += o.Pages
	d.LeafEntries += o.LeafEntries
	d.BufResident += o.BufResident
	d.BufPoolPages += o.BufPoolPages
	d.UI = math.Max(d.UI, o.UI)
	d.Horizon = math.Max(d.Horizon, o.Horizon)
	d.LockWaitRead = s.LockWaitRead.Add(o.LockWaitRead)
	d.LockWaitWrite = s.LockWaitWrite.Add(o.LockWaitWrite)
	d.BatchedUpdates += o.BatchedUpdates
	for i := range d.Phases {
		d.Phases[i] = s.Phases[i].Add(o.Phases[i])
	}
	d.ShardVisits += o.ShardVisits
	d.Rerouted += o.Rerouted
	d.WALAppends += o.WALAppends
	d.WALBytes += o.WALBytes
	d.WALFsyncs += o.WALFsyncs
	d.Checkpoints += o.Checkpoints
	d.RecoveryReplayed += o.RecoveryReplayed
	d.RecoveryDroppedExpired += o.RecoveryDroppedExpired
	d.ChecksumFailures += o.ChecksumFailures
	d.RecoveryDuration = s.RecoveryDuration.Add(o.RecoveryDuration)
	d.ReshardRuns += o.ReshardRuns
	d.ReshardDualApplied += o.ReshardDualApplied
	d.ReshardBackfilled += o.ReshardBackfilled
	d.ReshardCutoverStall = s.ReshardCutoverStall.Add(o.ReshardCutoverStall)
	// The speed-band envelope: the fleet covers [min lo, max hi).
	d.SpeedBandLo = math.Min(d.SpeedBandLo, o.SpeedBandLo)
	d.SpeedBandHi = math.Max(d.SpeedBandHi, o.SpeedBandHi)
	for i := range d.Ops {
		op := d.Ops[i]
		op.Count += o.Ops[i].Count
		op.Errors += o.Ops[i].Errors
		op.SumSeconds += o.Ops[i].SumSeconds
		for j := range op.Buckets {
			op.Buckets[j] += o.Ops[i].Buckets[j]
		}
		d.Ops[i] = op
	}
	return d
}
