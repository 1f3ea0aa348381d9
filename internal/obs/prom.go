package obs

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
)

// DefaultPrefix is the metric-name prefix of a stand-alone tree's
// exposition.  Sharded front-ends write one section per shard with the
// shard's own prefix (rexp_shard0, rexp_shard1, ...) so a single
// scrape distinguishes the sub-indexes.
const DefaultPrefix = "rexp"

// promFamily describes one exposed counter or gauge series.  The name
// is a suffix; the exposition prepends the section prefix.
type promFamily struct {
	name, typ, help string
	value           func(*Snapshot) string
}

func cv(f func(*Snapshot) uint64) func(*Snapshot) string {
	return func(s *Snapshot) string { return strconv.FormatUint(f(s), 10) }
}

func gv(f func(*Snapshot) int64) func(*Snapshot) string {
	return func(s *Snapshot) string { return strconv.FormatInt(f(s), 10) }
}

func fv(f func(*Snapshot) float64) func(*Snapshot) string {
	return func(s *Snapshot) string { return formatFloat(f(s)) }
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// families lists every scalar series in exposition order.  Histograms
// are appended separately by WriteSnapshotPrefix.
var families = []promFamily{
	{"_buffer_reads_total", "counter", "Pages read from the store (buffer misses, paper 5.1).", cv(func(s *Snapshot) uint64 { return s.BufReads })},
	{"_buffer_writes_total", "counter", "Pages written to the store.", cv(func(s *Snapshot) uint64 { return s.BufWrites })},
	{"_buffer_hits_total", "counter", "Page requests served from the buffer.", cv(func(s *Snapshot) uint64 { return s.BufHits })},
	{"_buffer_evictions_total", "counter", "Buffer frames evicted by LRU replacement.", cv(func(s *Snapshot) uint64 { return s.BufEvictions })},
	{"_buffer_dirty_writebacks_total", "counter", "Evictions that wrote a dirty frame back first.", cv(func(s *Snapshot) uint64 { return s.BufDirtyWritebacks })},
	{"_storage_fault_trips_total", "counter", "Injected storage faults that fired.", cv(func(s *Snapshot) uint64 { return s.FaultTrips })},
	{"_epoch_pins_total", "counter", "Epochs pinned by snapshot traversals.", cv(func(s *Snapshot) uint64 { return s.EpochPins })},
	{"_snapshot_node_hits_total", "counter", "Node lookups served lock-free from page version chains.", cv(func(s *Snapshot) uint64 { return s.SnapNodeHits })},
	{"_snapshot_node_misses_total", "counter", "Snapshot node lookups that found no version at the pinned sequence; the query fails.", cv(func(s *Snapshot) uint64 { return s.SnapNodeMisses })},
	{"_snapshot_publishes_total", "counter", "Snapshot publications (atomic root and version swaps by writers).", cv(func(s *Snapshot) uint64 { return s.SnapPublishes })},
	{"_snapshot_versions_trimmed_total", "counter", "Retired page versions reclaimed after readers moved past them.", cv(func(s *Snapshot) uint64 { return s.SnapVersionsTrimmed })},
	{"_choose_subtree_total", "counter", "ChooseSubtree descents, one per level (paper 4.2.2).", cv(func(s *Snapshot) uint64 { return s.ChooseSubtree })},
	{"_query_node_visits_total", "counter", "Nodes visited by search and nearest-neighbor queries.", cv(func(s *Snapshot) uint64 { return s.NodeVisits })},
	{"_query_leaf_entries_scanned_total", "counter", "Leaf entries examined by queries.", cv(func(s *Snapshot) uint64 { return s.LeafScans })},
	{"_split_total", "counter", "Node splits (paper 4.2.2).", cv(func(s *Snapshot) uint64 { return s.Splits })},
	{"_forced_reinsert_total", "counter", "Forced-reinsertion rounds on node overflow (paper 4.2.2).", cv(func(s *Snapshot) uint64 { return s.ForcedReinserts })},
	{"_condense_total", "counter", "Underflowing nodes dissolved by CondenseTree (paper 4.3).", cv(func(s *Snapshot) uint64 { return s.Condenses })},
	{"_orphan_reinserted_total", "counter", "Entries placed back via the orphan list (CT3, paper 4.3).", cv(func(s *Snapshot) uint64 { return s.OrphansReinserted })},
	{"_expired_purged_total", "counter", "Expired leaf entries lazily purged (paper 4.3).", cv(func(s *Snapshot) uint64 { return s.ExpiredPurged })},
	{"_subtree_freed_total", "counter", "Expired internal subtrees deallocated (paper 4.3).", cv(func(s *Snapshot) uint64 { return s.SubtreesFreed })},
	{"_batched_updates_total", "counter", "Object reports applied through UpdateBatch.", cv(func(s *Snapshot) uint64 { return s.BatchedUpdates })},
	{"_query_shard_visits_total", "counter", "Shards searched by front-end queries.", cv(func(s *Snapshot) uint64 { return s.ShardVisits })},
	{"_partition_rerouted_total", "counter", "Objects moved between shards on a speed-band change.", cv(func(s *Snapshot) uint64 { return s.Rerouted })},
	{"_wal_appends_total", "counter", "Logical records appended to the write-ahead log.", cv(func(s *Snapshot) uint64 { return s.WALAppends })},
	{"_wal_bytes_total", "counter", "Bytes appended to the write-ahead log, including checkpoint images.", cv(func(s *Snapshot) uint64 { return s.WALBytes })},
	{"_wal_fsyncs_total", "counter", "Fsyncs issued on the write-ahead log file.", cv(func(s *Snapshot) uint64 { return s.WALFsyncs })},
	{"_checkpoints_total", "counter", "Checkpoints completed (pool flush, superblock sync, WAL truncate).", cv(func(s *Snapshot) uint64 { return s.Checkpoints })},
	{"_recovery_replayed_total", "counter", "Logical WAL records replayed during recovery.", cv(func(s *Snapshot) uint64 { return s.RecoveryReplayed })},
	{"_recovery_dropped_expired_total", "counter", "Replayed inserts skipped because the entry had already expired.", cv(func(s *Snapshot) uint64 { return s.RecoveryDroppedExpired })},
	{"_checksum_failures_total", "counter", "Page or superblock checksum mismatches detected.", cv(func(s *Snapshot) uint64 { return s.ChecksumFailures })},
	{"_reshard_runs_total", "counter", "Live reshards completed (cut over to a new generation).", cv(func(s *Snapshot) uint64 { return s.ReshardRuns })},
	{"_reshard_dual_applied_total", "counter", "Mutations mirrored into an in-flight target generation.", cv(func(s *Snapshot) uint64 { return s.ReshardDualApplied })},
	{"_reshard_backfilled_total", "counter", "Snapshot records copied into the target generation by the live reshard.", cv(func(s *Snapshot) uint64 { return s.ReshardBackfilled })},
	{"_height", "gauge", "Tree levels.", gv(func(s *Snapshot) int64 { return s.Height })},
	{"_index_pages", "gauge", "Allocated pages (index size, paper Figure 15).", gv(func(s *Snapshot) int64 { return s.Pages })},
	{"_leaf_entries", "gauge", "Stored leaf entries, live plus unpurged expired (paper 5.4).", gv(func(s *Snapshot) int64 { return s.LeafEntries })},
	{"_buffer_resident_pages", "gauge", "Pages currently buffered.", gv(func(s *Snapshot) int64 { return s.BufResident })},
	{"_buffer_pool_pages", "gauge", "Buffer pool page capacity.", gv(func(s *Snapshot) int64 { return s.BufPoolPages })},
	{"_ui_estimate", "gauge", "Self-tuned update-interval estimate UI (paper 4.2.3).", fv(func(s *Snapshot) float64 { return s.UI })},
	{"_horizon", "gauge", "Time horizon H = UI + W (paper 4.2.1).", fv(func(s *Snapshot) float64 { return s.Horizon })},
	{"_speed_band_lo", "gauge", "Lower |velocity| bound of the shard's speed band.", fv(func(s *Snapshot) float64 { return s.SpeedBandLo })},
	{"_speed_band_hi", "gauge", "Upper |velocity| bound of the shard's speed band.", fv(func(s *Snapshot) float64 { return s.SpeedBandHi })},
}

// WriteSnapshot writes the snapshot in the Prometheus text exposition
// format (version 0.0.4) under the default "rexp" name prefix.  The
// output is deterministic for a given snapshot, which the golden-file
// test relies on.
func WriteSnapshot(w io.Writer, s Snapshot) error {
	return WriteSnapshotPrefix(w, s, DefaultPrefix)
}

// WriteSnapshotPrefix writes the snapshot with every metric name
// starting with the given prefix (e.g. "rexp_shard0").  The prefix
// must be a valid Prometheus name fragment: [a-zA-Z_][a-zA-Z0-9_]*.
func WriteSnapshotPrefix(w io.Writer, s Snapshot, prefix string) error {
	bw := bufio.NewWriter(w)
	for _, f := range families {
		name := prefix + f.name
		bw.WriteString("# HELP ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(f.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ)
		bw.WriteByte('\n')
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(f.value(&s))
		bw.WriteByte('\n')
	}

	name := prefix + "_lock_wait_seconds"
	bw.WriteString("# HELP " + name + " Time operations wait to acquire the tree lock, by mode.\n")
	bw.WriteString("# TYPE " + name + " histogram\n")
	writeHist(bw, name, `mode="read"`, &s.LockWaitRead)
	writeHist(bw, name, `mode="write"`, &s.LockWaitWrite)

	name = prefix + "_phase_duration_seconds"
	bw.WriteString("# HELP " + name + " Latency of internal execution phases (queue wait, page I/O, WAL append and fsync, checkpoint, merge).\n")
	bw.WriteString("# TYPE " + name + " histogram\n")
	for p := Phase(0); p < NumPhases; p++ {
		writeHist(bw, name, `phase="`+p.String()+`"`, &s.Phases[p])
	}

	name = prefix + "_recovery_duration_seconds"
	bw.WriteString("# HELP " + name + " Wall-clock duration of WAL recovery passes.\n")
	bw.WriteString("# TYPE " + name + " histogram\n")
	writeHist(bw, name, "", &s.RecoveryDuration)

	name = prefix + "_reshard_cutover_stall_seconds"
	bw.WriteString("# HELP " + name + " Exclusive mutation stall taken by each live-reshard cutover.\n")
	bw.WriteString("# TYPE " + name + " histogram\n")
	writeHist(bw, name, "", &s.ReshardCutoverStall)

	name = prefix + "_op_errors_total"
	bw.WriteString("# HELP " + name + " Public operations that returned an error.\n")
	bw.WriteString("# TYPE " + name + " counter\n")
	for op := Op(0); op < NumOps; op++ {
		bw.WriteString(name)
		bw.WriteString("{op=\"")
		bw.WriteString(op.String())
		bw.WriteString("\"} ")
		bw.WriteString(strconv.FormatUint(s.Ops[op].Errors, 10))
		bw.WriteByte('\n')
	}

	name = prefix + "_op_duration_seconds"
	bw.WriteString("# HELP " + name + " Latency of public index operations.\n")
	bw.WriteString("# TYPE " + name + " histogram\n")
	for op := Op(0); op < NumOps; op++ {
		o := &s.Ops[op]
		h := HistSnapshot{Count: o.Count, SumSeconds: o.SumSeconds, Buckets: o.Buckets}
		writeHist(bw, name, `op="`+op.String()+`"`, &h)
	}
	return bw.Flush()
}

// writeHist writes one histogram series: the cumulative buckets, the
// sum and the count.  label may be empty for an unlabelled series.
func writeHist(bw *bufio.Writer, name, label string, h *HistSnapshot) {
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.Buckets[i]
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		bw.WriteString(name)
		bw.WriteString("_bucket{")
		if label != "" {
			bw.WriteString(label)
			bw.WriteByte(',')
		}
		bw.WriteString("le=\"")
		bw.WriteString(le)
		bw.WriteString("\"} ")
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	for _, suffix := range [2]string{"_sum", "_count"} {
		bw.WriteString(name)
		bw.WriteString(suffix)
		if label != "" {
			bw.WriteString("{")
			bw.WriteString(label)
			bw.WriteString("}")
		}
		bw.WriteByte(' ')
		if suffix == "_sum" {
			bw.WriteString(formatFloat(h.SumSeconds))
		} else {
			bw.WriteString(strconv.FormatUint(h.Count, 10))
		}
		bw.WriteByte('\n')
	}
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the snapshots produced by
// snap in Prometheus text format.  snap is called once per request,
// so it can refresh gauges before freezing the state.
func Handler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := WriteSnapshot(w, snap()); err != nil {
			// The response is already partially written; nothing
			// useful can be reported to the client.
			return
		}
	})
}

// ShardedHandler returns an http.Handler serving a multi-section
// exposition: the aggregate snapshot under the default prefix followed
// by one section per shard under rexp_shard<i>.
func ShardedHandler(snap func() (agg Snapshot, shards []Snapshot)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		agg, shards := snap()
		if err := WriteSnapshotPrefix(w, agg, DefaultPrefix); err != nil {
			return
		}
		for i, s := range shards {
			prefix := DefaultPrefix + "_shard" + strconv.Itoa(i)
			if err := WriteSnapshotPrefix(w, s, prefix); err != nil {
				return
			}
		}
	})
}
