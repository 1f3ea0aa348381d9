package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one internal execution phase whose latency is
// aggregated into the phase-duration histograms (Metrics.Phases).
// Phases attribute where operations spend their time below the
// per-operation histograms: reading or writing pages past the buffer
// pool, appending to and fsyncing the
// write-ahead log, checkpointing, and merging per-shard result sets.
// (Lock waits have their own dedicated histograms, LockWaitRead and
// LockWaitWrite.)
type Phase int

// The phases, in exposition order.
const (
	// PhaseIORead is the store read of a buffer-pool miss.
	PhaseIORead Phase = iota
	// PhaseIOWrite is a page write that reaches the store (writeback,
	// flush or checkpoint).
	PhaseIOWrite
	// PhaseWALAppend is the buffered framing and append of one WAL
	// record.
	PhaseWALAppend
	// PhaseWALFsync is an fsync of the write-ahead log (the commit
	// stall of DurabilityOnCommit, the periodic sync of
	// DurabilityBatched, and the image sync of a checkpoint).
	PhaseWALFsync
	// PhaseCheckpoint is a whole checkpoint: imaging dirty pages into
	// the WAL, flushing the pool, syncing the store, truncating the
	// log.  Mutations stall behind it.
	PhaseCheckpoint
	// PhaseMerge is the sharded front-end's result merge: collecting
	// the per-shard result sets and sorting them into the
	// deterministic output order.
	PhaseMerge
	// NumPhases is the count, not a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"io_read", "io_write", "wal_append",
	"wal_fsync", "checkpoint", "merge",
}

// String returns the phase's snake_case name as used in the
// `phase` label of the Prometheus exposition.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// ObservePhase records one phase duration.  No-op on a nil receiver —
// the uninstrumented fast path.
func (m *Metrics) ObservePhase(p Phase, d time.Duration) {
	if m == nil {
		return
	}
	m.Phases[p].Observe(d)
}

// traceRing is a fixed-size lock-free ring of recent values.  Writers
// claim a slot with one atomic increment and store into it; readers
// snapshot without blocking writers.  A snapshot taken while writers
// race may miss or duplicate the entries at the moving edge — it is a
// flight recorder, not a transaction log.  Every value stored into one
// ring must have the same concrete type (an atomic.Value constraint);
// the recorder's callers store *QueryTrace-shaped values only.
type traceRing struct {
	slots []atomic.Value
	n     atomic.Uint64 // total values ever put
}

func newTraceRing(capacity int) traceRing {
	return traceRing{slots: make([]atomic.Value, capacity)}
}

// put records v, overwriting the oldest entry when the ring is full.
func (r *traceRing) put(v any) {
	i := r.n.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
}

// snapshot returns the retained values, newest first.
func (r *traceRing) snapshot() []any {
	n := r.n.Load()
	k := uint64(len(r.slots))
	if n < k {
		k = n
	}
	out := make([]any, 0, k)
	for j := uint64(0); j < k; j++ {
		v := r.slots[(n-1-j)%uint64(len(r.slots))].Load()
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Recorder is the flight recorder: two fixed-size rings of operation
// traces, one holding the most recent operations and one holding the
// operations that reached the slow threshold, so the interesting
// (slow) traces survive long after the recent ring has cycled past
// them.  Record costs one atomic increment and one atomic store per
// ring touched; it never allocates and never blocks.
type Recorder struct {
	recent        traceRing
	slow          traceRing
	slowThreshold time.Duration
}

// NewRecorder returns a recorder retaining up to capacity recent and
// capacity slow traces; operations at least slow long are additionally
// kept in the slow ring (0 disables the slow ring).
func NewRecorder(capacity int, slow time.Duration) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{
		recent:        newTraceRing(capacity),
		slow:          newTraceRing(capacity),
		slowThreshold: slow,
	}
}

// Record retains v as the newest recent trace, and also as a slow
// trace when d reaches the slow threshold.
func (r *Recorder) Record(v any, d time.Duration) {
	r.recent.put(v)
	if r.slowThreshold > 0 && d >= r.slowThreshold {
		r.slow.put(v)
	}
}

// Snapshot returns the retained recent and slow traces, newest first.
func (r *Recorder) Snapshot() (recent, slow []any) {
	return r.recent.snapshot(), r.slow.snapshot()
}

// SlowThreshold returns the slow-trace threshold.
func (r *Recorder) SlowThreshold() time.Duration { return r.slowThreshold }
