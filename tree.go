package rexptree

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/obs"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// Tree is a thread-safe moving-object index.  Updates and deletions
// need only the object id: the index's in-memory locator (object →
// leaf) is its object directory, and an object's current report is
// read from the leaf that holds it.
//
// Concurrency: the four index queries (Timeslice, Window, Moving,
// Nearest) run on a lock-free snapshot read path — they pin an epoch,
// traverse the immutable page versions last published by a writer, and
// never block behind Update, Delete or UpdateBatch (which still take
// the exclusive lock against each other).  The other reads (Get, Len,
// Stats, ForEach, Validate) take the shared lock.  The time a
// caller spends waiting for a lock is recorded in the lock-wait
// histograms of Metrics.  For workloads that need concurrent updates,
// see ShardedTree, which partitions objects across independent Trees.
type Tree struct {
	mu    sync.RWMutex
	t     *core.Tree
	store storage.Store
	dims  int

	m   *obs.Metrics  // always non-nil; see Metrics and WriteMetrics
	rec *obs.Recorder // flight recorder; nil unless Options.FlightRecorder > 0

	// Durability state; all nil/zero when Durability is DurabilityNone.
	fs          *storage.FileStore // the unwrapped page file
	wal         *wal.Writer        // nil means no WAL (legacy mode)
	walPath     string
	durability  Durability
	syncEvery   time.Duration
	ckptBytes   int64
	lastWALSync time.Time
	walBuf      []byte // reused encoding scratch

	// Replication hooks; see replication.go.  path is Options.Path (""
	// for a memory-backed tree).  replSink, when set, observes every
	// applied mutation under mu.  ckptHold > 0 defers checkpoints while
	// a backup streams this tree's files; snapEpoch counts the events
	// that invalidate such a stream (checkpoints, WAL rewinds).
	path      string
	replSink  ReplSink
	ckptHold  atomic.Int32
	snapEpoch atomic.Uint64

	// walPoison, when non-nil, refuses every further mutation: a
	// mutation failed after its WAL record was appended and the record
	// could not be rewound, so any later commit or checkpoint would make
	// the failed operation durable.  Close keeps the file dirty; the
	// next Open recovers the last consistent state.
	walPoison error

	closed   bool
	closeErr error
}

// lock takes the exclusive lock, recording the wait time.
func (tr *Tree) lock() {
	start := time.Now()
	tr.mu.Lock()
	tr.m.LockWaitWrite.Observe(time.Since(start))
}

// rlock takes the shared lock, recording the wait time.
func (tr *Tree) rlock() {
	start := time.Now()
	tr.mu.RLock()
	tr.m.LockWaitRead.Observe(time.Since(start))
}

// Open creates a tree with the given options.  When Options.Path names
// an existing index file (previously Closed cleanly), the stored tree
// is reopened; otherwise a fresh index is created.
//
// With a durability policy set (Options.Durability), Open also detects
// an unclean shutdown and recovers: it re-applies the last complete
// checkpoint's page images, verifies every reachable page's checksum,
// and replays the write-ahead log's logical tail.  Without one, a file
// left behind by a crashed durable session is refused rather than
// silently opened against a stale base.
func Open(opts Options) (*Tree, error) { return open(opts, false) }

// open implements Open; retried guards the one recursion that recreates
// the files after a crash during a fresh tree's first checkpoint.
func open(opts Options, retried bool) (*Tree, error) {
	durable := opts.Durability != DurabilityNone
	if durable && opts.Path == "" {
		return nil, fmt.Errorf("rexptree: Options.Durability requires a file-backed tree (set Options.Path)")
	}
	m := newMetrics(opts)
	var (
		store    storage.Store
		fs       *storage.FileStore
		existing bool
	)
	if opts.Path != "" {
		var err error
		if _, serr := os.Stat(opts.Path); serr == nil {
			fs, err = storage.OpenFileStore(opts.Path)
			existing = true
		} else {
			fs, err = storage.CreateFileStore(opts.Path)
		}
		if err != nil {
			return nil, err
		}
		fs.SetMetrics(m)
		if durable && fs.Version() < 2 {
			fs.CloseKeepDirty()
			return nil, fmt.Errorf("rexptree: %s is a version-%d file without page checksums; migrate it with rexpreshard before enabling durability", opts.Path, fs.Version())
		}
		if fs.Dirty() && !durable {
			fs.CloseKeepDirty()
			return nil, fmt.Errorf("%w: %s", errNotDurable, opts.Path)
		}
		store = fs
	} else {
		store = storage.NewMemStore()
	}
	if opts.testWrapStore != nil {
		store = opts.testWrapStore(store)
	}
	if opts.IOLatency > 0 {
		store = &storage.LatencyStore{
			Inner:        store,
			ReadLatency:  opts.IOLatency,
			WriteLatency: opts.IOLatency,
		}
	}
	cfg := opts.internal()
	cfg.Metrics = m
	tr := &Tree{
		store: store,
		m:     m,
		rec:   newRecorder(opts),
	}
	if durable {
		tr.fs = fs
		tr.path = opts.Path
		tr.walPath = WALPath(opts.Path)
		tr.durability = opts.Durability
		tr.syncEvery = opts.SyncEvery
		if tr.syncEvery <= 0 {
			tr.syncEvery = defaultSyncEvery
		}
		tr.ckptBytes = opts.CheckpointBytes
		if tr.ckptBytes <= 0 {
			tr.ckptBytes = defaultCheckpointBytes
		}
		tr.lastWALSync = time.Now()
	}

	// Every durable open of an existing file goes through recovery: it
	// subsumes the clean case (empty WAL, nothing to replay) and is the
	// only correct path for the unclean one.
	if durable && existing {
		var tc *QueryTrace
		if tr.rec != nil {
			tc = newTrace("recovery")
		}
		rstart := time.Now()
		retry, err := recoverDurable(opts, fs, store, cfg, tr, tc)
		tc.finishRecord(tr.rec, 0, time.Since(rstart), err)
		if err != nil {
			if tr.wal != nil {
				tr.wal.Close()
			}
			fs.CloseKeepDirty()
			return nil, err
		}
		if retry {
			// Crash during the fresh tree's very first checkpoint:
			// nothing was ever acknowledged, so recreate from scratch.
			fs.CloseKeepDirty()
			if retried {
				return nil, fmt.Errorf("rexptree: cannot initialize %s: repeated first-checkpoint recovery", opts.Path)
			}
			if err := RemoveIndex(opts.Path); err != nil {
				return nil, err
			}
			return open(opts, true)
		}
		return tr, nil
	}

	var (
		t   *core.Tree
		err error
	)
	if existing {
		t, err = core.Open(cfg, store)
	} else {
		t, err = core.New(cfg, store)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	tr.t = t
	tr.dims = t.Config().Dims
	if durable {
		if err := tr.initWAL(opts); err != nil {
			if tr.wal != nil {
				tr.wal.Close()
			}
			fs.CloseKeepDirty()
			RemoveIndex(opts.Path)
			return nil, err
		}
	}
	return tr, nil
}

// newMetrics builds the tree's instrument registry and wires the
// observer and slow-op hooks configured in opts.
func newMetrics(opts Options) *obs.Metrics {
	m := obs.New()
	if opts.Observer != nil {
		hook := opts.Observer
		m.Observer = obs.ObserverFunc(func(e obs.Event) {
			hook(ObserverEvent{Kind: e.Kind.String(), Level: e.Level, Count: e.N, Shard: -1})
		})
	}
	if opts.SlowOpThreshold > 0 {
		slow := opts.SlowOp
		if slow == nil {
			threshold := opts.SlowOpThreshold
			slow = func(op string, d time.Duration) {
				log.Printf("rexptree: slow %s: %v (threshold %v)", op, d, threshold)
			}
		}
		m.SetSlowOp(opts.SlowOpThreshold, func(op obs.Op, d time.Duration) { slow(op.String(), d) })
	}
	return m
}

// Close persists the tree's metadata and releases the underlying
// storage.  For a durable tree it runs a final checkpoint, closes the
// WAL and stamps the file clean; if the checkpoint fails the file
// keeps its dirty flag so the next Open recovers.  Close is
// idempotent: repeated calls return the first call's result.  The
// tree must not be used for anything else afterwards.
func (tr *Tree) Close() error {
	tr.lock()
	defer tr.mu.Unlock()
	if tr.closed {
		return tr.closeErr
	}
	tr.closed = true
	if tr.wal != nil {
		tr.closeErr = tr.closeDurable()
		return tr.closeErr
	}
	if err := tr.t.Sync(); err != nil {
		tr.store.Close()
		tr.closeErr = err
		return err
	}
	tr.closeErr = tr.store.Close()
	return tr.closeErr
}

// Update inserts the object's report, replacing any previous report
// (an update is a deletion of the old report followed by an insertion
// of the new one, as in the paper's workloads).  now is the current
// time; p.Time must not precede now's meaning for the caller, and time
// must never run backwards across calls.
func (tr *Tree) Update(id uint32, p Point, now float64) error {
	_, err := tr.mutate(obs.OpUpdate, "update", []Report{{ID: id, Point: p}}, now)
	return err
}

// Delete removes the object's report.  It returns false when the
// object is unknown or its report has already expired (an expired
// entry is invisible to the deletion search, §4.3; it will be purged
// lazily).
//
// Whether the deletion is applied — logged, forwarded to the
// replication sink, advancing the clock — depends on what the index
// still stores, not on what was reported: it is applied while the
// index holds an entry of the object, live or expired but not yet
// purged, and is a no-op, like the deletion of an id never reported,
// once that entry has been purged.
func (tr *Tree) Delete(id uint32, now float64) (bool, error) {
	return tr.mutate(obs.OpDelete, "delete", []Report{{ID: id}}, now)
}

// Report pairs an object id with its positional report, for batched
// updates.
type Report struct {
	ID    uint32
	Point Point
}

// UpdateBatch applies every report in batch under a single exclusive
// lock acquisition, replacing each object's previous report like
// Update.  Grouping updates amortizes locking and lets readers in
// between batches rather than between every report; ShardedTree
// additionally applies per-shard batches concurrently.
//
// The reports are applied in order.  On error the batch stops:
// earlier reports remain applied, the failing and later ones do not
// take effect.  now is the current time for the whole batch.
func (tr *Tree) UpdateBatch(batch []Report, now float64) error {
	_, err := tr.mutate(obs.OpBatch, "batch", batch, now)
	return err
}

// mutate runs one public mutation through apply, observing it in the
// operation's latency histogram and, with a flight recorder, tracing it
// under the given name.
func (tr *Tree) mutate(op obs.Op, name string, batch []Report, now float64) (bool, error) {
	var tc *QueryTrace
	if tr.rec != nil {
		tc = newTrace(name)
	}
	start := time.Now()
	removed, err := tr.apply(op, batch, now, tc)
	d := time.Since(start)
	tr.m.ObserveOp(op, d, err)
	results := 0
	if op == obs.OpBatch {
		results = len(batch)
	}
	tc.finishRecord(tr.rec, results, d, err)
	return removed, err
}

// apply is the one envelope every mutation of the tree runs through:
// op is OpUpdate (one report), OpBatch (a batch of them) or OpDelete
// (the deletion of batch[0].ID), and the recovery replay feeds each
// logged record through it as an OpUpdate or an OpDelete.  Under the
// exclusive lock and one batch scope — lock-free readers see the tree
// before the batch or with all of it applied, and each page it dirties
// is written back once — every report is logged ahead (WAL mode),
// applied as a core delete plus, for an update, a core insert, and
// forwarded to the replication sink.  A report that fails stops the
// batch: its log record is rolled back (or the tree poisoned) so a
// failed operation can never become durable, and the reports before it
// stay applied.  A batch that succeeded ends at the durability policy's
// commit point.  removed reports whether a deletion removed a live
// entry; the deletion of an object the index stores no entry of is a
// no-op.
func (tr *Tree) apply(op obs.Op, batch []Report, now float64, tc *QueryTrace) (removed bool, err error) {
	if len(batch) == 0 {
		return false, nil
	}
	li := tc.begin(-1, "lock-wait", -1)
	tr.lock()
	tc.endAt(li)
	defer tr.mu.Unlock()
	del := op == obs.OpDelete
	if del {
		if _, ok := tr.t.Lookup(batch[0].ID); !ok {
			return false, nil
		}
	}
	// A batch is traced as one apply span around its whole loop (the
	// WAL appends inside it ride in the wal-append histogram only); a
	// single report gets a wal-append and an apply span of its own,
	// except a memory tree's deletion, which is traced by its lock wait.
	var opTC *QueryTrace
	ai := -1
	switch {
	case op == obs.OpBatch:
		ai = tc.begin(-1, "apply", -1)
	case !del || tr.wal != nil:
		opTC = tc
	}
	tr.t.BeginBatch()
	applied := 0
	for ; applied < len(batch); applied++ {
		r := &batch[applied]
		var prev int64
		if tr.wal != nil {
			if err = tr.walPoison; err != nil {
				break
			}
			prev = tr.wal.Size()
			wi := opTC.begin(-1, "wal-append", -1)
			err = tr.walLog(r, del, now)
			opTC.endAt(wi)
			if err != nil {
				break
			}
		}
		if opTC != nil {
			ai = opTC.begin(-1, "apply", -1)
		}
		removed, err = tr.t.Delete(r.ID, geom.MovingPoint{}, now)
		if err == nil && !del {
			err = tr.t.Insert(r.ID, toInternal(r.Point, tr.dims), now)
		}
		if err != nil {
			if tr.wal != nil {
				tr.walRollback(prev, err)
			}
			break
		}
		tr.replNote(r, del, now)
	}
	// Closing the scope publishes and writes back what was applied, also
	// when a report failed; a write-back error joins the report's.
	if e := tr.t.EndBatch(); e != nil {
		err = errors.Join(err, e)
	}
	tc.endAt(ai)
	if ai >= 0 {
		tc.addMeasured("version-publish", tr.t.LastPublishNanos())
	}
	if op == obs.OpBatch {
		tr.m.BatchedUpdates.Add(uint64(applied))
	}
	if err != nil || tr.wal == nil {
		return removed, err
	}
	return removed, tr.walCommit(tc)
}

// runQuery is the envelope of every index query of both tree types.
// It refuses an invalid query (invalid is the validator's verdict),
// runs the traversal — under an execution trace when traced; tc is nil
// otherwise, and every *QueryTrace method is a no-op on nil — and
// observes the operation in m's latency histogram and in the flight
// recorder.  A plain query passes traced = rec != nil, because a
// recorder retains every operation's trace; its Trace twin passes
// true.  Nothing else distinguishes the two.
func runQuery(m *obs.Metrics, rec *obs.Recorder, op obs.Op, traced bool, invalid error, run func(tc *QueryTrace) ([]Result, error)) ([]Result, *QueryTrace, error) {
	var tc *QueryTrace
	if traced {
		tc = newTrace(op.String())
	}
	start := time.Now()
	var res []Result
	err := invalid
	if err == nil {
		res, err = run(tc)
	}
	d := time.Since(start)
	m.ObserveOp(op, d, err)
	tc.finishRecord(rec, len(res), d, err)
	return res, tc, err
}

// query answers the three region queries, which are one trapezoid (§2).
func (tr *Tree) query(op obs.Op, traced bool, invalid error, q geom.Query, now float64) ([]Result, *QueryTrace, error) {
	return runQuery(tr.m, tr.rec, op, traced, invalid, func(tc *QueryTrace) ([]Result, error) {
		pi, ti := tc.beginTraverse(-1, -1)
		return tr.searchAt(q, now, tc, pi, ti)
	})
}

func (tr *Tree) nearest(traced bool, pos Vec, at float64, k int, now float64) ([]Result, *QueryTrace, error) {
	return runQuery(tr.m, tr.rec, obs.OpNearest, traced, checkTimeslice(at, now), func(tc *QueryTrace) ([]Result, error) {
		pi, ti := tc.beginTraverse(-1, -1)
		return tr.nearestAt(pos, at, k, now, tc, pi, ti)
	})
}

// searchAt runs one region query on the snapshot read path — the only
// read path: the core kernel pins an epoch and follows the page
// versions last published, without the tree lock.  With a trace it
// times the pin and the traversal into spans pinIdx and travIdx, which
// the caller preallocated so that concurrent shard workers never append
// to a shared trace, and attaches the node and page accounting.  With a
// nil trace the kernel gets a nil *TravStats: it counts nothing per
// traversal and reads no clock.  Hits stream straight into the public
// result slice, which is empty, not nil, when nothing matches.
func (tr *Tree) searchAt(q geom.Query, now float64, tc *QueryTrace, pinIdx, travIdx int) ([]Result, error) {
	var stats core.TravStats
	st := tc.startTraverse(travIdx, &stats)
	out := make([]Result, 0)
	err := tr.t.SearchFuncSnapStats(q, now, st, func(r core.Result) bool {
		out = append(out, Result{ID: r.OID, Point: fromInternal(r.Point, now, tr.dims)})
		return true
	})
	tc.endTraverse(pinIdx, travIdx, st, len(out))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// nearestAt is searchAt for the nearest-neighbor traversal.  The caller
// must have validated the query time.
func (tr *Tree) nearestAt(pos Vec, at float64, k int, now float64, tc *QueryTrace, pinIdx, travIdx int) ([]Result, error) {
	var stats core.TravStats
	st := tc.startTraverse(travIdx, &stats)
	rs, err := tr.t.NearestSnapStats(geom.Vec(pos), at, k, now, st)
	tc.endTraverse(pinIdx, travIdx, st, len(rs))
	if err != nil {
		return nil, err
	}
	return fromResults(rs, now, tr.dims), nil
}

// Timeslice reports the objects predicted to be inside r at time at
// (Type 1 query).  now is the current time; at must not precede it.
func (tr *Tree) Timeslice(r Rect, at, now float64) ([]Result, error) {
	res, _, err := tr.query(obs.OpTimeslice, tr.rec != nil, checkTimeslice(at, now), geom.Timeslice(toRect(r), at), now)
	return res, err
}

// The query-time validators, shared by Tree and the sharded front-end
// so both reject an invalid query with the identical error (a sharded
// tree must fail such queries even when every shard is pruned).
func checkTimeslice(at, now float64) error {
	if at < now {
		return fmt.Errorf("rexptree: query time %v precedes current time %v", at, now)
	}
	return nil
}

func checkWindow(t1, t2, now float64) error {
	if t1 > t2 || t1 < now {
		return fmt.Errorf("rexptree: invalid query window [%v, %v] at time %v", t1, t2, now)
	}
	return nil
}

func checkMoving(t1, t2, now float64) error {
	if t1 >= t2 || t1 < now {
		return fmt.Errorf("rexptree: invalid moving query interval [%v, %v] at time %v", t1, t2, now)
	}
	return nil
}

// Window reports the objects predicted to cross r at some time in
// [t1, t2] (Type 2 query).
func (tr *Tree) Window(r Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := tr.query(obs.OpWindow, tr.rec != nil, checkWindow(t1, t2, now), geom.Window(toRect(r), t1, t2), now)
	return res, err
}

// Moving reports the objects predicted to cross the trapezoid
// connecting r1 at t1 to r2 at t2 (Type 3 query).
func (tr *Tree) Moving(r1, r2 Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := tr.query(obs.OpMoving, tr.rec != nil, checkMoving(t1, t2, now), geom.Moving(toRect(r1), toRect(r2), t1, t2, tr.dims), now)
	return res, err
}

// Nearest returns the k objects whose predicted positions at time at
// are closest to pos, nearest first.  Expired reports never qualify.
// Like Timeslice, the query time must not precede the current time.
func (tr *Tree) Nearest(pos Vec, at float64, k int, now float64) ([]Result, error) {
	res, _, err := tr.nearest(tr.rec != nil, pos, at, k, now)
	return res, err
}

// Get returns the object's current report (positioned at now), if any
// non-expired report is stored.  The report is read from the leaf that
// holds it, so Get agrees with every query of the same state: with now
// before the tree's clock it does not return a report the index has
// already purged, even if that report had not yet expired at now.
func (tr *Tree) Get(id uint32, now float64) (Point, bool) {
	tr.rlock()
	defer tr.mu.RUnlock()
	mp, ok := tr.t.Lookup(id)
	if !ok || (tr.t.Config().ExpireAware && mp.Expired(now)) {
		return Point{}, false
	}
	return fromInternal(mp, now, tr.dims), true
}

// Len returns the number of objects with a stored report (including
// reports that have expired but were not yet purged).
func (tr *Tree) Len() int {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.LeafEntries()
}

// Dims returns the dimensionality of the indexed space.
func (tr *Tree) Dims() int { return tr.dims }

// Now returns the tree's logical clock: the largest reference time any
// applied mutation carried.  A reopened tree restores it from the
// metadata page, so it survives restarts.
func (tr *Tree) Now() float64 {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.Now()
}

// Stats describes the tree's state and accumulated I/O.  The richer
// Metrics snapshot additionally covers structural counters and per-op
// latencies.
type Stats struct {
	Height          int
	Pages           int
	LeafEntries     int
	Reads           uint64
	Writes          uint64
	BufferHits      uint64
	Evictions       uint64
	DirtyWritebacks uint64
	UIEstimate      float64
}

// Stats returns current statistics.
func (tr *Tree) Stats() Stats {
	tr.rlock()
	defer tr.mu.RUnlock()
	io := tr.t.IOStats()
	return Stats{
		Height:          tr.t.Height(),
		Pages:           tr.t.Size(),
		LeafEntries:     tr.t.LeafEntries(),
		Reads:           io.Reads,
		Writes:          io.Writes,
		BufferHits:      io.Hits,
		Evictions:       io.Evictions,
		DirtyWritebacks: io.DirtyWritebacks,
		UIEstimate:      tr.t.UI(),
	}
}

// ResetIOStats zeroes the read/write/hit counters.
func (tr *Tree) ResetIOStats() {
	tr.rlock()
	defer tr.mu.RUnlock()
	tr.t.ResetIOStats()
}

// ForEach visits every stored report (positioned at now, including
// expired reports not yet purged) until fn returns false.
func (tr *Tree) ForEach(now float64, fn func(Result) bool) error {
	tr.rlock()
	defer tr.mu.RUnlock()
	stop := errStopIteration
	err := tr.t.Records(func(oid uint32, p geom.MovingPoint) error {
		if !fn(Result{ID: oid, Point: fromInternal(p, now, tr.dims)}) {
			return stop
		}
		return nil
	})
	if err == stop {
		return nil
	}
	return err
}

var errStopIteration = fmt.Errorf("rexptree: stop iteration")

// rootSummary returns a conservative time-parameterized bound over
// every stored entry, computed from the index root (which is pinned in
// the buffer pool, so the read costs no I/O).  ok is false for an
// empty tree.  The sharded front-end uses it to retighten per-shard
// pruning summaries.
func (tr *Tree) rootSummary() (br geom.TPRect, ok bool, err error) {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.RootBR()
}

// storedPoint returns the record as the index stores it (coordinates
// quantized to the page format), which is what containment bounds must
// be widened with.
func (tr *Tree) storedPoint(p Point) geom.MovingPoint {
	return tr.t.Stored(toInternal(p, tr.dims))
}

// clockNow reads the tree's high-water clock — the time of the newest
// applied update — from the lock-free snapshot's published clock, so a
// live-reshard scan never blocks the write path.
func (tr *Tree) clockNow() float64 { return tr.t.PubClock() }

// exportRecords streams every stored record (live and expired alike, in
// raw internal form) to fn, over the lock-free snapshot so a concurrent
// update stream is never stalled by a full-index scan.
func (tr *Tree) exportRecords(fn func(oid uint32, p geom.MovingPoint) error) error {
	return tr.t.ExportSnap(fn)
}

// Validate checks the index's structural invariants (balance, fan-out
// bounds, bounding-rectangle containment, unique ids).  It reads the
// whole tree and is intended for tests and tooling.
func (tr *Tree) Validate() error {
	tr.rlock()
	defer tr.mu.RUnlock()
	return tr.t.CheckInvariants()
}
