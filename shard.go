package rexptree

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/geom"
	"rexptree/internal/manifest"
	"rexptree/internal/obs"
)

// ShardedOptions configures a ShardedTree.  The embedded Options apply
// to every shard, except BufferPages, which is the whole index's
// budget: it is split evenly across the shards with a floor of 8 pages
// per shard (zero gives each shard the stand-alone default of 50 pages,
// paper §5.1).  Path, when set, names the base of the per-shard page
// files (shard i is stored at "<Path>.s<i>" — or "<Path>.g<G>.s<i>"
// after a reshard bumped the file generation to G — and a
// "<Path>.manifest" sidecar records the partition and generation so
// the index cannot be reopened wrongly).
type ShardedOptions struct {
	Options

	// Shards is the number of independent sub-trees objects are
	// partitioned across (default 4).  It must be the same when a
	// file-backed sharded index is reopened, because the partition of
	// the stored objects depends on it.
	Shards int

	// Partition selects the object→shard assignment: PartitionHash
	// (default) routes by id hash; PartitionSpeed routes by |velocity|
	// band, which groups objects of similar speed so each shard's tree
	// gets tighter bounding rectangles.
	Partition PartitionPolicy

	// SpeedBands are the |velocity| boundaries between consecutive
	// speed bands under PartitionSpeed: exactly Shards-1 ascending
	// non-negative values, band i covering [SpeedBands[i-1],
	// SpeedBands[i]).  Leave empty for self-tuning: the index
	// hash-routes while observing the first TuneAfter reported speeds,
	// then picks quantile boundaries; objects migrate to their band's
	// shard on their next update.
	SpeedBands []float64

	// TuneAfter is how many speed observations self-tuning collects
	// before fixing the band boundaries (default 1000).
	TuneAfter int
}

// generation is one complete shard set: the trees and the partitioner
// routing objects among them.  The ShardedTree points at its current
// generation; a live reshard builds the next generation beside it and
// retires this one at cutover, so a generation is immutable in shape
// (shards, partitioner identity) once published while its contents
// keep mutating.
//
// Readers pin a generation (refs) so a cutover can retire the old one
// only after every in-flight traversal has left it; mutations instead
// hold the front-end rerouteMu, which the cutover takes exclusively.
type generation struct {
	shards []*Tree
	part   partitioner
	gen    int // shard-file generation recorded in the manifest

	refs atomic.Int64 // in-flight readers; see ShardedTree.pin
}

// ShardedTree partitions a moving-object index across Shards
// independent Trees, each with its own page store, buffer pool and
// lock, following the scale-out design of partitioned moving-object
// indexes (MOIST; Jiang et al.): updates touch exactly one shard, so
// they proceed concurrently on different shards.  A query visits the
// shards one after another on the caller's goroutine — one shard's
// traversal is a few microseconds, less than starting and joining a
// goroutine per shard costs — and merges their hits.
//
// Objects are assigned to shards by the configured PartitionPolicy:
// by id hash (the default), or by speed band (PartitionSpeed), which
// re-routes an object to its new band's shard when an update moves its
// speed across a boundary.  A region query visits every shard: a
// shard's root holds conservative bounds of everything below it (§4.1),
// so a shard the query cannot touch rejects it at the cost of one
// in-memory node visit.
//
// Query results are merged in ascending object-id order (Nearest:
// ascending distance order, ties by id), which makes the output
// independent of the partition — and, for the same workload,
// element-wise identical to a single Tree's sorted results.
//
// The shard set itself can be replaced while the index serves traffic:
// Reshard/StartReshard build a new generation under a new shard count
// or partition policy, mirror every concurrent mutation into it, and
// cut over atomically; see livereshard.go.
//
// All methods are safe for concurrent use.
type ShardedTree struct {
	// cur is the current generation.  Readers pin it (see pin);
	// mutations load it under rerouteMu, whose exclusive side the
	// cutover holds while swapping the pointer.
	cur atomic.Pointer[generation]

	dims int
	m    *obs.Metrics  // front-end registry: whole-index latencies, partitioning counters
	rec  *obs.Recorder // the index's flight recorder; nil unless Options.FlightRecorder > 0

	manifestPath string // "" when memory-backed
	basePath     string // ShardedOptions.Path
	durability   Durability
	opts         ShardedOptions // retained to derive a reshard target's per-shard Options

	closeMu  sync.Mutex // Close is idempotent; see Close
	closed   bool
	closeErr error
	closing  atomic.Bool // set by Close/Abandon so a live reshard aborts early

	// Re-routing discipline: every mutation holds rerouteMu, shared
	// under hash routing with no live reshard in flight and exclusively
	// otherwise (see apply), so the delete-from-old/insert-into-new pair
	// of a re-routed object never interleaves with another mutation.
	// The live-reshard cutover takes rerouteMu exclusively too: a
	// mutation therefore observes a stable (generation,
	// in-flight-reshard) pair for its whole critical section.
	rerouteMu sync.RWMutex

	// replSink, when set, observes every applied mutation (see
	// replication.go).  Written under rerouteMu's exclusive side; the
	// live-reshard cutover re-attaches it to the target generation.
	replSink ReplSink

	// Live-reshard state; see livereshard.go.  admitted is the run that
	// holds reshardMu, from admission until its engine has returned; it
	// is what ReshardStatus and CancelReshard see.  lr is that same run
	// exactly while its dual-apply window is open; it is published and
	// cleared only under rerouteMu's exclusive side.
	admitted  atomic.Pointer[liveReshard]
	lr        atomic.Pointer[liveReshard]
	reshardMu sync.Mutex // held for a whole run, admission to finish

	statusMu       sync.Mutex
	lastReshardErr error

	// testReshardHook, when set, is invoked at every live-reshard
	// phase boundary; a non-nil return simulates a crash at that
	// point (the engine stops dead, leaving files as they are).
	testReshardHook func(point string) error
}

// pin returns the current generation with a reader reference held.
// The load-ref-recheck loop closes the race against a concurrent
// cutover: if the pointer moved between the load and the ref, the ref
// landed on a generation that may already be draining, so it is
// released and the load retried.  Callers must unpin exactly once.
func (s *ShardedTree) pin() *generation {
	for {
		g := s.cur.Load()
		g.refs.Add(1)
		if s.cur.Load() == g {
			return g
		}
		g.refs.Add(-1)
	}
}

func (g *generation) unpin() { g.refs.Add(-1) }

// shardOptions derives shard i's stand-alone Options for a generation
// gen of the given shard count from the front-end options — the same
// derivation for an open, a reopen and a live reshard's target shards,
// so a resharded shard behaves exactly like a reopened one.
func shardOptions(opts ShardedOptions, shards, gen, i int) Options {
	so := opts.Options
	if so.Path != "" {
		so.Path = manifest.ShardPath(opts.Path, gen, i)
	}
	if so.BufferPages > 0 {
		so.BufferPages = max(so.BufferPages/shards, 8)
	}
	// Distinct seeds keep the shards' tie-breaking streams
	// independent while remaining deterministic.
	so.Seed = opts.Seed + int64(i)
	so.slowLabel = fmt.Sprintf("shard%d/", i)
	// The front end keeps the index's one flight recorder.
	so.FlightRecorder = 0
	return so
}

// openGeneration opens (or creates) the shard trees of one generation
// concurrently: each open is independent, and after an unclean
// shutdown each shard replays its own write-ahead log, so recovery
// time is bounded by the largest shard, not the sum.
func openGeneration(opts ShardedOptions, shards, gen int) ([]*Tree, error) {
	out := make([]*Tree, shards)
	err := parallel(shards, nil, func(i int) error {
		t, err := Open(shardOptions(opts, shards, gen, i))
		if err != nil {
			return fmt.Errorf("rexptree: opening shard %d: %w", i, err)
		}
		out[i] = t
		return nil
	})
	if err != nil {
		for _, open := range out {
			if open != nil {
				open.Close()
			}
		}
		return nil, err
	}
	return out, nil
}

// OpenSharded creates (or, with a Path to existing shard files,
// reopens) a sharded tree.  Reopening validates the shard manifest:
// a mismatched shard count or partition policy is refused, because the
// stored object placement depends on both.
func OpenSharded(opts ShardedOptions) (*ShardedTree, error) {
	if opts.Shards == 0 {
		opts.Shards = 4
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("rexptree: invalid shard count %d", opts.Shards)
	}
	if opts.Partition != PartitionHash && opts.Partition != PartitionSpeed {
		return nil, fmt.Errorf("rexptree: unknown partition policy %d", int(opts.Partition))
	}
	if opts.Partition == PartitionHash && len(opts.SpeedBands) > 0 {
		return nil, fmt.Errorf("rexptree: SpeedBands set but partition policy is %s", opts.Partition)
	}
	bands := append([]float64(nil), opts.SpeedBands...)
	if len(bands) > 0 {
		if err := manifest.ValidateBands(bands, opts.Shards); err != nil {
			return nil, fmt.Errorf("rexptree: %w", err)
		}
	}
	if opts.TuneAfter <= 0 {
		opts.TuneAfter = 1000
	}

	// Validate the manifest before touching any shard file.
	autoTuned := false
	manifestPath := ""
	gen := 0
	if opts.Path != "" {
		manifestPath = manifest.Path(opts.Path)
		man, found, err := manifest.Read(manifestPath)
		if err != nil {
			return nil, fmt.Errorf("rexptree: %w", err)
		}
		if found {
			if man.Shards != opts.Shards {
				return nil, fmt.Errorf("rexptree: shard manifest %s: index has %d shards, options request %d", manifestPath, man.Shards, opts.Shards)
			}
			if man.Partition != opts.Partition.String() {
				return nil, fmt.Errorf("rexptree: shard manifest %s: index is %s-partitioned, options request %s", manifestPath, man.Partition, opts.Partition)
			}
			if len(man.SpeedBands) > 0 && len(bands) == 0 {
				bands = man.SpeedBands
				autoTuned = man.AutoTuned
			}
			gen = man.Generation
		}
	}

	s := &ShardedTree{
		m:            obs.New(),
		rec:          newRecorder(opts.Options),
		manifestPath: manifestPath,
		basePath:     opts.Path,
		durability:   opts.Durability,
		opts:         opts,
	}
	// The front end observes every operation of the whole index; its
	// slow ones are logged under "fanout/", apart from the shards' own.
	s.m.SlowOp, s.m.SlowLabel = opts.SlowOpThreshold, "fanout/"

	trees, err := openGeneration(opts, opts.Shards, gen)
	if err != nil {
		return nil, err
	}
	s.dims = trees[0].dims

	g := &generation{shards: trees, gen: gen}
	switch opts.Partition {
	case PartitionSpeed:
		sp := newSpeedPartitioner(opts.Shards, s.dims, opts.TuneAfter, bands,
			func(b []float64) { s.setSpeedGauges(g, b) })
		sp.tuned = autoTuned
		g.part = sp
		if len(bands) > 0 {
			s.setSpeedGauges(g, bands)
		}
		// Rebuild the object→shard table from the stored records.
		for i, t := range g.shards {
			err := t.exportRecords(func(id uint32, _ geom.MovingPoint) error {
				sp.loc[id] = i
				return nil
			})
			if err != nil {
				for _, t := range trees {
					t.Close()
				}
				return nil, err
			}
		}
	default:
		g.part = hashPartitioner{n: opts.Shards}
	}

	s.cur.Store(g)

	if manifestPath != "" {
		if err := s.writeManifestFile(g); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// writeManifestFile records generation g's partition in the sidecar.
func (s *ShardedTree) writeManifestFile(g *generation) error {
	man := manifest.Manifest{
		Version:    manifest.Version,
		Shards:     len(g.shards),
		Hash:       manifest.Hash,
		Partition:  g.part.policy().String(),
		Generation: g.gen,
		Durability: s.durability.String(),
	}
	if sp, ok := g.part.(*speedPartitioner); ok {
		man.SpeedBands, man.AutoTuned = sp.Bands()
	}
	return writeManifest(s.manifestPath, man)
}

// writeManifest stores a manifest atomically (write temp + rename).
func writeManifest(path string, m manifest.Manifest) error {
	if err := manifest.Write(path, m); err != nil {
		return fmt.Errorf("rexptree: %w", err)
	}
	return nil
}

// setSpeedGauges publishes each shard's speed band on its registry.
func (s *ShardedTree) setSpeedGauges(g *generation, bands []float64) {
	for i, t := range g.shards {
		lo, hi := 0.0, math.Inf(1)
		if i > 0 {
			lo = bands[i-1]
		}
		if i < len(bands) {
			hi = bands[i]
		}
		t.m.SpeedBandLo.Set(lo)
		t.m.SpeedBandHi.Set(hi)
	}
}

// NumShards returns the number of shards of the current generation.
func (s *ShardedTree) NumShards() int { return len(s.cur.Load().shards) }

// Dims returns the dimensionality of the indexed space.
func (s *ShardedTree) Dims() int { return s.dims }

// Generation returns the shard-file generation recorded in the
// manifest: 0 for a freshly created index, bumped by every reshard
// (Reshard/StartReshard, which rexpreshard drives on a stopped index),
// whose commit writes the new generation's files and switches the
// manifest to them atomically.
func (s *ShardedTree) Generation() int { return s.cur.Load().gen }

// Partition returns the current partition policy (a live reshard can
// change it).
func (s *ShardedTree) Partition() PartitionPolicy { return s.cur.Load().part.policy() }

// SpeedBands returns the active |velocity| band boundaries (nil under
// hash partitioning or while self-tuning is still sampling).
func (s *ShardedTree) SpeedBands() []float64 {
	if sp, ok := s.cur.Load().part.(*speedPartitioner); ok {
		b, _ := sp.Bands()
		return b
	}
	return nil
}

// parallel runs fn(i) for every i in [0, n) that visit marks (every i
// when visit is nil) and returns the first (lowest i) error.  Two or
// more marked i run on a goroutine each; a lone one runs on the
// caller's goroutine, which is cheaper than starting and joining one.
// It serves the whole-shard work of writes, opens, closes and
// Validate; queries visit their shards in turn on the caller's
// goroutine (see visitShards).  A shard's own lock serialises the
// goroutines that reach it.
func parallel(n int, visit []bool, fn func(i int) error) error {
	lone, marked := -1, 0
	for i := 0; i < n; i++ {
		if visit == nil || visit[i] {
			lone = i
			marked++
		}
	}
	switch marked {
	case 0:
		return nil
	case 1:
		return fn(lone)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		if visit != nil && !visit[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close persists the shard manifest (including self-tuned speed bands
// and the durability policy) and closes every shard, returning the
// first error.  An in-flight live reshard is canceled and awaited
// first (if its cutover already happened, the new generation is what
// gets closed).  Shard closes run concurrently — under a durability
// policy each one is a checkpoint plus fsync, so like recovery the
// cost is bounded by the largest shard.  Close is idempotent: repeated
// calls return the first call's result.
func (s *ShardedTree) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return s.closeErr
	}
	s.shutdownReshard()
	s.closed = true
	g := s.cur.Load()
	if s.manifestPath != "" {
		if err := s.writeManifestFile(g); err != nil {
			s.closeErr = err
		}
	}
	err := parallel(len(g.shards), nil, func(i int) error { return g.shards[i].Close() })
	if s.closeErr == nil {
		s.closeErr = err
	}
	return s.closeErr
}

// Abandon drops the index without checkpointing or persisting
// anything — the crash simulation used by durability tests.  Like
// Close it waits out an in-flight live reshard (which aborts at its
// next cancellation check).
func (s *ShardedTree) Abandon() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return
	}
	s.shutdownReshard()
	s.closed = true
	for _, t := range s.cur.Load().shards {
		t.Abandon()
	}
}

// Update inserts the object's report into its shard, replacing any
// previous report.  Under PartitionSpeed, a report whose speed crossed
// a band boundary first removes the object from its old shard, so the
// object migrates to its new band.  Updates to objects on different
// shards proceed concurrently; see Tree.Update for the time contract.
func (s *ShardedTree) Update(id uint32, p Point, now float64) error {
	_, err := s.mutate(obs.OpUpdate, "update", []Report{{ID: id, Point: p}}, now)
	return err
}

// Delete removes the object's report from its shard; see Tree.Delete.
func (s *ShardedTree) Delete(id uint32, now float64) (bool, error) {
	return s.mutate(obs.OpDelete, "delete", []Report{{ID: id}}, now)
}

// UpdateBatch groups the reports by target shard and applies each
// group as one Tree.UpdateBatch — a single lock acquisition per shard
// — with the per-shard batches running concurrently, one goroutine per
// shard written (a batch that writes one shard runs on the caller's
// goroutine).  Reports for the same object keep their relative order;
// under PartitionSpeed every report of an object is applied on the
// shard of the object's final (last-report) speed band, after removing
// it from its previous shard, so the batch leaves the same state as
// applying the reports one by one.  On error the failing shard stops
// like Tree.UpdateBatch while other shards' groups still apply; the
// first error is returned.
func (s *ShardedTree) UpdateBatch(batch []Report, now float64) error {
	_, err := s.mutate(obs.OpBatch, "batch", batch, now)
	return err
}

// mutate runs one public mutation through apply, observing it in the
// front end's latency histogram and, with a flight recorder, tracing
// it under the given name; it is Tree.mutate's twin.
func (s *ShardedTree) mutate(op obs.Op, name string, batch []Report, now float64) (bool, error) {
	var tc *QueryTrace
	if s.rec != nil {
		tc = newTrace(name)
	}
	start := time.Now()
	removed, err := s.apply(op, name, batch, now, tc)
	d := time.Since(start)
	s.m.ObserveOp(op, d, err)
	results := 0
	if op == obs.OpBatch {
		results = len(batch)
	}
	tc.finishRecord(s.rec, results, d, err)
	return removed, err
}

// apply is the one envelope every mutation of the sharded index runs
// through; op is as for Tree.apply.  Stateless hash routing with no
// live reshard in flight runs under the shared re-route lock,
// concurrently with other mutations: the shard tree's own lock orders
// same-id updates.  Re-routing policies, and every mutation inside a
// dual-apply window, hold the re-route lock exclusively, so the
// route/delete/apply phases of one mutation — and its mirror into the
// reshard target — never interleave with another's.
func (s *ShardedTree) apply(op obs.Op, name string, batch []Report, now float64, tc *QueryTrace) (bool, error) {
	if len(batch) == 0 {
		return false, nil
	}
	s.rerouteMu.RLock()
	g := s.cur.Load()
	if g.part.policy() == PartitionHash && s.lr.Load() == nil {
		defer s.rerouteMu.RUnlock()
		return s.applyTo(g, op, name, batch, now, tc, true)
	}
	s.rerouteMu.RUnlock()
	s.rerouteMu.Lock()
	defer s.rerouteMu.Unlock()
	g = s.cur.Load()
	lr := s.lr.Load()
	removed, err := s.applyTo(g, op, name, batch, now, tc, true)
	if lr != nil {
		// Mark the ids touched even when nothing was removed: the
		// backfill must never resurrect an object deleted or superseded
		// during the dual-apply window.
		for _, r := range batch {
			lr.noteTouched(r.ID)
		}
		if err != nil {
			// The mutation failed on, or half-applied to, the current
			// generation; the mirror can no longer be proven equivalent,
			// so the reshard aborts (the operation's own error stands).
			lr.fail(err)
			return removed, err
		}
		if _, terr := s.applyTo(lr.target, op, name, batch, now, nil, false); terr != nil {
			lr.fail(terr)
		} else {
			lr.applied.Add(uint64(len(batch)))
			s.m.ReshardDualApplied.Add(uint64(len(batch)))
		}
	}
	return removed, err
}

// applyTo routes one mutation to generation g's shards and applies it
// there, each shard receiving op through its own Tree.mutate; the
// caller holds rerouteMu as apply does.  A deletion goes to the shard
// that holds the object and returns that shard's removed.  Under a
// re-routing policy every reported object is first removed from the
// shard it leaves.  frontend gates the public re-route counter, so
// the mirrored applies and the backfill of a live reshard are not
// counted.  Only batch-level spans are recorded: the fan-out
// goroutines never touch the shared trace.
func (s *ShardedTree) applyTo(g *generation, op obs.Op, name string, batch []Report, now float64, tc *QueryTrace, frontend bool) (bool, error) {
	ri := tc.begin(-1, "route", -1)
	if op == obs.OpDelete {
		id := batch[0].ID
		i, ok := g.part.locate(id)
		tc.endAt(ri)
		if !ok {
			return false, nil
		}
		ai := tc.begin(-1, "apply", -1)
		removed, err := g.shards[i].mutate(op, name, batch, now)
		tc.endAt(ai)
		if err == nil {
			g.part.forget(id)
		}
		return removed, err
	}

	shardOf := func(r Report) int { return g.part.route(r.ID, r.Point) }
	var final map[uint32]int
	var delGroups [][]uint32
	if g.part.policy() != PartitionHash {
		// The last report of an object fixes its shard; an object
		// leaving its previous shard is removed from there first.
		final = make(map[uint32]int, len(batch))
		for _, r := range batch {
			final[r.ID] = g.part.route(r.ID, r.Point)
		}
		shardOf = func(r Report) int { return final[r.ID] }
		for id, tgt := range final {
			if old, ok := g.part.locate(id); ok && old != tgt {
				if delGroups == nil {
					delGroups = make([][]uint32, len(g.shards))
				}
				delGroups[old] = append(delGroups[old], id)
			}
		}
	}
	lone, groups := groupByShard(len(g.shards), batch, shardOf)
	tc.endAt(ri)
	if delGroups != nil {
		di := tc.begin(-1, "reroute-deletes", -1)
		err := parallel(len(g.shards), nonEmpty(delGroups), func(i int) error {
			t, ids := g.shards[i], delGroups[i]
			slices.Sort(ids)
			for _, id := range ids {
				if _, err := t.Delete(id, now); err != nil {
					return err
				}
				g.part.forget(id)
				if frontend {
					s.m.Rerouted.Inc()
				}
			}
			return nil
		})
		tc.endAt(di)
		if err != nil {
			return false, err
		}
	}

	// Apply every report on its object's shard, in batch order.
	ai := tc.begin(-1, "apply", -1)
	var err error
	if groups == nil {
		_, err = g.shards[lone].mutate(op, name, batch, now)
	} else {
		err = parallel(len(g.shards), nonEmpty(groups), func(i int) error {
			_, err := g.shards[i].mutate(op, name, groups[i], now)
			return err
		})
	}
	tc.endAt(ai)
	for id, tgt := range final {
		g.part.note(id, tgt)
	}
	return false, err
}

// groupByShard groups a batch into k per-shard groups, keeping batch
// order within each group.  A batch whose reports all go to one shard
// is returned as that shard's index with nil groups, without copying.
// Otherwise the groups are consecutive windows of one slice, sized by
// a first pass over shardOf, so no group grows.  shardOf takes the
// report by value so that the batch does not escape through it.
func groupByShard(k int, batch []Report, shardOf func(r Report) int) (int, [][]Report) {
	lone := shardOf(batch[0])
	j := 1
	for j < len(batch) && shardOf(batch[j]) == lone {
		j++
	}
	if j == len(batch) {
		return lone, nil
	}
	counts := make([]int, k)
	for _, r := range batch {
		counts[shardOf(r)]++
	}
	all := make([]Report, len(batch))
	groups := make([][]Report, k)
	off := 0
	for i, n := range counts {
		groups[i] = all[off : off : off+n]
		off += n
	}
	for _, r := range batch {
		i := shardOf(r)
		groups[i] = append(groups[i], r)
	}
	return -1, groups
}

// nonEmpty is the parallel mask of a batch's per-shard groups: a shard
// with nothing to write gets no goroutine.
func nonEmpty[T any](groups [][]T) []bool {
	visit := make([]bool, len(groups))
	for i, grp := range groups {
		visit[i] = len(grp) > 0
	}
	return visit
}

// query answers the three region queries: see searchShards.
func (s *ShardedTree) query(op obs.Op, traced bool, invalid error, q geom.Query, now float64) ([]Result, *QueryTrace, error) {
	return runQuery(s.m, s.rec, op, traced, invalid, func(tc *QueryTrace) ([]Result, error) {
		return s.searchShards(op, q, now, tc)
	})
}

func (s *ShardedTree) nearest(traced bool, pos Vec, at float64, k int, now float64) ([]Result, *QueryTrace, error) {
	return runQuery(s.m, s.rec, obs.OpNearest, traced, checkTimeslice(at, now), func(tc *QueryTrace) ([]Result, error) {
		return s.nearestShards(pos, at, k, now, tc)
	})
}

// visitShards pins the current generation and visits its shards in
// index order on the calling goroutine: the one shard loop of every
// query.  visit runs one shard's traversal, filling the epoch-pin and
// traverse spans pinIdx and travIdx.  Each visit counts in ShardVisits
// and, timed as pin plus traversal, in the shard's own operation
// histogram; with a trace it is a shard span and a row of the shard
// table (under PartitionSpeed labelled with the shard's speed band).
func (s *ShardedTree) visitShards(op obs.Op, tc *QueryTrace, visit func(t *Tree, pinIdx, travIdx int) error) error {
	g := s.pin()
	defer g.unpin()
	s.m.ShardVisits.Add(uint64(len(g.shards)))
	if tc != nil {
		tc.Shards = make([]ShardTrace, len(g.shards))
		for i := range tc.Shards {
			tc.Shards[i] = ShardTrace{Shard: i, Band: s.bandLabel(g, i)}
		}
	}
	for i, t := range g.shards {
		b := tc.beginShard(i)
		start := time.Now()
		err := visit(t, b.pin, b.trav)
		t.m.ObserveOp(op, time.Since(start), err)
		tc.endShard(i, b)
		if err != nil {
			return err
		}
	}
	return nil
}

// searchShards runs one search on every shard, each appending its hits
// to one result slice, and merges them into ascending object-id order.
// A shard the query cannot touch rejects it at its root.
func (s *ShardedTree) searchShards(op obs.Op, q geom.Query, now float64, tc *QueryTrace) ([]Result, error) {
	out := make([]Result, 0)
	err := s.visitShards(op, tc, func(t *Tree, pinIdx, travIdx int) (err error) {
		out, err = t.searchAt(out, q, now, tc, pinIdx, travIdx)
		return err
	})
	if err != nil {
		return nil, err
	}
	mi := tc.begin(-1, "merge", -1)
	ms := time.Now()
	slices.SortFunc(out, func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })
	s.m.ObservePhase(obs.PhaseMerge, time.Since(ms))
	tc.endAt(mi)
	return out, nil
}

// Timeslice reports the objects predicted to be inside r at time at
// (Type 1 query), searched on every shard; see Tree.Timeslice.
func (s *ShardedTree) Timeslice(r Rect, at, now float64) ([]Result, error) {
	res, _, err := s.query(obs.OpTimeslice, s.rec != nil, checkTimeslice(at, now), geom.Timeslice(toRect(r), at), now)
	return res, err
}

// Window reports the objects predicted to cross r during [t1, t2]
// (Type 2 query), searched on every shard; see Tree.Window.
func (s *ShardedTree) Window(r Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := s.query(obs.OpWindow, s.rec != nil, checkWindow(t1, t2, now), geom.Window(toRect(r), t1, t2), now)
	return res, err
}

// Moving reports the objects predicted to cross the trapezoid
// connecting r1 at t1 to r2 at t2 (Type 3 query), searched on every
// shard; see Tree.Moving.
func (s *ShardedTree) Moving(r1, r2 Rect, t1, t2, now float64) ([]Result, error) {
	res, _, err := s.query(obs.OpMoving, s.rec != nil, checkMoving(t1, t2, now), geom.Moving(toRect(r1), toRect(r2), t1, t2, s.dims), now)
	return res, err
}

// Nearest returns the k objects whose predicted positions at time at
// are closest to pos, in ascending (distance, id) order: element by
// element the answer of one tree holding every shard's objects.  The
// shards are searched one after another, each bounded by the k-th
// distance of those before it.
func (s *ShardedTree) Nearest(pos Vec, at float64, k int, now float64) ([]Result, error) {
	res, _, err := s.nearest(s.rec != nil, pos, at, k, now)
	return res, err
}

// nearestShards runs the nearest kernel on each shard in turn, passing
// it the running k-th distance as its bound, so a later shard returns
// only objects that can still enter the answer — possibly fewer than k,
// none at all.  It merges by the distances the kernels computed, which
// are the bound's units, keeping the k best by (distance, id).
func (s *ShardedTree) nearestShards(pos Vec, at float64, k int, now float64, tc *QueryTrace) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	var best []core.Neighbor
	bound := math.Inf(1)
	err := s.visitShards(obs.OpNearest, tc, func(t *Tree, pinIdx, travIdx int) error {
		ns, err := t.nearestAt(pos, at, k, now, bound, tc, pinIdx, travIdx)
		if err != nil || len(ns) == 0 {
			return err
		}
		if best == nil {
			best = ns
		} else {
			best = append(best, ns...)
			slices.SortFunc(best, func(a, b core.Neighbor) int {
				if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
					return c
				}
				return cmp.Compare(a.OID, b.OID)
			})
			best = best[:min(len(best), k)]
		}
		if len(best) == k {
			bound = best[k-1].Dist
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fromNeighbors(best, now, s.dims), nil
}

// Get returns the object's current report from its shard; see
// Tree.Get.
func (s *ShardedTree) Get(id uint32, now float64) (Point, bool) {
	g := s.pin()
	defer g.unpin()
	i, ok := g.part.locate(id)
	if !ok {
		return Point{}, false
	}
	return g.shards[i].Get(id, now)
}

// Len returns the total number of stored reports across all shards.
func (s *ShardedTree) Len() int {
	g := s.pin()
	defer g.unpin()
	n := 0
	for _, t := range g.shards {
		n += t.Len()
	}
	return n
}

// Now returns the index's logical clock: the largest reference time
// any shard has applied.  It is the index's only clock: the HTTP server
// resolves every request's "now" from it and a follower serves at it.
// Each shard's clock is an atomic read, taken without the shard's lock,
// so Now never waits behind a writer.  A reopened index restores it
// from the shard metadata pages, so it survives restarts, and a live
// reshard carries it into the new generation.
func (s *ShardedTree) Now() float64 {
	g := s.pin()
	defer g.unpin()
	now := 0.0
	for _, t := range g.shards {
		if c := t.t.Now(); c > now {
			now = c
		}
	}
	return now
}

// ForEach visits every stored report, shard by shard, until fn returns
// false.  The visit order is unspecified.
func (s *ShardedTree) ForEach(now float64, fn func(Result) bool) error {
	g := s.pin()
	defer g.unpin()
	stop := false
	for _, t := range g.shards {
		if stop {
			return nil
		}
		err := t.ForEach(now, func(r Result) bool {
			if !fn(r) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the structural invariants of every shard.
func (s *ShardedTree) Validate() error {
	g := s.pin()
	defer g.unpin()
	return parallel(len(g.shards), nil, func(i int) error { return g.shards[i].Validate() })
}

// Stats returns the summed statistics of all shards (Height is the
// tallest shard's).
func (s *ShardedTree) Stats() Stats {
	g := s.pin()
	defer g.unpin()
	var out Stats
	for _, t := range g.shards {
		st := t.Stats()
		if st.Height > out.Height {
			out.Height = st.Height
		}
		out.Pages += st.Pages
		out.LeafEntries += st.LeafEntries
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.BufferHits += st.BufferHits
		out.Evictions += st.Evictions
		out.DirtyWritebacks += st.DirtyWritebacks
		out.UIEstimate = math.Max(out.UIEstimate, st.UIEstimate)
	}
	return out
}

// snapshots freezes the aggregate and per-shard registries.  The
// aggregate sums every shard's counters, gauges and lock-wait
// histograms, while its per-operation histograms and the partitioning
// counters (shard visits, re-routes) come from the front-end
// registry: they describe the whole operation including the merge.  The
// live-reshard families are front-end-only too: the reshard is a
// whole-index operation, not a per-shard one.
func (s *ShardedTree) snapshots() (agg obs.Snapshot, shards []obs.Snapshot) {
	g := s.pin()
	defer g.unpin()
	shards = make([]obs.Snapshot, len(g.shards))
	for i, t := range g.shards {
		shards[i] = t.snapshot()
		agg = agg.Add(shards[i])
	}
	front := s.m.Snapshot()
	agg.Ops = front.Ops
	agg.ShardVisits = front.ShardVisits
	agg.Rerouted = front.Rerouted
	agg.ReshardRuns = front.ReshardRuns
	agg.ReshardDualApplied = front.ReshardDualApplied
	agg.ReshardBackfilled = front.ReshardBackfilled
	agg.ReshardCutoverStall = front.ReshardCutoverStall
	// The merge phase is observed only by the front-end registry; fold
	// it into the summed shard phases.
	for p := range agg.Phases {
		agg.Phases[p] = agg.Phases[p].Add(front.Phases[p])
	}
	return agg, shards
}

// Metrics returns the aggregate instrumentation snapshot: summed
// per-shard counters, gauges and lock-wait histograms, with the
// per-operation latencies and partitioning counters measured at the sharded
// front end (every shard visit plus the merge).  WriteMetrics adds one
// section per shard.
func (s *ShardedTree) Metrics() Metrics {
	agg, _ := s.snapshots()
	return fromSnapshot(agg)
}

// WriteMetrics writes the aggregate metrics under the rexp_ name
// prefix followed by one section per shard under rexp_shard<i>_, all
// in the Prometheus text exposition format.  docs/METRICS.md lists
// every series.
func (s *ShardedTree) WriteMetrics(w io.Writer) error {
	agg, shards := s.snapshots()
	if err := obs.WriteSnapshotPrefix(w, agg, obs.DefaultPrefix); err != nil {
		return err
	}
	for i, snap := range shards {
		if err := obs.WriteSnapshotPrefix(w, snap, fmt.Sprintf("%s_shard%d", obs.DefaultPrefix, i)); err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler returns an http.Handler serving WriteMetrics for
// mounting on a scrape endpoint.
func (s *ShardedTree) MetricsHandler() http.Handler {
	return obs.ShardedHandler(s.snapshots)
}
