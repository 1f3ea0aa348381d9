package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rexptree"
	"rexptree/internal/manifest"
	"rexptree/internal/obs"
	"rexptree/internal/wal"
)

// ApplierOptions configures a follower.
type ApplierOptions struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:7070").
	Leader string

	// Dir is a directory the applier owns: replica file sets, their
	// position sidecars and the CURRENT pointer live in it.  Created
	// if missing.
	Dir string

	// Client performs the HTTP requests.  It must not set an overall
	// timeout (tail requests long-poll); per-request deadlines are
	// applied internally.  nil means a default client.
	Client *http.Client

	// MaxBackoff caps the exponential reconnect backoff (default 5s).
	MaxBackoff time.Duration

	// MaxBatch bounds how many updates one UpdateBatch application
	// groups (default 512).  Each flush is one group commit on the
	// replica, so larger batches trade apply latency for throughput.
	MaxBatch int

	// OnSwap, when set, is called with the new index every time a
	// (re-)bootstrap publishes a fresh replica, before the previous
	// one is closed; when it returns, no caller may still be using the
	// previous index.  When nil, superseded indexes are retained until
	// Close so a caller of Index is never handed a closing tree.
	OnSwap func(ix *rexptree.ShardedTree)

	// Logf reports reconnects, re-bootstraps and refused frames.
	// Defaults to a silent logger.
	Logf func(format string, args ...any)
}

// position is the durable apply cursor, persisted beside each replica
// file set.  It is written only after everything at or before NextLSN
// is durably applied (the replica runs DurabilityOnCommit and each
// flush group-commits), so a crashed follower resumes at or before its
// true position and re-applies idempotently — never past a gap.
type position struct {
	Epoch      uint64  `json:"epoch"`
	NextLSN    uint64  `json:"next_lsn"`
	AppliedOff uint64  `json:"applied_off"`
	Clock      float64 `json:"clock"`
}

// errGone signals a 410 from the leader: the resume position is not
// servable (pruned, or another leader incarnation); re-bootstrap.
var errGone = errors.New("repl: leader cannot serve the resume position")

// Applier is the follower side: it bootstraps a replica from the
// leader's backup stream, then tails the logical record feed to keep
// the replica converging with the leader, surviving crashes on either
// side, torn frames and disconnects.  The replica index serves the
// full read API; the applier is its only writer.
type Applier struct {
	o      ApplierOptions
	client *http.Client

	mu         sync.Mutex
	ix         *rexptree.ShardedTree
	base       string // current replica base path
	epoch      uint64
	nextLSN    uint64
	appliedOff uint64
	headOff    uint64 // leader head offset at last contact
	clock      float64
	caughtUpAt time.Time // last moment the replica matched the leader head
	retired    []*rexptree.ShardedTree

	applied     atomic.Uint64
	bootstraps  atomic.Uint64
	reconnects  atomic.Uint64
	frameErrors atomic.Uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewApplier prepares a follower over dir; call Open to load or
// bootstrap a replica, then Start to begin tailing.
func NewApplier(o ApplierOptions) (*Applier, error) {
	if o.Leader == "" || o.Dir == "" {
		return nil, fmt.Errorf("repl: ApplierOptions.Leader and Dir are required")
	}
	o.Leader = strings.TrimRight(o.Leader, "/")
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 512
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Applier{
		o:      o,
		client: o.Client,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Open makes the applier serve-ready: it resumes from the replica
// named by the CURRENT pointer when one exists and opens cleanly
// (local crash recovery runs inside the open; the tail then re-applies
// from the durable cursor), and bootstraps a fresh replica from the
// leader otherwise, retrying with capped backoff until ctx is done.
func (a *Applier) Open(ctx context.Context) error {
	if err := a.resume(); err == nil {
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		a.o.Logf("repl: local replica unusable (%v); bootstrapping from %s", err, a.o.Leader)
	}
	backoff := 100 * time.Millisecond
	for {
		err := a.bootstrap(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.o.Logf("repl: bootstrap failed: %v (retrying in %v)", err, backoff)
		if !sleepCtx(ctx, jitter(backoff)) {
			return ctx.Err()
		}
		backoff = nextBackoff(backoff, a.o.MaxBackoff)
	}
}

// resume opens the replica the CURRENT pointer names and loads its
// durable position.
func (a *Applier) resume() error {
	name, err := os.ReadFile(filepath.Join(a.o.Dir, "CURRENT"))
	if err != nil {
		return err
	}
	base := filepath.Join(a.o.Dir, strings.TrimSpace(string(name)))
	var pos position
	data, err := os.ReadFile(base + ".replpos")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &pos); err != nil {
		return fmt.Errorf("repl: position sidecar: %w", err)
	}
	ix, err := openReplica(base)
	if err != nil {
		return err
	}
	// The replica's own stored clock can be ahead of the sidecar's (the
	// sidecar is written after each flush; the tree's clock is restored
	// from its metadata pages).  Queries must never run behind the
	// tree's clock, so take the larger.
	if c := ix.Now(); c > pos.Clock {
		pos.Clock = c
	}
	a.mu.Lock()
	a.ix, a.base = ix, base
	a.epoch, a.nextLSN, a.appliedOff, a.clock = pos.Epoch, pos.NextLSN, pos.AppliedOff, pos.Clock
	a.caughtUpAt = time.Now()
	a.mu.Unlock()
	a.o.Logf("repl: resumed replica %s at lsn %d (epoch %d)", base, pos.NextLSN, pos.Epoch)
	return nil
}

// openReplica opens a replica file set read from a backup stream (or
// left by a previous run) with the partitioning its manifest records.
// DurabilityOnCommit makes every flush a durable point, which the
// position sidecar's guarantee rests on.
func openReplica(base string) (*rexptree.ShardedTree, error) {
	man, found, err := manifest.Read(manifest.Path(base))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("repl: %w: no manifest at %s", os.ErrNotExist, manifest.Path(base))
	}
	part := rexptree.PartitionHash
	if man.Partition == "speed" {
		part = rexptree.PartitionSpeed
	}
	// The leader never told us how its tree is configured; the shard
	// files themselves did (layout config lives in the metadata page).
	opts, err := rexptree.StoredOptions(manifest.ShardPath(base, man.Generation, 0))
	if err != nil {
		return nil, fmt.Errorf("repl: reading replica layout: %w", err)
	}
	opts.Path = base
	opts.Durability = rexptree.DurabilityOnCommit
	return rexptree.OpenSharded(rexptree.ShardedOptions{
		Options:   opts,
		Shards:    man.Shards,
		Partition: part,
		// SpeedBands stay empty: the manifest's recorded bands apply,
		// so routing matches the leader exactly.
	})
}

// bootstrap pulls one full backup stream into a fresh replica file set
// and publishes it, superseding any current replica.
func (a *Applier) bootstrap(ctx context.Context) error {
	base := filepath.Join(a.o.Dir, fmt.Sprintf("replica-%06d", a.nextSeq()))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.o.Leader+"/v1/backup", nil)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: leader backup: %s", readError(resp))
	}
	info, err := WriteBackup(base, resp.Body)
	if err != nil {
		if errors.Is(err, ErrCorruptFrame) || errors.Is(err, ErrTruncated) {
			a.frameErrors.Add(1)
		}
		return err
	}
	ix, err := openReplica(base)
	if err != nil {
		return err
	}
	// Seed the applied clock from the snapshot itself: the shard files
	// carry the leader's clock in their metadata pages, and serving
	// queries at a clock behind the tree's own is an error.
	pos := position{Epoch: info.Meta.Epoch, NextLSN: info.Meta.StartLSN,
		AppliedOff: info.Meta.StartOff, Clock: ix.Now()}
	if err := writePosition(base, pos); err != nil {
		ix.Close()
		return err
	}
	if err := writeCurrent(a.o.Dir, filepath.Base(base)); err != nil {
		ix.Close()
		return err
	}

	a.mu.Lock()
	old, oldBase := a.ix, a.base
	a.ix, a.base = ix, base
	a.epoch, a.nextLSN, a.appliedOff = pos.Epoch, pos.NextLSN, pos.AppliedOff
	if pos.Clock > a.clock {
		a.clock = pos.Clock
	}
	a.headOff = pos.AppliedOff
	a.caughtUpAt = time.Now()
	if old != nil && a.o.OnSwap == nil {
		a.retired = append(a.retired, old)
	}
	// Counted with the swap: whoever sees the new applied position sees
	// the bootstrap that produced it.
	a.bootstraps.Add(1)
	a.mu.Unlock()

	if a.o.OnSwap != nil {
		a.o.OnSwap(ix)
		if old != nil {
			old.Close()
		}
	}
	if oldBase != "" {
		removeReplica(oldBase)
	}
	a.o.Logf("repl: bootstrapped replica %s: %d shards, %d bytes, tail from lsn %d (epoch %d)",
		base, info.Meta.Shards, info.Bytes, pos.NextLSN, pos.Epoch)
	return nil
}

// nextSeq picks a replica name strictly after every one already in the
// directory, so a partially-written set from a crashed bootstrap is
// never reused.
func (a *Applier) nextSeq() int {
	ents, _ := os.ReadDir(a.o.Dir)
	max := 0
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "replica-%06d", &n); err == nil && n > max {
			max = n
		}
	}
	return max + 1
}

// removeReplica deletes a superseded replica file set (best effort).
func removeReplica(base string) {
	dir, prefix := filepath.Dir(base), filepath.Base(base)
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

func writePosition(base string, pos position) error {
	data, err := json.Marshal(pos)
	if err != nil {
		return err
	}
	path := base + ".replpos"
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func writeCurrent(dir, name string) error {
	tmp := filepath.Join(dir, "CURRENT.tmp")
	if err := os.WriteFile(tmp, []byte(name+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "CURRENT")); err != nil {
		return err
	}
	return syncDir(dir)
}

// Start launches the tail loop; Close stops it.
func (a *Applier) Start() {
	go a.run()
}

func (a *Applier) run() {
	defer close(a.done)
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		err := a.tailOnce()
		if err == nil {
			backoff = 100 * time.Millisecond
			continue
		}
		if errors.Is(err, errGone) {
			a.o.Logf("repl: resume position gone at leader; re-bootstrapping")
			ctx, cancel := a.stopContext()
			berr := a.bootstrapLoop(ctx)
			cancel()
			if berr != nil {
				return // only on shutdown
			}
			backoff = 100 * time.Millisecond
			continue
		}
		a.reconnects.Add(1)
		a.o.Logf("repl: tail failed: %v (reconnecting in ~%v)", err, backoff)
		if !a.sleepStop(jitter(backoff)) {
			return
		}
		backoff = nextBackoff(backoff, a.o.MaxBackoff)
	}
}

// bootstrapLoop re-bootstraps with capped backoff until it succeeds or
// the applier is closed.  While it retries, the current replica keeps
// serving its last consistent state.
func (a *Applier) bootstrapLoop(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		err := a.bootstrap(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.o.Logf("repl: re-bootstrap failed: %v (retrying in ~%v)", err, backoff)
		if !sleepCtx(ctx, jitter(backoff)) {
			return ctx.Err()
		}
		backoff = nextBackoff(backoff, a.o.MaxBackoff)
	}
}

// stopContext returns a context canceled when the applier is closed.
func (a *Applier) stopContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		select {
		case <-a.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// tailOnce performs one tail request and applies its records.  Any
// corrupt or truncated frame aborts the connection with the error
// counted — records already applied are durable and the cursor is
// exact, so the retry re-requests from the first unapplied record.
func (a *Applier) tailOnce() error {
	a.mu.Lock()
	from, epoch := a.nextLSN, a.epoch
	a.mu.Unlock()

	ctx, cancel := a.stopContext()
	defer cancel()
	ctx, cancelT := context.WithTimeout(ctx, longPollWindow+15*time.Second)
	defer cancelT()

	url := fmt.Sprintf("%s/v1/wal?from=%d&epoch=%d", a.o.Leader, from, epoch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errGone
	default:
		return fmt.Errorf("repl: leader tail: %s", readError(resp))
	}

	fr := NewFrameReader(resp.Body)
	kind, body, err := fr.ReadFrame()
	if err != nil {
		return a.frameFail(err)
	}
	if kind != FrameTailMeta {
		return a.frameFail(fmt.Errorf("%w: tail stream starts with frame kind 0x%02x", ErrCorruptFrame, kind))
	}
	var hdr TailHeader
	if err := json.Unmarshal(body, &hdr); err != nil {
		return a.frameFail(fmt.Errorf("%w: tail header: %v", ErrCorruptFrame, err))
	}
	if hdr.Epoch != epoch || hdr.From != from {
		return a.frameFail(fmt.Errorf("%w: tail header (epoch %d, from %d) does not answer the request (epoch %d, from %d)",
			ErrCorruptFrame, hdr.Epoch, hdr.From, epoch, from))
	}

	var (
		batch   []rexptree.Report
		inBatch = map[uint32]bool{}
		next    = from
		off     = uint64(0)
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		a.mu.Lock()
		ix, clock := a.ix, a.clock
		a.mu.Unlock()
		if err := ix.UpdateBatch(batch, clock); err != nil {
			return fmt.Errorf("repl: applying records [..%d): %w", next, err)
		}
		a.applied.Add(uint64(len(batch)))
		batch = batch[:0]
		clear(inBatch)
		return a.savePosition(next, off)
	}

	for {
		kind, body, err := fr.ReadFrame()
		if err != nil {
			return a.frameFail(err)
		}
		switch kind {
		case FrameRecord:
			lsn, recOff, payload, err := DecodeRecordFrame(body)
			if err != nil {
				return a.frameFail(fmt.Errorf("%w: %v", ErrCorruptFrame, err))
			}
			if lsn != next {
				return a.frameFail(fmt.Errorf("%w: record lsn %d, want %d", ErrCorruptFrame, lsn, next))
			}
			var rec wal.Record
			if err := wal.DecodeRecord(payload, &rec); err != nil {
				return a.frameFail(fmt.Errorf("%w: record payload: %v", ErrCorruptFrame, err))
			}
			switch rec.Kind {
			case wal.RecUpdate:
				u := rec.Update
				if inBatch[u.ID] || len(batch) >= a.o.MaxBatch {
					if err := flush(); err != nil {
						return err
					}
				}
				p := rexptree.Point{Time: u.Time, Expires: u.Expires, Pos: u.Pos, Vel: u.Vel}
				batch = append(batch, rexptree.Report{ID: u.ID, Point: p})
				inBatch[u.ID] = true
				a.advanceClock(u.Now)
			case wal.RecDelete:
				if err := flush(); err != nil {
					return err
				}
				a.advanceClock(rec.Delete.Now)
				a.mu.Lock()
				ix, clock := a.ix, a.clock
				a.mu.Unlock()
				if _, err := ix.Delete(rec.Delete.ID, clock); err != nil {
					return fmt.Errorf("repl: applying delete of %d at lsn %d: %w", rec.Delete.ID, lsn, err)
				}
				a.applied.Add(1)
			default:
				return a.frameFail(fmt.Errorf("%w: record kind %d in the tail stream", ErrCorruptFrame, rec.Kind))
			}
			next, off = lsn+1, recOff
		case FrameTailEnd:
			var tr TailTrailer
			if err := json.Unmarshal(body, &tr); err != nil {
				return a.frameFail(fmt.Errorf("%w: tail trailer: %v", ErrCorruptFrame, err))
			}
			if err := flush(); err != nil {
				return err
			}
			// A segment can end on deletes, which apply outside the
			// batch: the cursor still has to move, or the same segment
			// would be re-requested forever.
			if next > from {
				if err := a.savePosition(next, off); err != nil {
					return err
				}
			}
			a.mu.Lock()
			a.headOff = tr.HeadOff
			if a.nextLSN >= tr.Head {
				a.caughtUpAt = time.Now()
			}
			a.mu.Unlock()
			return nil
		default:
			return a.frameFail(fmt.Errorf("%w: frame kind 0x%02x in the tail stream", ErrCorruptFrame, kind))
		}
	}
}

// frameFail counts a refused frame and returns the error: the
// connection is abandoned rather than applied past damage.
func (a *Applier) frameFail(err error) error {
	a.frameErrors.Add(1)
	return err
}

// savePosition records the durable cursor after a flush: everything
// below next is applied and fsynced (the replica runs on-commit
// durability), so this write may only ever lag the truth.
func (a *Applier) savePosition(next, lastOff uint64) error {
	a.mu.Lock()
	a.nextLSN = next
	if lastOff > a.appliedOff {
		a.appliedOff = lastOff
	}
	pos := position{Epoch: a.epoch, NextLSN: a.nextLSN, AppliedOff: a.appliedOff, Clock: a.clock}
	base := a.base
	a.mu.Unlock()
	return writePosition(base, pos)
}

func (a *Applier) advanceClock(now float64) {
	a.mu.Lock()
	if now > a.clock {
		a.clock = now
	}
	a.mu.Unlock()
}

// Index returns the current replica index.  With OnSwap unset the
// returned index stays valid until Close even across re-bootstraps;
// with OnSwap set, the swap callback owns lifetime hand-off.
func (a *Applier) Index() *rexptree.ShardedTree {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ix
}

// Clock returns the replica's applied logical clock.
func (a *Applier) Clock() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.clock
}

// LagSeconds reports staleness: how long ago the replica was last
// level with the leader's head.  It grows while disconnected or
// catching up and resets to ~0 in steady state.
func (a *Applier) LagSeconds() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.caughtUpAt.IsZero() {
		return 0
	}
	return time.Since(a.caughtUpAt).Seconds()
}

// LagBytes reports how many feed bytes the replica has not applied, as
// of the last leader contact.
func (a *Applier) LagBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.headOff <= a.appliedOff {
		return 0
	}
	return int64(a.headOff - a.appliedOff)
}

// AppliedLSN returns the last applied log sequence number.
func (a *Applier) AppliedLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextLSN - 1
}

// Stats returns the follower-side replication counters.
func (a *Applier) Stats() obs.ReplStats {
	return obs.ReplStats{
		AppliedRecords: a.applied.Load(),
		AppliedLSN:     a.AppliedLSN(),
		Bootstraps:     a.bootstraps.Load(),
		Reconnects:     a.reconnects.Load(),
		FrameErrors:    a.frameErrors.Load(),
		LagSeconds:     a.LagSeconds(),
		LagBytes:       a.LagBytes(),
	}
}

// Close stops the tail loop and closes every index the applier owns.
func (a *Applier) Close() error {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
	a.mu.Lock()
	ix, retired := a.ix, a.retired
	a.ix, a.retired = nil, nil
	a.mu.Unlock()
	var err error
	for _, t := range retired {
		if cerr := t.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if ix != nil {
		if cerr := ix.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// sleepStop sleeps d unless the applier is closed first.
func (a *Applier) sleepStop(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.stop:
		return false
	case <-t.C:
		return true
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// jitter spreads a delay uniformly over [d/2, 3d/2) so a fleet of
// followers does not reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

func nextBackoff(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		d = max
	}
	return d
}

// readError extracts a short error body from a non-200 response.
func readError(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(b))
	if msg == "" {
		return resp.Status
	}
	return resp.Status + ": " + msg
}

// Promote is documentation more than code: a follower's replica file
// set is a normal durable sharded index, so promoting it to a
// standalone leader is stopping the follower and serving the CURRENT
// base path directly.  CurrentBase returns that path for tooling.
func (a *Applier) CurrentBase() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.base
}
