package repl

import (
	"errors"
	"sync"
	"time"

	"rexptree/internal/wal"
)

// ErrGone reports a tail position the feed no longer retains (or an
// epoch from a previous leader incarnation): the follower's resume
// point is unservable and it must re-bootstrap from a fresh snapshot.
var ErrGone = errors.New("repl: requested position is no longer retained; re-bootstrap required")

// FeedRecord is one retained logical record: its log sequence number,
// the feed's cumulative byte offset after it, and the wal-encoded
// payload.  Payloads are immutable once appended.
type FeedRecord struct {
	LSN     uint64
	Off     uint64
	Payload []byte
}

// Feed is the leader's in-memory replication log: every applied
// mutation is appended as a wal-encoded logical record in a single
// total order (it implements rexptree.ReplSink, invoked under each
// shard's exclusive lock, so per-object order equals apply order).
// Retention is bounded by bytes; a consumer that falls behind the
// retained window gets ErrGone and must re-bootstrap — the same
// contract a new leader incarnation (fresh Epoch) imposes.
type Feed struct {
	mu       sync.Mutex
	epoch    uint64
	recs     []FeedRecord
	firstLSN uint64 // LSN of recs[0]; == nextLSN when empty
	nextLSN  uint64
	headOff  uint64 // cumulative bytes ever appended
	retained int64  // payload bytes currently retained
	retain   int64
	pins     map[uint64]int // LSN → pin count; retention keeps LSNs >= the minimum
	notify   chan struct{}  // closed and replaced by the first append after a Wait
	waited   bool           // notify was handed out by Wait
}

// DefaultRetainBytes is the retention bound NewFeed applies when given
// a non-positive one.
const DefaultRetainBytes = 64 << 20

// NewFeed returns an empty feed with a fresh epoch.
func NewFeed(retainBytes int64) *Feed {
	if retainBytes <= 0 {
		retainBytes = DefaultRetainBytes
	}
	return &Feed{
		epoch:    uint64(time.Now().UnixNano()),
		firstLSN: 1,
		nextLSN:  1,
		retain:   retainBytes,
		pins:     make(map[uint64]int),
		notify:   make(chan struct{}),
	}
}

// Epoch identifies this leader incarnation; LSNs are only meaningful
// within one epoch.
func (f *Feed) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Head returns the next LSN to be assigned and the cumulative byte
// offset of everything appended so far.
func (f *Feed) Head() (next uint64, off uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextLSN, f.headOff
}

// Stats returns the append totals and the currently retained bytes.
func (f *Feed) Stats() (records uint64, bytes uint64, retained int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextLSN - 1, f.headOff, f.retained
}

// Append adds one record, taking ownership of payload.
func (f *Feed) Append(payload []byte) {
	f.mu.Lock()
	f.headOff += uint64(len(payload))
	f.recs = append(f.recs, FeedRecord{LSN: f.nextLSN, Off: f.headOff, Payload: payload})
	f.nextLSN++
	f.retained += int64(len(payload))
	f.pruneLocked()
	if f.waited {
		close(f.notify)
		f.notify = make(chan struct{})
		f.waited = false
	}
	f.mu.Unlock()
}

// pruneLocked drops the oldest records until the retention bound is
// met, never crossing the lowest pinned LSN.
func (f *Feed) pruneLocked() {
	minPin := uint64(0)
	for lsn := range f.pins {
		if minPin == 0 || lsn < minPin {
			minPin = lsn
		}
	}
	for f.retained > f.retain && len(f.recs) > 0 {
		if minPin != 0 && f.recs[0].LSN >= minPin {
			break
		}
		f.retained -= int64(len(f.recs[0].Payload))
		f.recs[0].Payload = nil
		f.recs = f.recs[1:]
		f.firstLSN++
	}
}

// Pin marks the current head as a resume point retention must keep —
// a snapshot in flight guarantees its receiver can tail from the
// snapshot's start LSN.  It returns that LSN, the matching byte
// offset, and a release function (idempotent).
func (f *Feed) Pin() (lsn, off uint64, release func()) {
	f.mu.Lock()
	lsn, off = f.nextLSN, f.headOff
	f.pins[lsn]++
	f.mu.Unlock()
	var once sync.Once
	return lsn, off, func() {
		once.Do(func() {
			f.mu.Lock()
			if f.pins[lsn]--; f.pins[lsn] <= 0 {
				delete(f.pins, lsn)
			}
			f.pruneLocked()
			f.mu.Unlock()
		})
	}
}

// ReadFrom returns retained records starting at LSN from (the next
// record the consumer wants), bounded by maxBytes of payload, plus the
// current head position.  It returns ErrGone when from precedes the
// retained window.  The returned slice is a copy the caller owns, since
// pruning clears the retained records; the payloads are shared and
// immutable.
func (f *Feed) ReadFrom(from uint64, maxBytes int) (recs []FeedRecord, head, headOff uint64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < f.firstLSN {
		return nil, f.nextLSN, f.headOff, ErrGone
	}
	if from >= f.nextLSN {
		return nil, f.nextLSN, f.headOff, nil
	}
	i := int(from - f.firstLSN)
	total := 0
	j := i
	for j < len(f.recs) {
		total += len(f.recs[j].Payload)
		j++
		if maxBytes > 0 && total >= maxBytes {
			break
		}
	}
	return append([]FeedRecord(nil), f.recs[i:j]...), f.nextLSN, f.headOff, nil
}

// Wait returns a channel closed at the next append.  Until some caller
// takes it, appends leave the channel alone, so a feed nobody tails
// allocates nothing per record for wake-ups.
func (f *Feed) Wait() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waited = true
	return f.notify
}

// ReplUpdate implements rexptree.ReplSink.
func (f *Feed) ReplUpdate(u wal.Update) {
	f.Append(wal.EncodeUpdate(make([]byte, 0, 96), u))
}

// ReplDelete implements rexptree.ReplSink.
func (f *Feed) ReplDelete(d wal.Delete) {
	f.Append(wal.EncodeDelete(make([]byte, 0, 16), d))
}
