package storage

import (
	"errors"
	"fmt"

	"rexptree/internal/obs"
)

// ErrInjected is the base error returned by a FaultStore when a fault
// fires.
var ErrInjected = errors.New("storage: injected fault")

// FaultKind selects what happens when a FaultStore's countdown trips
// on a write.
type FaultKind int

const (
	// FaultErr fails the operation with ErrInjected and leaves the
	// wrapped store untouched (the default).
	FaultErr FaultKind = iota
	// FaultTornWrite models a crash mid-write: only a prefix of the
	// write persists, and the operation still reports ErrInjected.
	// When the wrapped store supports TornWriter (FileStore does) the
	// tear is injected below the checksum layer — the first TornBytes
	// of the encoded on-disk slot persist, the rest keeps its previous
	// content, so the stored CRC genuinely mismatches.  Otherwise the
	// first TornBytes of the page reach the wrapped store through the
	// normal write path and the rest of the page is zeroed.
	FaultTornWrite
)

// TornWriter is implemented by stores that can persist a raw slot
// prefix without recomputing checksums, so an injected torn write
// produces the same on-disk state a real one would.
type TornWriter interface {
	WritePageTorn(id PageID, buf []byte, n int) error
}

// FaultStore wraps a Store and fails operations on demand.  It exists
// for failure-injection tests: the index must surface storage errors
// instead of corrupting state or panicking.
type FaultStore struct {
	Inner Store

	// FailAfter, when positive, counts down on every operation; the
	// operation that reaches zero (and every later one until the
	// counter is reset) fails.
	FailAfter int

	// FailReads / FailWrites / FailSyncs restrict which operations can
	// fail (and count against the FailAfter countdown).
	FailReads  bool
	FailWrites bool
	FailSyncs  bool

	// Kind selects the failure behavior for page writes; TornBytes is
	// the persisted prefix length for FaultTornWrite.
	Kind      FaultKind
	TornBytes int

	ops int
	met *obs.Metrics
}

// SetMetrics attaches an instrument registry so fired faults are
// counted; it is forwarded to the wrapped store when supported.
func (s *FaultStore) SetMetrics(m *obs.Metrics) {
	s.met = m
	if inner, ok := s.Inner.(interface{ SetMetrics(*obs.Metrics) }); ok {
		inner.SetMetrics(m)
	}
}

// NewFaultStore wraps inner with both read and write faults armed but
// no countdown set (FailAfter zero disables faulting).
func NewFaultStore(inner Store) *FaultStore {
	return &FaultStore{Inner: inner, FailReads: true, FailWrites: true}
}

// Arm sets the countdown: the n-th matching operation from now fails.
func (s *FaultStore) Arm(n int) { s.FailAfter = n; s.ops = 0 }

// Disarm turns faulting off.
func (s *FaultStore) Disarm() { s.FailAfter = 0 }

func (s *FaultStore) maybeFail(kind string) error {
	if s.FailAfter <= 0 {
		return nil
	}
	s.ops++
	if s.ops >= s.FailAfter {
		if s.met != nil {
			s.met.FaultTrips.Inc()
		}
		return fmt.Errorf("%w: %s #%d", ErrInjected, kind, s.ops)
	}
	return nil
}

// ReadPage implements Store.
func (s *FaultStore) ReadPage(id PageID, buf []byte) error {
	if s.FailReads {
		if err := s.maybeFail("read"); err != nil {
			return err
		}
	}
	return s.Inner.ReadPage(id, buf)
}

// WritePage implements Store.
func (s *FaultStore) WritePage(id PageID, buf []byte) error {
	if s.FailWrites {
		if err := s.maybeFail("write"); err != nil {
			if s.Kind == FaultTornWrite {
				// Best effort: the torn prefix lands in the store even
				// though the operation reports failure, like a write
				// interrupted by a crash.
				if tw, ok := s.Inner.(TornWriter); ok {
					tw.WritePageTorn(id, buf, s.TornBytes)
				} else {
					n := s.TornBytes
					if n < 0 {
						n = 0
					}
					if n > len(buf) {
						n = len(buf)
					}
					torn := make([]byte, len(buf))
					copy(torn, buf[:n])
					s.Inner.WritePage(id, torn)
				}
			}
			return err
		}
	}
	return s.Inner.WritePage(id, buf)
}

// Sync implements Syncer: it forwards to the wrapped store, failing
// first when sync faults are armed (FailSyncs).
func (s *FaultStore) Sync() error {
	if s.FailSyncs {
		if err := s.maybeFail("sync"); err != nil {
			return err
		}
	}
	return SyncStore(s.Inner)
}

// Allocate implements Store.
func (s *FaultStore) Allocate() (PageID, error) {
	if s.FailWrites {
		if err := s.maybeFail("allocate"); err != nil {
			return InvalidPage, err
		}
	}
	return s.Inner.Allocate()
}

// Free implements Store.
func (s *FaultStore) Free(id PageID) error {
	if s.FailWrites {
		if err := s.maybeFail("free"); err != nil {
			return err
		}
	}
	return s.Inner.Free(id)
}

// Len implements Store.
func (s *FaultStore) Len() int { return s.Inner.Len() }

// Close implements Store.
func (s *FaultStore) Close() error { return s.Inner.Close() }
