package storage

import (
	"errors"
	"path/filepath"
	"testing"

	"rexptree/internal/obs"
)

func TestFaultStorePassthrough(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 7
	if err := fs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := fs.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatal("passthrough lost data")
	}
	if fs.Len() != 1 {
		t.Fatalf("Len = %d", fs.Len())
	}
}

func TestFaultStoreCountdown(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	id, _ := fs.Allocate()
	buf := make([]byte, PageSize)
	fs.Arm(3)
	if err := fs.ReadPage(id, buf); err != nil { // op 1
		t.Fatalf("op 1 failed early: %v", err)
	}
	if err := fs.WritePage(id, buf); err != nil { // op 2
		t.Fatalf("op 2 failed early: %v", err)
	}
	if err := fs.ReadPage(id, buf); !errors.Is(err, ErrInjected) { // op 3
		t.Fatalf("op 3 = %v, want injected", err)
	}
	// Stays failed until disarmed.
	if err := fs.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 4 = %v, want injected", err)
	}
	fs.Disarm()
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestFaultStoreSelectiveKinds(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.FailReads = false
	id, _ := fs.Allocate()
	buf := make([]byte, PageSize)
	fs.Arm(1)
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("read should not fail: %v", err)
	}
	if err := fs.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("write = %v, want injected", err)
	}
	fs.Disarm()

	fs2 := NewFaultStore(NewMemStore())
	fs2.FailWrites = false
	id2, _ := fs2.Allocate()
	fs2.Arm(1)
	if err := fs2.WritePage(id2, buf); err != nil {
		t.Fatalf("write should not fail: %v", err)
	}
	if err := fs2.ReadPage(id2, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read = %v, want injected", err)
	}
}

func TestFaultStoreFreeAndAllocateFail(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	id, _ := fs.Allocate()
	fs.Arm(1)
	if err := fs.Free(id); !errors.Is(err, ErrInjected) {
		t.Fatalf("free = %v, want injected", err)
	}
	if _, err := fs.Allocate(); !errors.Is(err, ErrInjected) {
		t.Fatalf("allocate = %v, want injected", err)
	}
}

// TestFaultStoreCountsTrips checks that fired faults — and only fired
// faults — are counted.
func TestFaultStoreCountsTrips(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	met := obs.New()
	fs.SetMetrics(met)
	id, _ := fs.Allocate()
	buf := make([]byte, PageSize)
	if err := fs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if met.FaultTrips.Load() != 0 {
		t.Fatal("disarmed store counted a trip")
	}
	fs.Arm(2)
	if err := fs.ReadPage(id, buf); err != nil { // op 1 of 2: passes
		t.Fatal(err)
	}
	if err := fs.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read = %v, want injected", err)
	}
	if met.FaultTrips.Load() != 1 {
		t.Errorf("trips counted = %d, want 1", met.FaultTrips.Load())
	}
}

// TestFaultStoreTornWrite checks the torn-write kind: the first
// TornBytes bytes reach the inner store, the rest are zeroed, and the
// op still reports the injected error and counts a trip.
func TestFaultStoreTornWrite(t *testing.T) {
	inner := NewMemStore()
	fs := NewFaultStore(inner)
	fs.Kind = FaultTornWrite
	fs.TornBytes = 100
	met := obs.New()
	fs.SetMetrics(met)
	id, _ := fs.Allocate()
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	fs.Arm(1)
	if err := fs.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = %v, want injected", err)
	}
	if met.FaultTrips.Load() != 1 {
		t.Fatalf("trips = %d, want 1", met.FaultTrips.Load())
	}
	got := make([]byte, PageSize)
	if err := inner.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got[i] != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB (prefix must persist)", i, got[i])
		}
	}
	for i := 100; i < PageSize; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %#x, want 0 (suffix must be torn off)", i, got[i])
		}
	}
	// TornBytes beyond the page is clamped: the whole write persists
	// but the error still fires.
	fs.TornBytes = PageSize + 99
	fs.Arm(1)
	if err := fs.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("clamped torn write = %v, want injected", err)
	}
	if err := inner.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[PageSize-1] != 0xAB {
		t.Fatal("clamped torn write lost the tail")
	}
}

// TestFaultStoreTornWriteFileStore: over a FileStore the tear is
// injected below the checksum layer, so the slot's stored CRC genuinely
// mismatches its contents afterwards — the on-disk state a real torn
// write leaves, which reads and the scrub must refuse.
func TestFaultStoreTornWriteFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.rexp")
	inner, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	id, err := inner.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	old := make([]byte, PageSize)
	for i := range old {
		old[i] = 0x11
	}
	if err := inner.WritePage(id, old); err != nil {
		t.Fatal(err)
	}

	fs := NewFaultStore(inner)
	fs.Kind = FaultTornWrite
	fs.TornBytes = 512
	fs.Arm(1)
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	if err := fs.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = %v, want injected", err)
	}
	if err := inner.VerifyPage(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("torn slot verifies (%v), want %v", err, ErrChecksum)
	}
	got := make([]byte, PageSize)
	if err := inner.ReadPage(id, got); !errors.Is(err, ErrChecksum) {
		t.Fatalf("reading the torn slot = %v, want %v", err, ErrChecksum)
	}
	// A full rewrite heals the slot.
	fs.Disarm()
	if err := fs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := inner.VerifyPage(id); err != nil {
		t.Fatalf("rewritten slot fails verification: %v", err)
	}
}

// TestFaultStoreSyncFail checks the sync fault: disarmed or without
// FailSyncs the call forwards to the inner store, armed with FailSyncs
// it trips.
func TestFaultStoreSyncFail(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync on MemStore inner: %v", err)
	}
	fs.Arm(1)
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync without FailSyncs tripped: %v", err)
	}
	fs.Disarm()
	fs.FailSyncs = true
	fs.Arm(1)
	if err := fs.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync = %v, want injected", err)
	}
}
