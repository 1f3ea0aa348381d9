package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPhaseString(t *testing.T) {
	want := []string{"io_read", "io_write", "wal_append",
		"wal_fsync", "checkpoint", "merge"}
	if int(NumPhases) != len(want) {
		t.Fatalf("NumPhases = %d, want %d", NumPhases, len(want))
	}
	for p := Phase(0); p < NumPhases; p++ {
		if got := p.String(); got != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want[p])
		}
	}
	if got := Phase(-1).String(); got != "unknown" {
		t.Errorf("Phase(-1).String() = %q, want unknown", got)
	}
	if got := NumPhases.String(); got != "unknown" {
		t.Errorf("NumPhases.String() = %q, want unknown", got)
	}
}

func TestObservePhaseNilMetrics(t *testing.T) {
	var m *Metrics
	m.ObservePhase(PhaseIORead, time.Millisecond) // must not panic
}

func TestObservePhaseCounts(t *testing.T) {
	m := New()
	m.ObservePhase(PhaseWALFsync, 2*time.Millisecond)
	m.ObservePhase(PhaseWALFsync, 3*time.Millisecond)
	m.ObservePhase(PhaseMerge, time.Microsecond)
	snap := m.Snapshot()
	if got := snap.Phases[PhaseWALFsync].Count; got != 2 {
		t.Errorf("wal_fsync count = %d, want 2", got)
	}
	if got := snap.Phases[PhaseMerge].Count; got != 1 {
		t.Errorf("merge count = %d, want 1", got)
	}
	if got := snap.Phases[PhaseCheckpoint].Count; got != 0 {
		t.Errorf("checkpoint count = %d, want 0", got)
	}
}

// TestTraceRingWraparound fills a capacity-4 ring with 10 values and
// checks the snapshot holds exactly the newest 4, newest first.
func TestTraceRingWraparound(t *testing.T) {
	r := newTraceRing(4)
	if got := r.snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d entries", len(got))
	}
	for i := 0; i < 10; i++ {
		r.put(fmt.Sprintf("v%d", i))
	}
	got := r.snapshot()
	want := []string{"v9", "v8", "v7", "v6"}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].(string) != w {
			t.Errorf("snapshot[%d] = %v, want %s", i, got[i], w)
		}
	}
}

// TestTraceRingPartial checks a ring that has not wrapped returns only
// what was put.
func TestTraceRingPartial(t *testing.T) {
	r := newTraceRing(8)
	r.put("a")
	r.put("b")
	got := r.snapshot()
	if len(got) != 2 || got[0].(string) != "b" || got[1].(string) != "a" {
		t.Fatalf("snapshot = %v, want [b a]", got)
	}
}

func TestRecorderSlowThreshold(t *testing.T) {
	r := NewRecorder(8, 5*time.Millisecond)
	r.Record("fast", time.Millisecond)
	r.Record("slow", 5*time.Millisecond) // at threshold counts as slow
	r.Record("slower", time.Second)
	recent, slow := r.Snapshot()
	if len(recent) != 3 {
		t.Errorf("recent has %d entries, want 3", len(recent))
	}
	if len(slow) != 2 || slow[0].(string) != "slower" || slow[1].(string) != "slow" {
		t.Errorf("slow = %v, want [slower slow]", slow)
	}

	if got := r.SlowThreshold(); got != 5*time.Millisecond {
		t.Errorf("SlowThreshold = %v, want 5ms", got)
	}
	off := NewRecorder(8, 0) // a zero threshold disables the slow ring
	off.Record("slowest", time.Hour)
	if _, slow := off.Snapshot(); len(slow) != 0 {
		t.Errorf("slow ring holds %d entries with threshold 0", len(slow))
	}
}

func TestRecorderMinimumCapacity(t *testing.T) {
	r := NewRecorder(0, 0)
	r.Record("x", 0)
	recent, _ := r.Snapshot()
	if len(recent) != 1 || recent[0].(string) != "x" {
		t.Fatalf("recent = %v, want [x]", recent)
	}
}

// TestRecorderConcurrent hammers one recorder from parallel writers and
// readers; correctness here is the race detector's verdict plus basic
// snapshot sanity (bounded length, no nils, valid values).
func TestRecorderConcurrent(t *testing.T) {
	const capacity = 16
	r := NewRecorder(capacity, time.Microsecond)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				r.Record(fmt.Sprintf("w%d-%d", w, i), time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			recent, slow := r.Snapshot()
			if len(recent) > capacity || len(slow) > capacity {
				t.Errorf("snapshot exceeds capacity: %d recent, %d slow", len(recent), len(slow))
				return
			}
			for _, v := range append(recent, slow...) {
				if _, ok := v.(string); !ok {
					t.Errorf("snapshot holds non-string %T", v)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone

	recent, _ := r.Snapshot()
	if len(recent) != capacity {
		t.Errorf("after 8000 records, recent holds %d entries, want %d", len(recent), capacity)
	}
}
