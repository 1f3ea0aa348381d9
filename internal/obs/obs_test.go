package obs

import (
	"bytes"
	"errors"
	"log"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Set(-3)
	if g.Load() != -3 {
		t.Errorf("gauge = %d, want -3", g.Load())
	}
	var f GaugeFloat
	f.Set(37.25)
	if f.Load() != 37.25 {
		t.Errorf("gauge float = %v, want 37.25", f.Load())
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{500 * time.Nanosecond, 0},   // below the first bound
		{time.Microsecond, 0},        // exactly on a bound counts in that bucket
		{2 * time.Microsecond, 1},    // (1µs, 2.5µs]
		{time.Millisecond, 9},        // exactly 1e-3
		{700 * time.Millisecond, 18}, // (0.5s, 1s]
		{2 * time.Second, 19},        // overflow
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	for i, c := range cases {
		if got := h.counts[c.bucket].Load(); got == 0 {
			t.Errorf("case %d (%v): bucket %d empty", i, c.d, c.bucket)
		}
	}
	if h.count.Load() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.count.Load(), len(cases))
	}
	var sum uint64
	for i := range h.counts {
		sum += h.counts[i].Load()
	}
	if sum != uint64(len(cases)) {
		t.Errorf("bucket sum = %d, want %d", sum, len(cases))
	}
}

func TestBoundsCopy(t *testing.T) {
	b := Bounds()
	if len(b) != NumBuckets-1 {
		t.Fatalf("len(Bounds()) = %d, want %d", len(b), NumBuckets-1)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
	b[0] = 99 // mutating the copy must not affect the package
	if Bounds()[0] == 99 {
		t.Fatal("Bounds() returned shared storage")
	}
}

func TestOpNames(t *testing.T) {
	want := []string{"update", "delete", "timeslice", "window", "moving", "nearest", "update_batch"}
	for op := Op(0); op < NumOps; op++ {
		if op.String() != want[op] {
			t.Errorf("op %d = %q, want %q", op, op.String(), want[op])
		}
	}
	if Op(-1).String() != "unknown" || NumOps.String() != "unknown" {
		t.Error("out-of-range op not reported as unknown")
	}
}

func TestObserveOpCountsAndErrors(t *testing.T) {
	m := New()
	m.ObserveOp(OpUpdate, time.Millisecond, nil)
	m.ObserveOp(OpUpdate, time.Millisecond, errors.New("boom"))
	m.ObserveOp(OpWindow, time.Microsecond, nil)
	s := m.Snapshot()
	if s.Ops[OpUpdate].Count != 2 || s.Ops[OpUpdate].Errors != 1 {
		t.Errorf("update = %+v", s.Ops[OpUpdate])
	}
	if s.Ops[OpWindow].Count != 1 || s.Ops[OpWindow].Errors != 0 {
		t.Errorf("window = %+v", s.Ops[OpWindow])
	}
	if s.Ops[OpUpdate].Op != "update" {
		t.Errorf("snapshot op name = %q", s.Ops[OpUpdate].Op)
	}
	if got := s.Ops[OpUpdate].SumSeconds; got < 0.0019 || got > 0.0021 {
		t.Errorf("update sum = %v, want ~0.002", got)
	}
}

func TestNilReceiverSafe(t *testing.T) {
	var m *Metrics
	m.ObserveOp(OpUpdate, time.Second, nil) // must not panic
	if s := m.Snapshot(); s.Splits != 0 || s.Ops[OpUpdate].Count != 0 {
		t.Errorf("nil snapshot not zero: %+v", s)
	}
}

// TestSlowOpHook checks ObserveOp logs an operation that reaches SlowOp,
// once, under its label, and nothing below the threshold or with SlowOp
// unset.
func TestSlowOpHook(t *testing.T) {
	var buf bytes.Buffer
	out, flags := log.Writer(), log.Flags()
	log.SetOutput(&buf)
	log.SetFlags(0)
	defer func() { log.SetOutput(out); log.SetFlags(flags) }()

	m := New()
	m.SlowOp, m.SlowLabel = 10*time.Millisecond, "shard2/"
	m.ObserveOp(OpDelete, 5*time.Millisecond, nil)  // below threshold
	m.ObserveOp(OpDelete, 10*time.Millisecond, nil) // at threshold: logged
	m.ObserveOp(OpBatch, 20*time.Millisecond, nil)  // above: logged
	New().ObserveOp(OpDelete, time.Hour, nil)       // SlowOp unset
	want := "rexptree: slow shard2/delete: 10ms (threshold 10ms)\n" +
		"rexptree: slow shard2/update_batch: 20ms (threshold 10ms)\n"
	if got := buf.String(); got != want {
		t.Errorf("slow log = %q, want %q", got, want)
	}
}

func TestSnapshotSub(t *testing.T) {
	m := New()
	m.Splits.Add(3)
	m.BufReads.Add(10)
	m.Height.Set(2)
	m.UI.Set(50)
	m.ObserveOp(OpUpdate, time.Millisecond, nil)
	before := m.Snapshot()

	m.Splits.Add(2)
	m.BufReads.Add(5)
	m.Height.Set(3)
	m.UI.Set(60)
	m.ObserveOp(OpUpdate, time.Millisecond, errors.New("x"))
	m.ObserveOp(OpUpdate, time.Millisecond, nil)
	after := m.Snapshot()

	d := after.Sub(before)
	if d.Splits != 2 || d.BufReads != 5 {
		t.Errorf("delta counters: splits=%d reads=%d", d.Splits, d.BufReads)
	}
	// Gauges keep the current (later) values.
	if d.Height != 3 || d.UI != 60 {
		t.Errorf("delta gauges: height=%d ui=%v", d.Height, d.UI)
	}
	u := d.Ops[OpUpdate]
	if u.Count != 2 || u.Errors != 1 {
		t.Errorf("delta update op = %+v", u)
	}
	var bsum uint64
	for _, b := range u.Buckets {
		bsum += b
	}
	if bsum != 2 {
		t.Errorf("delta bucket sum = %d, want 2", bsum)
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := New()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Splits.Inc()
				m.ObserveOp(OpWindow, time.Microsecond, nil)
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Splits != goroutines*perG {
		t.Errorf("splits = %d, want %d", s.Splits, goroutines*perG)
	}
	if s.Ops[OpWindow].Count != goroutines*perG {
		t.Errorf("window count = %d, want %d", s.Ops[OpWindow].Count, goroutines*perG)
	}
}
