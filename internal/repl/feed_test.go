package repl

import (
	"errors"
	"testing"
	"time"

	"rexptree/internal/wal"
)

func appendN(f *Feed, n, size int) {
	for i := 0; i < n; i++ {
		f.Append(make([]byte, size))
	}
}

func TestFeedAppendAndReadFrom(t *testing.T) {
	f := NewFeed(1 << 20)
	appendN(f, 10, 100)

	next, off := f.Head()
	if next != 11 || off != 1000 {
		t.Fatalf("head = (%d, %d), want (11, 1000)", next, off)
	}
	recs, head, headOff, err := f.ReadFrom(1, 0)
	if err != nil || len(recs) != 10 || head != 11 || headOff != 1000 {
		t.Fatalf("ReadFrom(1) = %d recs, head %d/%d, err %v", len(recs), head, headOff, err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Off != uint64((i+1)*100) {
			t.Fatalf("rec %d: lsn %d off %d", i, r.LSN, r.Off)
		}
	}

	// Byte-bounded read clips but never returns zero records at a
	// servable position.
	recs, _, _, err = f.ReadFrom(1, 250)
	if err != nil || len(recs) != 3 {
		t.Fatalf("bounded ReadFrom = %d recs, err %v, want 3", len(recs), err)
	}

	// Reading at the head returns no records and no error.
	recs, _, _, err = f.ReadFrom(11, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(head) = %d recs, err %v", len(recs), err)
	}
}

func TestFeedRetentionPrunesAndGoes(t *testing.T) {
	f := NewFeed(500) // five 100-byte records
	appendN(f, 10, 100)

	if _, _, _, err := f.ReadFrom(1, 0); !errors.Is(err, ErrGone) {
		t.Fatalf("ReadFrom(pruned) err = %v, want ErrGone", err)
	}
	recs, _, _, err := f.ReadFrom(6, 0)
	if err != nil || len(recs) != 5 {
		t.Fatalf("ReadFrom(6) = %d recs, err %v, want 5 retained", len(recs), err)
	}
	_, _, retained := f.Stats()
	if retained != 500 {
		t.Fatalf("retained = %d, want 500", retained)
	}
}

// TestFeedReadSurvivesPruning checks records handed out by ReadFrom
// keep their payloads when a later append prunes the retained window
// under them; a cleared payload would go out as a corrupt frame.
func TestFeedReadSurvivesPruning(t *testing.T) {
	f := NewFeed(1000)
	appendN(f, 10, 100)
	recs, _, _, err := f.ReadFrom(1, 0)
	if err != nil || len(recs) != 10 {
		t.Fatalf("ReadFrom(1) = %d recs, err %v, want 10", len(recs), err)
	}
	appendN(f, 1, 100) // prunes LSN 1
	for _, r := range recs {
		if len(r.Payload) != 100 {
			t.Errorf("record %d handed out before the prune now has a %d-byte payload", r.LSN, len(r.Payload))
		}
	}
}

func TestFeedPinBlocksPruning(t *testing.T) {
	f := NewFeed(500)
	appendN(f, 3, 100)

	lsn, off, release := f.Pin()
	if lsn != 4 || off != 300 {
		t.Fatalf("pin at (%d, %d), want (4, 300)", lsn, off)
	}
	// Push far past the retention bound: everything from the pin on
	// must survive.
	appendN(f, 20, 100)
	recs, _, _, err := f.ReadFrom(lsn, 0)
	if err != nil || len(recs) != 20 {
		t.Fatalf("pinned tail: %d recs, err %v, want 20", len(recs), err)
	}

	// Releasing lets retention catch up; release is idempotent.
	release()
	release()
	f.Append(make([]byte, 100))
	if _, _, _, err := f.ReadFrom(lsn, 0); !errors.Is(err, ErrGone) {
		t.Fatalf("after release err = %v, want ErrGone", err)
	}
}

func TestFeedEpochFromOtherIncarnation(t *testing.T) {
	a, b := NewFeed(0), NewFeed(0)
	if a.Epoch() == b.Epoch() {
		t.Skip("two feeds created in the same nanosecond")
	}
}

func TestFeedWaitSignalsAppend(t *testing.T) {
	f := NewFeed(0)
	ch := f.Wait()
	select {
	case <-ch:
		t.Fatal("Wait channel closed before any append")
	default:
	}
	go f.Append([]byte("x"))
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait channel not closed by append")
	}
}

// An append wakes only a waiter that took the channel before it, and
// while nobody has taken the channel appends keep it: Wait then hands
// out the same, still open, channel it would have before them.
func TestFeedWaitChannelReplacedOnlyWhenTaken(t *testing.T) {
	f := NewFeed(0)
	idle := f.notify
	for i := 0; i < 3; i++ {
		f.Append([]byte("x"))
	}
	ch := f.Wait()
	if ch != idle {
		t.Fatal("appends with no waiter replaced the wait channel")
	}
	if again := f.Wait(); again != ch {
		t.Fatal("two Waits with no append between returned different channels")
	}
	select {
	case <-ch:
		t.Fatal("wait channel closed by appends made before it was taken")
	default:
	}
	f.Append([]byte("y"))
	select {
	case <-ch:
	default:
		t.Fatal("a waiter that took the channel before an append was not woken")
	}
	next := f.Wait()
	if next == ch {
		t.Fatal("Wait after a wake-up returned the closed channel")
	}
	select {
	case <-next:
		t.Fatal("the replacement channel is already closed")
	default:
	}
}

func TestFeedSinkEncodesWALRecords(t *testing.T) {
	f := NewFeed(0)
	u := wal.Update{ID: 7, Now: 1.5, Time: 1.25, Expires: 9,
		Pos: [3]float64{1, 2, 0}, Vel: [3]float64{-0.5, 0.25, 0}}
	f.ReplUpdate(u)
	f.ReplDelete(wal.Delete{ID: 7, Now: 2})

	recs, _, _, err := f.ReadFrom(1, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("ReadFrom = %d recs, err %v", len(recs), err)
	}
	var rec wal.Record
	if err := wal.DecodeRecord(recs[0].Payload, &rec); err != nil {
		t.Fatalf("decode update: %v", err)
	}
	if rec.Kind != wal.RecUpdate || rec.Update != u {
		t.Fatalf("decoded update %+v, want %+v", rec.Update, u)
	}
	if err := wal.DecodeRecord(recs[1].Payload, &rec); err != nil {
		t.Fatalf("decode delete: %v", err)
	}
	if rec.Kind != wal.RecDelete || rec.Delete.ID != 7 || rec.Delete.Now != 2 {
		t.Fatalf("decoded delete %+v", rec.Delete)
	}
}
