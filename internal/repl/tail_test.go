package repl

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"rexptree"
	"rexptree/internal/wal"
)

// tailSegment encodes one tail response as the leader writes it: the
// header, n update records from lsn from on, and the trailer.
func tailSegment(t *testing.T, epoch, from uint64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	head := from + uint64(n)
	if err := writeJSONFrame(fw, FrameTailMeta, TailHeader{Epoch: epoch, From: from, Head: head, HeadOff: head * 64}); err != nil {
		t.Fatal(err)
	}
	var payload, body []byte
	for i := 0; i < n; i++ {
		lsn := from + uint64(i)
		now := float64(lsn) / 100
		payload = wal.EncodeUpdate(payload[:0], wal.Update{ID: uint32(i), Now: now, Time: now, Expires: now + 120,
			Pos: [3]float64{float64(lsn%997) + 1, float64(lsn%991) + 1}, Vel: [3]float64{1, -1}})
		body = EncodeRecordFrame(body, lsn, (lsn+1)*64, payload)
		if err := fw.WriteFrame(FrameRecord, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeJSONFrame(fw, FrameTailEnd, TailTrailer{Head: head, HeadOff: head * 64}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplierTailAllocs pins what one long poll of a caught-up follower
// allocates on its side: a 100-record tail segment served over HTTP,
// read, applied as one batch, and the cursor saved.  The frame reader
// and its 64 KiB buffer, the batch and its id set are the applier's own
// and are reused from poll to poll, so what is left is the HTTP round
// trip, the tree's batch and the cursor file; when each poll built its
// own reader, batch and set, a poll allocated about 110 KB (313
// objects, against 290 now).
func TestApplierTailAllocs(t *testing.T) {
	const polls, records = 40, 100
	var mu sync.Mutex
	segments := map[uint64][]byte{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		mu.Lock()
		seg := segments[from]
		mu.Unlock()
		if seg == nil {
			http.Error(w, "no segment", http.StatusGone)
			return
		}
		w.Write(seg)
	}))
	defer srv.Close()
	for k := 0; k < polls+1; k++ {
		from := 1 + uint64(k*records)
		segments[from] = tailSegment(t, 1, from, records)
	}

	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: rexptree.DefaultOptions(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	a, err := NewApplier(ApplierOptions{Leader: srv.URL, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	a.ix, a.base, a.epoch, a.nextLSN = ix, filepath.Join(a.o.Dir, "replica"), 1, 1

	if err := a.tailOnce(); err != nil { // warm up: the reader, the batch, the connection
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < polls; k++ {
		if err := a.tailOnce(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, want := a.applied.Load(), uint64((polls+1)*records); got != want {
		t.Fatalf("applied %d records, want %d", got, want)
	}
	perPoll := float64(after.TotalAlloc-before.TotalAlloc) / polls
	objects := float64(after.Mallocs-before.Mallocs) / polls
	t.Logf("%.0f objects and %.0f bytes per %d-record poll (server side included)", objects, perPoll, records)
	if perPoll > 48<<10 {
		t.Errorf("a %d-record poll allocates %.0f bytes, want at most 48 KiB", records, perPoll)
	}
}
