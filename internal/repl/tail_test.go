package repl

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"rexptree"
	"rexptree/internal/obs"
	"rexptree/internal/wal"
)

// tailSegment encodes one tail response as the leader writes it: the
// header, n update records of distinct objects from lsn from on, and
// the trailer.
func tailSegment(t *testing.T, epoch, from uint64, n int) []byte {
	t.Helper()
	recs := make([]wal.Update, n)
	for i := range recs {
		lsn := from + uint64(i)
		now := float64(lsn) / 100
		recs[i] = wal.Update{ID: uint32(i), Now: now, Time: now, Expires: now + 120,
			Pos: [3]float64{float64(lsn%997) + 1, float64(lsn%991) + 1}, Vel: [3]float64{1, -1}}
	}
	return encodeTail(t, epoch, from, recs)
}

// encodeTail encodes one tail response holding recs, the first at lsn
// from.
func encodeTail(t testing.TB, epoch, from uint64, recs []wal.Update) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	head := from + uint64(len(recs))
	if err := writeJSONFrame(fw, FrameTailMeta, TailHeader{Epoch: epoch, From: from, Head: head, HeadOff: head * 64}); err != nil {
		t.Fatal(err)
	}
	var payload, body []byte
	for i := range recs {
		lsn := from + uint64(i)
		payload = wal.EncodeUpdate(payload[:0], recs[i])
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

// bodyRecords returns n update records from lsn from on, shaped like
// the ingest bodies of the repository benchmark: each run of 100 starts
// with a report of the probe object 1, the other 99 report objects drawn
// from 2..objects, so one id repeats once per 100 records.
func bodyRecords(rng *rand.Rand, from uint64, n, objects int) []wal.Update {
	recs := make([]wal.Update, n)
	for i := range recs {
		now := float64(from+uint64(i)) / 100
		id := uint32(1)
		if i%100 != 0 {
			id = uint32(2 + rng.Intn(objects-1))
		}
		recs[i] = wal.Update{ID: id, Now: now, Time: now, Expires: now + 120,
			Pos: [3]float64{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel: [3]float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}}
	}
	return recs
}

// durableReplica opens a 4-shard on-commit replica under dir and an
// applier that applies into it from lsn 1 of epoch 1, without a leader.
func durableReplica(t testing.TB, dir string) (*Applier, *rexptree.ShardedTree) {
	t.Helper()
	o := rexptree.DefaultOptions()
	o.Path = filepath.Join(dir, "replica")
	o.Durability = rexptree.DurabilityOnCommit
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: o, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	a, err := NewApplier(ApplierOptions{Leader: "http://leader.invalid", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a.ix, a.base, a.epoch, a.nextLSN = ix, o.Path, 1, 1
	return a, ix
}

// TestApplierTailRepeatedIDOneBatch: a tail segment whose probe object
// repeats once per 100 records applies as one UpdateBatch, same-object
// reports in log order, and leaves the replica equal to a leader that
// applied the records one by one, at the applied clock.
func TestApplierTailRepeatedIDOneBatch(t *testing.T) {
	const n = 300
	recs := bodyRecords(rand.New(rand.NewSource(5)), 1, n, 400)
	leader, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: rexptree.DefaultOptions(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, u := range recs {
		if err := leader.Update(u.ID, rexptree.Point{Time: u.Time, Expires: u.Expires, Pos: u.Pos, Vel: u.Vel}, u.Now); err != nil {
			t.Fatal(err)
		}
	}

	a, replica := durableReplica(t, t.TempDir())
	before := replica.Metrics()
	if err := a.applyTail(bytes.NewReader(encodeTail(t, 1, 1, recs)), 1, 1); err != nil {
		t.Fatal(err)
	}
	d := replica.Metrics().Sub(before)
	if batches := d.Ops[obs.OpBatch].Count; batches != 1 || a.applied.Load() != n || a.AppliedLSN() != n {
		t.Fatalf("%d records applied in %d batches up to lsn %d; want %d in 1 up to %d", a.applied.Load(), batches, a.AppliedLSN(), n, n)
	}
	now := replica.Now()
	if now != leader.Now() {
		t.Fatalf("replica clock %v, leader clock %v", now, leader.Now())
	}
	requireSameFingerprint(t, fingerprint(t, replica, now), fingerprint(t, leader, now), "replica after one batch")
}

// BenchmarkApplierTail applies a 1 000-record tail segment shaped like
// the repository benchmark's ingest bodies (bodyRecords: one repeated id
// per 100 records) to a durable 4-shard replica of 20 000 objects, the
// follower's side of one long poll without the HTTP round trip.  It
// reports ns per record, UpdateBatch calls and replica fsyncs per
// segment.
func BenchmarkApplierTail(b *testing.B) {
	const records, objects = 1000, 20000
	a, replica := durableReplica(b, b.TempDir())
	rng := rand.New(rand.NewSource(9))
	load := make([]rexptree.Report, objects)
	for i := range load {
		load[i] = rexptree.Report{ID: uint32(i + 1), Point: rexptree.Point{Time: 0, Expires: 120,
			Pos: [3]float64{rng.Float64() * 1000, rng.Float64() * 1000}}}
	}
	if err := replica.UpdateBatch(load, 0); err != nil {
		b.Fatal(err)
	}
	before := replica.Metrics()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		from := a.AppliedLSN() + 1
		seg := encodeTail(b, 1, from, bodyRecords(rng, from, records, objects))
		b.StartTimer()
		if err := a.applyTail(bytes.NewReader(seg), from, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := replica.Metrics().Sub(before)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
	b.ReportMetric(float64(d.Ops[obs.OpBatch].Count)/float64(b.N), "batches/op")
	b.ReportMetric(float64(d.WALFsyncs)/float64(b.N), "fsyncs/op")
}

// TestApplierTailAllocs pins what one long poll of a caught-up follower
// allocates on its side: a 100-record tail segment served over HTTP,
// read, applied as one batch, and the cursor saved.  The frame reader
// and its 64 KiB buffer and the batch are the applier's own and are
// reused from poll to poll, so what is left is the HTTP round trip, the
// tree's batch and the cursor file; when each poll built its own
// reader, batch and id set, a poll allocated about 110 KB (313 objects,
// against 290 now).
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
