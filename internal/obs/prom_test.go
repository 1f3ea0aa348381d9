package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the exposition golden file")

// goldenSnapshot is a fixed registry state exercising every series:
// non-zero counters, gauges (including a float), an op with errors and
// latencies in several buckets, and untouched ops.
func goldenSnapshot() Snapshot {
	m := New()
	m.BufReads.Add(120)
	m.BufWrites.Add(40)
	m.BufHits.Add(3000)
	m.BufEvictions.Add(17)
	m.BufDirtyWritebacks.Add(9)
	m.FaultTrips.Add(2)
	m.ChooseSubtree.Add(450)
	m.NodeVisits.Add(900)
	m.LeafScans.Add(15000)
	m.Splits.Add(11)
	m.ForcedReinserts.Add(6)
	m.Condenses.Add(4)
	m.OrphansReinserted.Add(310)
	m.ExpiredPurged.Add(77)
	m.SubtreesFreed.Add(3)
	m.Height.Set(3)
	m.Pages.Set(128)
	m.LeafEntries.Set(9000)
	m.BufResident.Set(50)
	m.BufPoolPages.Set(200)
	m.UI.Set(42.5)
	m.Horizon.Set(63.75)
	m.BatchedUpdates.Add(640)
	m.ShardVisits.Add(520)
	m.Rerouted.Add(33)
	m.SpeedBandLo.Set(0.5)
	m.SpeedBandHi.Set(2)
	m.WALAppends.Add(5000)
	m.WALBytes.Add(320000)
	m.WALFsyncs.Add(48)
	m.Checkpoints.Add(7)
	m.RecoveryReplayed.Add(130)
	m.RecoveryDroppedExpired.Add(21)
	m.ChecksumFailures.Add(1)
	m.RecoveryDuration.Observe(4 * time.Millisecond)
	m.LockWaitRead.Observe(900 * time.Nanosecond)
	m.LockWaitRead.Observe(12 * time.Microsecond)
	m.LockWaitWrite.Observe(400 * time.Microsecond)
	m.ObservePhase(PhaseIORead, 150*time.Microsecond)
	m.ObservePhase(PhaseIOWrite, 220*time.Microsecond)
	m.ObservePhase(PhaseWALAppend, 9*time.Microsecond)
	m.ObservePhase(PhaseWALFsync, 1500*time.Microsecond)
	m.ObservePhase(PhaseCheckpoint, 8*time.Millisecond)
	m.ObservePhase(PhaseMerge, 40*time.Microsecond)
	m.ObserveOp(OpUpdate, 800*time.Nanosecond, nil)
	m.ObserveOp(OpUpdate, 30*time.Microsecond, nil)
	m.ObserveOp(OpUpdate, 2*time.Millisecond, nil)
	m.ObserveOp(OpWindow, 70*time.Microsecond, nil)
	m.ObserveOp(OpNearest, 3*time.Second, errFixed) // overflow bucket + error
	m.ObserveOp(OpBatch, 5*time.Millisecond, nil)
	return m.Snapshot()
}

var errFixed = errorString("fixed")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestWriteSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden file (run with -update after intended changes)\ngot:\n%s", buf.String())
	}
}

// sampleRe matches one Prometheus text-format sample line.
var sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9].*$`)

func TestWriteSnapshotParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	help := map[string]bool{}
	typ := map[string]bool{}
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)[0]
			typ[name] = true
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
			}
			samples++
		}
	}
	// Every scalar family plus the two labelled families is announced.
	for _, name := range []string{
		"rexp_buffer_reads_total", "rexp_buffer_evictions_total",
		"rexp_buffer_dirty_writebacks_total", "rexp_split_total",
		"rexp_forced_reinsert_total", "rexp_condense_total",
		"rexp_expired_purged_total", "rexp_ui_estimate",
		"rexp_batched_updates_total", "rexp_lock_wait_seconds",
		"rexp_op_errors_total", "rexp_op_duration_seconds",
		"rexp_query_shard_visits_total",
		"rexp_partition_rerouted_total", "rexp_buffer_pool_pages",
		"rexp_speed_band_lo", "rexp_speed_band_hi",
		"rexp_reshard_runs_total", "rexp_reshard_backfilled_total",
		"rexp_phase_duration_seconds",
	} {
		if !help[name] || !typ[name] {
			t.Errorf("family %s missing HELP or TYPE", name)
		}
	}
	if samples == 0 {
		t.Fatal("no samples written")
	}
}

// TestHistogramExposition checks the Prometheus histogram contract:
// bucket counts are cumulative, the +Inf bucket equals _count, and the
// number of buckets matches the registry's bounds.
func TestHistogramExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	bucketRe := regexp.MustCompile(`^rexp_op_duration_seconds_bucket\{op="update",le="([^"]+)"\} ([0-9]+)$`)
	countRe := regexp.MustCompile(`^rexp_op_duration_seconds_count\{op="update"\} ([0-9]+)$`)
	var cum []uint64
	var last string
	count := uint64(0)
	for _, line := range strings.Split(buf.String(), "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseUint(m[2], 10, 64)
			cum = append(cum, v)
			last = m[1]
		} else if m := countRe.FindStringSubmatch(line); m != nil {
			count, _ = strconv.ParseUint(m[1], 10, 64)
		}
	}
	if len(cum) != NumBuckets {
		t.Fatalf("update histogram has %d buckets, want %d", len(cum), NumBuckets)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, cum)
		}
	}
	if last != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", last)
	}
	if cum[len(cum)-1] != count || count != 3 {
		t.Errorf("+Inf bucket = %d, _count = %d, want both 3", cum[len(cum)-1], count)
	}
}

func TestHandler(t *testing.T) {
	calls := 0
	h := Handler(func() Snapshot {
		calls++
		return goldenSnapshot()
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rexp_split_total 11") {
		t.Error("served body missing rexp_split_total sample")
	}
	if calls != 1 {
		t.Errorf("snapshot func called %d times, want 1 per request", calls)
	}
}
