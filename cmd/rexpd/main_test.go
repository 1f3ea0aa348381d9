package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rexptree"
)

// buildCmd compiles one of this module's commands into dir.
func buildCmd(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// daemon is a spawned rexpd under test.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
	done chan struct{} // stderr scanner finished (process exited)
	mu   sync.Mutex
	log  []string
}

// startDaemon launches rexpd on a kernel-chosen port and waits for its
// serving line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start rexpd: %v", err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "rexpd: serving http://"); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					select {
					case addrc <- rest[:i]:
					default:
					}
				}
			}
		}
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		d.cmd.Wait()
	})
	select {
	case d.addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatalf("rexpd did not report a serving address; log:\n%s", strings.Join(d.logLines(), "\n"))
	}
	return d
}

func (d *daemon) logLines() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.log...)
}

// terminate SIGTERMs the daemon and waits for a clean exit, returning
// the full stderr log.
func (d *daemon) terminate() []string {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		d.t.Fatal("rexpd did not exit within a minute of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		d.t.Fatalf("rexpd exit: %v; log:\n%s", err, strings.Join(d.logLines(), "\n"))
	}
	return d.logLines()
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: bad JSON %v: %s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// TestServeSmoke is the README quickstart, end to end: generate a
// workload with rexpgen -ndjson, serve an index with rexpd, post the
// workload to /v1/batch, query it over HTTP, scrape /metrics, and shut
// the daemon down cleanly.  `make serve-smoke` runs exactly this test.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	rexpd := buildCmd(t, dir, "rexptree/cmd/rexpd")
	rexpgen := buildCmd(t, dir, "rexptree/cmd/rexpgen")

	// 1. Generate a small paper workload as batch lines, and count the
	// inserts and deletes of the same stream in its text form.
	wl := filepath.Join(dir, "workload.ndjson")
	if out, err := exec.Command(rexpgen, "-scale", "0.002", "-ndjson", "-o", wl).CombinedOutput(); err != nil {
		t.Fatalf("rexpgen -ndjson: %v\n%s", err, out)
	}
	text, err := exec.Command(rexpgen, "-scale", "0.002").Output()
	if err != nil {
		t.Fatalf("rexpgen: %v", err)
	}
	var wantInserts, wantDeletes int
	for _, line := range strings.Split(string(text), "\n") {
		switch {
		case strings.HasPrefix(line, "I "):
			wantInserts++
		case strings.HasPrefix(line, "D "):
			wantDeletes++
		}
	}

	// 2. Serve an index.
	d := startDaemon(t, rexpd, "-shards", "2")

	// 3. Ingest the workload in one streamed body: it applies in order,
	// every line of it.
	f, err := os.Open(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resp, err := http.Post(d.url("/v1/batch"), "application/x-ndjson", f)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var ack struct {
		Applied int `json:"applied"`
		Deleted int `json:"deleted"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatalf("batch ack: %v: %s", err, raw)
	}
	if ack.Applied != wantInserts || ack.Deleted != wantDeletes || wantInserts == 0 {
		t.Fatalf("batch applied %d and deleted %d, the stream has %d inserts and %d deletes",
			ack.Applied, ack.Deleted, wantInserts, wantDeletes)
	}

	// 4. The index answers over HTTP.
	var stats struct {
		Objects int     `json:"objects"`
		Shards  int     `json:"shards"`
		Clock   float64 `json:"clock"`
	}
	if code := getJSON(t, d.url("/v1/stats"), &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	// Every insert either holds its object or was superseded by a later
	// report or a delete of it.
	if stats.Objects == 0 || stats.Objects > ack.Applied || stats.Shards != 2 || stats.Clock == 0 {
		t.Fatalf("stats after applying %d inserts: %+v", ack.Applied, stats)
	}
	var q struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, d.url("/v1/timeslice?lo=0,0&hi=1000,1000&at=%2B1"), &q); code != http.StatusOK {
		t.Fatalf("timeslice: %d", code)
	}
	if q.Count != stats.Objects {
		t.Fatalf("whole-space timeslice found %d of %d objects", q.Count, stats.Objects)
	}

	// 5. The metrics endpoint scrapes.
	resp, err = http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"rexp_op_duration_seconds", "rexp_go_goroutines"} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics is missing %s", family)
		}
	}

	// 6. Clean shutdown on SIGTERM.
	log := d.terminate()
	if !strings.Contains(strings.Join(log, "\n"), "clean shutdown") {
		t.Fatalf("no clean shutdown line; log:\n%s", strings.Join(log, "\n"))
	}
}

// TestRestartServesStoredClock restarts a durable daemon on its index
// files: the restarted daemon must serve at the index's stored clock,
// both in /v1/stats and as the default now of a "+0" query.
func TestRestartServesStoredClock(t *testing.T) {
	dir := t.TempDir()
	rexpd := buildCmd(t, dir, "rexptree/cmd/rexpd")
	args := []string{"-path", filepath.Join(dir, "idx"), "-shards", "2", "-durability", "on-commit"}

	d := startDaemon(t, rexpd, args...)
	var body strings.Builder
	for id := 1; id <= 20; id++ {
		fmt.Fprintf(&body, `{"id":%d,"pos":[%d,%d],"vel":[1,0],"time":100}`+"\n", id, 10*id, 500)
	}
	resp, err := http.Post(d.url("/v1/batch"), "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	d.terminate()

	d = startDaemon(t, rexpd, args...)
	var stats struct {
		Objects int     `json:"objects"`
		Clock   float64 `json:"clock"`
	}
	if code := getJSON(t, d.url("/v1/stats"), &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Objects != 20 || stats.Clock != 100 {
		t.Fatalf("restarted daemon: %+v, want 20 objects at clock 100", stats)
	}
	var q struct {
		Now   float64 `json:"now"`
		Count int     `json:"count"`
	}
	if code := getJSON(t, d.url("/v1/timeslice?lo=0,0&hi=1000,1000&at=%2B0"), &q); code != http.StatusOK {
		t.Fatalf("timeslice: %d", code)
	}
	if q.Now != 100 || q.Count != 20 {
		t.Fatalf("restarted daemon answered a +0 timeslice at now %v with %d objects, want 100 and 20", q.Now, q.Count)
	}
	d.terminate()
}

// TestDrainNoAckedLossAcrossProcess sends concurrent updates to an
// on-commit durable daemon, SIGTERMs it mid-stream, and verifies every
// update acknowledged with 200 before the drain is present when the
// index is reopened — the serving layer's durability contract at the
// process level.
func TestDrainNoAckedLossAcrossProcess(t *testing.T) {
	dir := t.TempDir()
	rexpd := buildCmd(t, dir, "rexptree/cmd/rexpd")
	base := filepath.Join(dir, "idx")
	d := startDaemon(t, rexpd, "-path", base, "-shards", "2", "-durability", "on-commit")

	// Writers stream single-record updates, recording each acked id.
	var (
		mu    sync.Mutex
		acked []uint32
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint32(w*100000 + i + 1)
				body := fmt.Sprintf(`{"id":%d,"pos":[%d,%d],"time":%d}`, id, w, i%1000, i)
				resp, err := http.Post(d.url("/v1/update"), "application/json", strings.NewReader(body))
				if err != nil {
					return // daemon gone mid-request: nothing acked
				}
				code := resp.StatusCode
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if code == http.StatusOK {
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				} else if code == http.StatusServiceUnavailable {
					return // draining
				}
			}
		}(w)
	}

	// Let acks accumulate, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 200 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	log := d.terminate()
	close(stop)
	wg.Wait()
	if !strings.Contains(strings.Join(log, "\n"), "clean shutdown") {
		t.Fatalf("no clean shutdown; log:\n%s", strings.Join(log, "\n"))
	}

	mu.Lock()
	ids := append([]uint32(nil), acked...)
	mu.Unlock()
	if len(ids) == 0 {
		t.Fatal("no updates were acknowledged before the drain")
	}

	// Reopen the index the daemon closed and verify every ack survived.
	opts := rexptree.DefaultOptions()
	opts.Path = base
	opts.Durability = rexptree.DurabilityOnCommit
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ix.Close()
	now := 1e9 // far future next-query time; reports never expire
	missing := 0
	for _, id := range ids {
		if _, ok := ix.Get(id, now); !ok {
			missing++
			if missing <= 5 {
				t.Errorf("acked update %d missing after reopen", id)
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged updates lost across SIGTERM", missing, len(ids))
	}
	t.Logf("all %d acknowledged updates survived the drain", len(ids))
}
