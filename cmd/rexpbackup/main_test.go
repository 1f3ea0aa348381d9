package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rexptree"
	"rexptree/internal/manifest"
	"rexptree/internal/repl"
)

// buildTool compiles the command at pkg into a temp dir and returns the
// binary path, so the tests drive the real CLI: flags, exit code and
// the files it leaves.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tool")
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

const objects = 300

// newLeader opens a durable 2-shard index, gives it updates, deletes
// and reports that expire before its final clock, and serves its
// backup stream over HTTP.
func newLeader(t *testing.T) (*rexptree.ShardedTree, *repl.Hub, *httptest.Server) {
	t.Helper()
	opts := rexptree.DefaultOptions()
	opts.Path = filepath.Join(t.TempDir(), "leader")
	opts.Durability = rexptree.DurabilityOnCommit
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hub := repl.NewHub(ix, 0)
	srv := httptest.NewServer(hub.BackupHandler())
	t.Cleanup(func() {
		srv.Close()
		hub.Close()
		ix.Close()
	})

	rng := rand.New(rand.NewSource(3))
	now := 0.0
	for i := 0; i < 4*objects; i++ {
		now += 0.01
		id := uint32(rng.Intn(objects) + 1)
		if i%9 == 0 {
			if _, err := ix.Delete(id, now); err != nil {
				t.Fatal(err)
			}
			continue
		}
		p := rexptree.Point{
			Pos:     rexptree.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
			Vel:     rexptree.Vec{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
			Time:    now,
			Expires: now + 2 + rng.Float64()*60,
		}
		if err := ix.Update(id, p, now); err != nil {
			t.Fatal(err)
		}
	}
	return ix, hub, srv
}

// TestBackupRestoresLeader backs up a live leader, has rexpcheck verify
// the output, and opens it as an index that answers like the leader at
// the backup's clock: every object's point lookup and a whole-world
// timeslice, element by element.
func TestBackupRestoresLeader(t *testing.T) {
	backup, check := buildTool(t, "."), buildTool(t, "rexptree/cmd/rexpcheck")
	leader, _, srv := newLeader(t)

	out := filepath.Join(t.TempDir(), "idx")
	if msg, err := exec.Command(backup, "-leader", srv.URL+"/", "-out", out).CombinedOutput(); err != nil {
		t.Fatalf("rexpbackup: %v\n%s", err, msg)
	}
	if msg, err := exec.Command(check, out).CombinedOutput(); err != nil {
		t.Fatalf("rexpcheck on the backup: %v\n%s", err, msg)
	}

	opts := rexptree.DefaultOptions()
	opts.Path = out
	opts.Durability = rexptree.DurabilityOnCommit
	restored, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	now := restored.Now()
	if now != leader.Now() {
		t.Fatalf("backup clock %v, leader clock %v", now, leader.Now())
	}
	if got, want := restored.Len(), leader.Len(); got != want {
		t.Fatalf("backup stores %d objects, leader %d", got, want)
	}
	for id := uint32(1); id <= objects; id++ {
		gp, gok := restored.Get(id, now)
		wp, wok := leader.Get(id, now)
		if gok != wok || gp != wp {
			t.Fatalf("object %d: backup has (%v, %v), leader (%v, %v)", id, gp, gok, wp, wok)
		}
	}
	world := rexptree.Rect{Lo: rexptree.Vec{-1000, -1000}, Hi: rexptree.Vec{2000, 2000}}
	timeslice := func(ix *rexptree.ShardedTree) []rexptree.Result {
		rs, err := ix.Timeslice(world, now+1, now)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(rs, func(a, b rexptree.Result) int { return int(a.ID) - int(b.ID) })
		return rs
	}
	got, want := timeslice(restored), timeslice(leader)
	if len(want) == 0 {
		t.Fatal("test premise: the leader answers an empty timeslice")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timeslice: backup answers %d objects, leader %d", len(got), len(want))
	}
}

// TestBackupCutStreamLeavesNothing serves a backup stream cut short,
// once mid-way and once just before its terminator: rexpbackup must
// exit non-zero and leave neither a manifest nor any partial file.
func TestBackupCutStreamLeavesNothing(t *testing.T) {
	backup := buildTool(t, ".")
	_, hub, _ := newLeader(t)

	rec := httptest.NewRecorder()
	hub.BackupHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/backup", nil))
	stream := rec.Body.Bytes()
	if _, err := repl.WriteBackup(filepath.Join(t.TempDir(), "whole"), bytes.NewReader(stream)); err != nil {
		t.Fatalf("test premise: the uncut stream does not restore: %v", err)
	}

	for _, cut := range []int{len(stream) / 2, len(stream) - 1} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(stream[:cut])
		}))
		dir := t.TempDir()
		out := filepath.Join(dir, "idx")
		msg, err := exec.Command(backup, "-leader", srv.URL, "-out", out).CombinedOutput()
		srv.Close()
		if _, failed := err.(*exec.ExitError); !failed {
			t.Fatalf("cut at %d of %d bytes: rexpbackup did not exit non-zero (%v)\n%s", cut, len(stream), err, msg)
		}
		if !bytes.Contains(msg, []byte("rexpbackup:")) {
			t.Errorf("cut at %d: no error reported\n%s", cut, msg)
		}
		if _, err := os.Stat(manifest.Path(out)); !os.IsNotExist(err) {
			t.Fatalf("cut at %d: a manifest exists at the output (%v)", cut, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("cut at %d: partial output left behind: %v", cut, left)
		}
	}
}
