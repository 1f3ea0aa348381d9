package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rexptree "rexptree"
	"rexptree/internal/core"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

// buildTool compiles this command into a temp dir and returns the
// binary path, so the tests exercise the real CLI surface: flag
// parsing, exit codes and output format.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tool")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// makeIndex builds a small durable index at path and closes it cleanly.
func makeIndex(t *testing.T, path string) {
	t.Helper()
	opts := rexptree.DefaultOptions()
	opts.Path = path
	opts.Durability = rexptree.DurabilityOnCommit
	tr, err := rexptree.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 300; i++ {
		p := rexptree.Point{
			Pos:     rexptree.Vec{float64(i % 37), float64(i % 53)},
			Vel:     rexptree.Vec{1, -1},
			Expires: 1e6,
		}
		if err := tr.Update(i, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

func TestCheckCleanFile(t *testing.T) {
	bin := buildTool(t)
	path := filepath.Join(t.TempDir(), "idx.rexp")
	makeIndex(t, path)
	out, code := run(t, bin, path)
	if code != 0 {
		t.Fatalf("exit %d on a healthy file\n%s", code, out)
	}
	for _, want := range []string{"format v2", "checksums: all pages verified", "invariants: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckFlippedBit(t *testing.T) {
	bin := buildTool(t)
	path := filepath.Join(t.TempDir(), "idx.rexp")
	makeIndex(t, path)

	// Flip one bit in the payload of page 3 (well inside the file).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize, hdr = 4096, 8
	off := int64(pageSize) + 3*int64(pageSize+hdr) + hdr + 1000
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, code := run(t, bin, path)
	if code != 1 {
		t.Fatalf("exit %d on a corrupt file, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "page 3") {
		t.Errorf("corruption report does not name page 3:\n%s", out)
	}
}

func TestCheckUncleanRecoverable(t *testing.T) {
	bin := buildTool(t)
	path := filepath.Join(t.TempDir(), "idx.rexp")
	opts := rexptree.DefaultOptions()
	opts.Path = path
	opts.Durability = rexptree.DurabilityOnCommit
	tr, err := rexptree.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 300; i++ {
		p := rexptree.Point{
			Pos:     rexptree.Vec{float64(i % 37), float64(i % 53)},
			Vel:     rexptree.Vec{1, -1},
			Expires: 1e6,
		}
		if err := tr.Update(i, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: abandon without Close.  The file stays dirty with a
	// non-empty WAL; rexpcheck must call it recoverable, not corrupt.
	tr.Abandon()

	out, code := run(t, bin, path)
	if code != 0 {
		t.Fatalf("exit %d on a recoverable file, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "recoverable") {
		t.Errorf("output does not report recoverability:\n%s", out)
	}
}

// TestCheckUncleanTornFreePage: a page that is free in the checkpointed
// base may be legitimately torn by the crash (mid zero-fill or mid
// free-chain write — the only page-file writes between checkpoints).
// Recovery never reads it and rewrites it before reuse, so rexpcheck
// must call the file recoverable, not corrupt.
func TestCheckUncleanTornFreePage(t *testing.T) {
	bin := buildTool(t)
	path := filepath.Join(t.TempDir(), "idx.rexp")
	opts := rexptree.DefaultOptions()
	opts.Path = path
	opts.Durability = rexptree.DurabilityOnCommit
	// Checkpoint aggressively so the delete-induced frees below land in
	// the checkpointed base (frees are deferred to the next checkpoint).
	opts.CheckpointBytes = 4096
	tr, err := rexptree.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 400; i++ {
		p := rexptree.Point{
			Pos:     rexptree.Vec{float64(i % 37), float64(i % 53)},
			Vel:     rexptree.Vec{1, -1},
			Expires: 1e6,
		}
		if err := tr.Update(i, p, float64(i)*0.001); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(1); i <= 350; i++ {
		if _, err := tr.Delete(i, 0.5+float64(i)*0.001); err != nil {
			t.Fatal(err)
		}
	}
	tr.Abandon()

	// Find a page that is free in the checkpointed base: within the
	// superblock's page count but outside the reachable set.
	fs, err := storage.OpenFileStoreReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.MetaConfig(fs)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := core.Open(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	live, err := ct.LivePages()
	if err != nil {
		t.Fatal(err)
	}
	freeID := -1
	for id := 0; id < fs.PageCount(); id++ {
		if !live[storage.PageID(id)] {
			freeID = id
			break
		}
	}
	fs.Close()
	if freeID < 0 {
		t.Fatal("workload left no free page in the checkpointed base")
	}

	// Tear it: flip a payload byte without touching the stored CRC.
	const pageSize, hdr = 4096, 8
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(pageSize) + int64(freeID)*int64(pageSize+hdr) + hdr + 321
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, code := run(t, bin, path)
	if code != 0 {
		t.Fatalf("exit %d on a recoverable file with a torn free page, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "recoverable") {
		t.Errorf("output does not report recoverability:\n%s", out)
	}
	if !strings.Contains(out, "free pages torn") {
		t.Errorf("output does not mention the torn free page:\n%s", out)
	}

	// The file must indeed recover: reachability excludes the torn page.
	re, err := rexptree.Open(opts)
	if err != nil {
		t.Fatalf("recovery open after torn free page: %v", err)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckUncleanSeveralImageSets: a checkpoint fsyncs its images in
// the log and writes the page file without one, so a crash can leave the
// log with many image sets over a page file that lost the writes of all
// of them.  Here every page an earlier set imaged and the last one did
// not is torn on disk; the merged images must still make the file
// recoverable, to rexpcheck and to the reopen.
func TestCheckUncleanSeveralImageSets(t *testing.T) {
	bin := buildTool(t)
	path := filepath.Join(t.TempDir(), "idx.rexp")
	opts := rexptree.DefaultOptions()
	opts.Path = path
	opts.Durability = rexptree.DurabilityBatched
	opts.BufferPages = 16          // under the index: dirty pages stay resident past it
	opts.CheckpointBytes = 2 << 20 // a checkpoint per 256 KiB of records
	// 8 000 objects in 80 cells of 100, one cell per 100 ids, so a run
	// of updates to one cell dirties a few leaves.
	report := func(id uint32, now float64) rexptree.Report {
		c := id / 100
		return rexptree.Report{ID: id, Point: rexptree.Point{
			Pos:     rexptree.Vec{float64(c%9*110+id*7919%100) + now, float64(c/9*110+id*104729%100) + now},
			Vel:     rexptree.Vec{1, -1},
			Time:    now,
			Expires: 1e6,
		}}
	}
	tr, err := rexptree.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.01
	load := make([]rexptree.Report, 8000)
	for i := range load {
		load[i] = report(uint32(i), now)
	}
	if err := tr.UpdateBatch(load, now); err != nil {
		t.Fatal(err)
	}
	// Reopened, the tree starts from an empty log.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = rexptree.Open(opts); err != nil {
		t.Fatal(err)
	}
	// Each round updates half a cell, twenty rounds a cell, so each
	// image set holds the leaves of about three cells and the log
	// nearly six sets' worth of records: five sets, none of them the
	// one that finds the log at CheckpointBytes.
	for round := 0; round < 380; round++ {
		now += 0.01
		cell := uint32(round / 20 % 80)
		batch := make([]rexptree.Report, 50)
		for i := range batch {
			batch[i] = report(cell*100+uint32(round*50+i)%100, now)
		}
		if err := tr.UpdateBatch(batch, now); err != nil {
			t.Fatal(err)
		}
	}
	tr.Abandon()

	// The pages of every complete image set but the last.
	var sets []map[storage.PageID]bool
	if err := wal.Scan(path+".wal", func(rec wal.Record) error {
		switch rec.Kind {
		case wal.CkptBegin:
			sets = append(sets, map[storage.PageID]bool{})
		case wal.CkptPage:
			sets[len(sets)-1][rec.Page] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sets) < 5 {
		t.Fatalf("the log holds %d image sets; the workload must leave several", len(sets))
	}
	const pageSize, hdr = 4096, 8
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, set := range sets[:len(sets)-1] {
		for id := range set {
			if sets[len(sets)-1][id] {
				continue
			}
			if _, err := f.WriteAt([]byte("lost"), int64(pageSize)+int64(id)*int64(pageSize+hdr)+hdr+321); err != nil {
				t.Fatal(err)
			}
			torn++
		}
	}
	f.Close()
	if torn == 0 {
		t.Fatal("no page is imaged only by an earlier checkpoint")
	}

	out, code := run(t, bin, path)
	if code != 0 || !strings.Contains(out, "recoverable") {
		t.Fatalf("exit %d on a file recoverable from %d image sets, want 0 and a recoverable verdict\n%s", code, len(sets), out)
	}
	re, err := rexptree.Open(opts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSharded(t *testing.T) {
	bin := buildTool(t)
	base := filepath.Join(t.TempDir(), "idx")
	opts := rexptree.ShardedOptions{Options: rexptree.DefaultOptions(), Shards: 3}
	opts.Path = base
	opts.Durability = rexptree.DurabilityBatched
	s, err := rexptree.OpenSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 200; i++ {
		p := rexptree.Point{Pos: rexptree.Vec{float64(i % 31), float64(i % 41)}, Expires: 1e6}
		if err := s.Update(i, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, bin, base)
	if code != 0 {
		t.Fatalf("exit %d on a healthy sharded index\n%s", code, out)
	}
	if !strings.Contains(out, "3 shards") || !strings.Contains(out, "durability batched") {
		t.Errorf("manifest summary missing:\n%s", out)
	}
}

func TestCheckUsageErrors(t *testing.T) {
	bin := buildTool(t)
	if _, code := run(t, bin); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if _, code := run(t, bin, filepath.Join(t.TempDir(), "absent.rexp")); code != 2 {
		t.Fatalf("missing-file exit %d, want 2", code)
	}
}
