package manifest

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestCleanStale exercises the stale-file sweep the reshard engine
// relies on: leftovers of dead generations (page files, ".wal" and
// ".tmp" sidecars, an interrupted-commit manifest) must go, while the
// kept generations' files, the live manifest, the base file itself and
// unrelated names must survive.
func TestCleanStale(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")

	stale := []string{
		"ix.g2.s0", "ix.g2.s1", "ix.g2.s0.wal", "ix.g2.s1.tmp",
		"ix.g3.s0", "ix.g3.s0.wal",
		"ix.manifest.reshard",
	}
	kept := []string{
		"ix",        // the base file of a single-tree source
		"ix.s0",     // generation 0 (kept below)
		"ix.s0.wal", // its WAL sidecar
		"ix.s1",
		"ix.manifest", // the live manifest
		"ix.wal",      // single-tree WAL sidecar
		"ix.g2x.s0",   // malformed generation token
		"ix.snapshot", // unrelated sidecar
		"other.g2.s0", // different index
	}
	for _, n := range append(append([]string{}, stale...), kept...) {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	removed, err := CleanStale(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(removed)
	want := make([]string, len(stale))
	for i, n := range stale {
		want[i] = filepath.Join(dir, n)
	}
	sort.Strings(want)
	if len(removed) != len(want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	for i := range want {
		if removed[i] != want[i] {
			t.Fatalf("removed %v, want %v", removed, want)
		}
	}
	for _, n := range kept {
		if _, err := os.Stat(filepath.Join(dir, n)); err != nil {
			t.Fatalf("kept file %s was removed: %v", n, err)
		}
	}

	// Idempotent: a second sweep finds nothing.
	removed, err = CleanStale(base, 0)
	if err != nil || len(removed) != 0 {
		t.Fatalf("second sweep removed %v (err %v), want nothing", removed, err)
	}

	// Keeping several generations protects each of them.
	for _, n := range []string{"ix.g5.s0", "ix.g6.s0", "ix.g7.s0"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err = CleanStale(base, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Generation 0 is no longer kept: ix.s0, ix.s0.wal and ix.s1 go,
	// along with the unkept ix.g6.s0.
	if len(removed) != 4 {
		t.Fatalf("removed %v, want generation-0 files and ix.g6.s0", removed)
	}
	for _, n := range []string{"ix.g5.s0", "ix.g7.s0"} {
		if _, err := os.Stat(filepath.Join(dir, n)); err != nil {
			t.Fatalf("kept generation file %s was removed: %v", n, err)
		}
	}
}

// TestShardFileGen pins the naming scheme the sweep recognizes.
func TestShardFileGen(t *testing.T) {
	cases := []struct {
		name string
		gen  int
		ok   bool
	}{
		{"ix.s0", 0, true},
		{"ix.s12", 0, true},
		{"ix.s0.wal", 0, true},
		{"ix.s0.tmp", 0, true},
		{"ix.g1.s0", 1, true},
		{"ix.g42.s7.wal", 42, true},
		{"ix.manifest.reshard", -1, true},
		{"ix", 0, false},
		{"ix.manifest", 0, false},
		{"ix.wal", 0, false},
		{"ix.g0.s0", 0, false}, // generation 0 never carries a g prefix
		{"ix.gx.s0", 0, false}, // non-numeric generation
		{"ix.g1.t0", 0, false}, // not a shard token
		{"ix.sx", 0, false},    // non-numeric shard
		{"other.s0", 0, false}, // different prefix
	}
	for _, c := range cases {
		gen, ok := shardFileGen(c.name, "ix")
		if ok != c.ok || (ok && gen != c.gen) {
			t.Errorf("shardFileGen(%q) = (%d, %v), want (%d, %v)", c.name, gen, ok, c.gen, c.ok)
		}
	}
}
