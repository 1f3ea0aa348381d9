package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rexptree"
	"rexptree/internal/manifest"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tool")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// fixtureReports returns n reports at time 0 that expire at 100.
func fixtureReports(n int) []rexptree.Report {
	rng := rand.New(rand.NewSource(5))
	batch := make([]rexptree.Report, n)
	for i := range batch {
		batch[i] = rexptree.Report{
			ID: uint32(i + 1),
			Point: rexptree.Point{
				Pos:     rexptree.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     rexptree.Vec{rng.Float64()*10 - 5, rng.Float64()*10 - 5},
				Time:    0,
				Expires: 100,
			},
		}
	}
	return batch
}

// buildFixture creates a small 2-shard hash index on disk and returns
// its base path and object count.
func buildFixture(t *testing.T) (string, int) {
	t.Helper()
	base := filepath.Join(t.TempDir(), "idx")
	opts := rexptree.DefaultOptions()
	opts.Path = base
	st, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	if err := st.UpdateBatch(fixtureReports(n), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return base, n
}

func TestSmokeJSON(t *testing.T) {
	bin := buildTool(t)
	base, n := buildFixture(t)

	out, err := exec.Command(bin, "-path", base, "-shards", "3", "-partition", "speed", "-quiet", "-json").Output()
	if err != nil {
		t.Fatalf("rexpreshard failed: %v", err)
	}
	var res struct {
		Status     rexptree.ReshardStatus `json:"status"`
		SpeedBands []float64              `json:"speed_bands"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("output is not the result JSON: %v\n%s", err, out)
	}
	if st := res.Status; st.InFlight || st.Phase != "idle" || st.LastError != "" ||
		st.Generation != 1 || st.Shards != 3 || st.Policy != "speed" || len(res.SpeedBands) != 2 {
		t.Fatalf("implausible result: %s", out)
	}
	man, _, err := manifest.Read(manifest.Path(base))
	if err != nil {
		t.Fatal(err)
	}
	if !man.AutoTuned || !reflect.DeepEqual(man.SpeedBands, res.SpeedBands) {
		t.Fatalf("manifest records bands %v (auto-tuned %v), the tool reported %v", man.SpeedBands, man.AutoTuned, res.SpeedBands)
	}

	// The committed index must reopen under the new layout with every
	// object still present.
	opts := rexptree.DefaultOptions()
	opts.Path = base
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{
		Options: opts, Shards: 3, Partition: rexptree.PartitionSpeed,
	})
	if err != nil {
		t.Fatalf("resharded index does not reopen: %v", err)
	}
	defer ix.Close()
	if ix.Len() != n || ix.Generation() != 1 {
		t.Fatalf("reopened index has %d objects at generation %d, want %d at 1", ix.Len(), ix.Generation(), n)
	}
}

// TestDurableSource reshards a crashed durable index: the tool must
// recover it, so every report it acknowledged — all of them only in
// its write-ahead logs — is in the new generation.
func TestDurableSource(t *testing.T) {
	bin := buildTool(t)
	base := filepath.Join(t.TempDir(), "idx")
	opts := rexptree.DefaultOptions()
	opts.Path = base
	opts.Durability = rexptree.DurabilityOnCommit
	st, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reports := fixtureReports(300)
	for i := 0; i < len(reports); i += 50 {
		if err := st.UpdateBatch(reports[i:i+50], 0); err != nil {
			t.Fatal(err)
		}
	}
	st.Abandon()

	out, err := exec.Command(bin, "-path", base, "-shards", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("rexpreshard failed: %v\n%s", err, out)
	}
	for _, want := range []string{"recovered the index", "durability on-commit", "backfilled    : 300 live record(s)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, r := range reports {
		if _, ok := ix.Get(r.ID, 0); !ok {
			t.Fatalf("acknowledged report %d lost by the reshard", r.ID)
		}
	}
}

// TestSingleTreeSource reshards a manifest-less single tree file: the
// tool adopts it as a one-shard index first, and afterwards only the
// new generation and the manifest are left.  A crashed durable tree
// brings its write-ahead log into the adoption and loses no report;
// an adoption interrupted after its manifest was written is finished
// by the rerun.
func TestSingleTreeSource(t *testing.T) {
	bin := buildTool(t)
	for _, c := range []string{"clean", "durable-crashed", "interrupted"} {
		t.Run(c, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "idx")
			opts := rexptree.DefaultOptions()
			opts.Path = base
			if c == "durable-crashed" {
				opts.Durability = rexptree.DurabilityOnCommit
			}
			tr, err := rexptree.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			reports := fixtureReports(200)
			if err := tr.UpdateBatch(reports, 0); err != nil {
				t.Fatal(err)
			}
			if c == "durable-crashed" {
				tr.Abandon()
			} else if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if c == "interrupted" {
				// The adoption's first two steps; the original name is
				// still there.
				if err := os.Link(base, manifest.ShardPath(base, 0, 0)); err != nil {
					t.Fatal(err)
				}
				one := manifest.Manifest{Version: manifest.Version, Shards: 1, Hash: manifest.Hash, Partition: "hash"}
				if err := manifest.Write(manifest.Path(base), one); err != nil {
					t.Fatal(err)
				}
			}

			if out, err := exec.Command(bin, "-path", base, "-shards", "2", "-quiet").CombinedOutput(); err != nil {
				t.Fatalf("rexpreshard failed: %v\n%s", err, out)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var left []string
			for _, e := range ents {
				left = append(left, e.Name())
			}
			want := []string{"idx.g1.s0", "idx.g1.s1", "idx.manifest"}
			if c == "durable-crashed" {
				want = []string{"idx.g1.s0", "idx.g1.s0.wal", "idx.g1.s1", "idx.g1.s1.wal", "idx.manifest"}
			}
			if !reflect.DeepEqual(left, want) {
				t.Fatalf("files left %v, want %v", left, want)
			}
			ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if ix.Len() != len(reports) {
				t.Fatalf("%d objects after the reshard, want %d", ix.Len(), len(reports))
			}
		})
	}
}

func TestSmokeReport(t *testing.T) {
	bin := buildTool(t)
	base, _ := buildFixture(t)

	out, err := exec.Command(bin, "-path", base, "-shards", "4", "-quiet").CombinedOutput()
	if err != nil {
		t.Fatalf("rexpreshard failed: %v\n%s", err, out)
	}
	for _, want := range []string{"source        : 2 shard(s)", "target        : 4 shard(s), hash (generation 1)", "committed     : ok"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeMissingArgs(t *testing.T) {
	bin := buildTool(t)
	err := exec.Command(bin, "-shards", "2").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected exit error, got %v", err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit code %d, want 1", ee.ExitCode())
	}
}

func TestSmokeBadIndex(t *testing.T) {
	bin := buildTool(t)
	err := exec.Command(bin, "-path", filepath.Join(t.TempDir(), "nope"), "-shards", "2", "-quiet").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected exit error, got %v", err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit code %d, want 1", ee.ExitCode())
	}
}
