package rexptree

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rexptree/internal/manifest"
)

// movingIndex is the surface shared by Tree and ShardedTree that the
// reshard tests exercise, so any index layout can be fingerprinted and
// compared against the single-tree reference.
type movingIndex interface {
	Update(id uint32, p Point, now float64) error
	UpdateBatch(batch []Report, now float64) error
	Delete(id uint32, now float64) (bool, error)
	Timeslice(r Rect, at, now float64) ([]Result, error)
	Window(r Rect, t1, t2, now float64) ([]Result, error)
	Moving(r1, r2 Rect, t1, t2, now float64) ([]Result, error)
	Nearest(pos Vec, at float64, k int, now float64) ([]Result, error)
	Get(id uint32, now float64) (Point, bool)
	Len() int
}

// indexFingerprint captures an index's observable state: the results
// of a fixed battery of all four query types at several times, point
// lookups over a spread of ids, and the stored-report count.  Two
// indexes holding the same live objects must fingerprint identically
// regardless of shard count, partition policy or file generation.
type indexFingerprint struct {
	queries [][]Result
	points  []Point
	present []bool
	size    int
}

func fingerprintIndex(t *testing.T, ix movingIndex, now float64) indexFingerprint {
	t.Helper()
	var fp indexFingerprint
	run := func(sorted bool) func(rs []Result, err error) {
		return func(rs []Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if sorted {
				// Region queries promise a result *set*; a single Tree
				// reports it in traversal order, a ShardedTree merged by
				// id.  Normalize before comparing.
				sortResults(rs)
			}
			if len(rs) == 0 {
				rs = nil // normalize: empty vs nil is not an observable difference
			}
			fp.queries = append(fp.queries, rs)
		}
	}
	region, nearest := run(true), run(false)
	inner := Rect{Lo: Vec{120, 90}, Hi: Vec{460, 430}}
	mid := Rect{Lo: Vec{310, 260}, Hi: Vec{720, 650}}
	world := Rect{Lo: Vec{-100, -100}, Hi: Vec{1100, 1100}}
	region(ix.Timeslice(inner, now, now))
	region(ix.Timeslice(world, now+12, now))
	region(ix.Window(inner, now+1, now+9, now))
	region(ix.Window(mid, now, now+25, now))
	region(ix.Moving(inner, mid, now+2, now+14, now))
	nearest(ix.Nearest(Vec{500, 500}, now+3, 12, now))
	nearest(ix.Nearest(Vec{80, 910}, now, 5, now))
	for id := uint32(1); id <= 1000; id += 37 {
		p, ok := ix.Get(id, now)
		fp.points = append(fp.points, p)
		fp.present = append(fp.present, ok)
	}
	fp.size = ix.Len()
	return fp
}

func requireSameFingerprint(t *testing.T, got, want indexFingerprint, what string) {
	t.Helper()
	if got.size != want.size {
		t.Fatalf("%s: %d stored reports, reference has %d", what, got.size, want.size)
	}
	for i := range want.queries {
		if !reflect.DeepEqual(got.queries[i], want.queries[i]) {
			t.Fatalf("%s: query %d returned %d results, reference %d:\n got  %v\n want %v",
				what, i, len(got.queries[i]), len(want.queries[i]), got.queries[i], want.queries[i])
		}
	}
	if !reflect.DeepEqual(got.present, want.present) || !reflect.DeepEqual(got.points, want.points) {
		t.Fatalf("%s: point lookups diverge from the reference", what)
	}
}

// copyIndexFiles clones every regular file of srcDir into dstDir, so a
// built fixture can be resharded destructively per subtest.
func copyIndexFiles(t *testing.T, srcDir, dstDir string) {
	t.Helper()
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dstDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// hashDir maps every regular file in dir to its content hash.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

func fileOpts(base string) Options {
	o := DefaultOptions()
	o.Path = base
	return o
}

// updatedReports builds a post-reshard update stream: re-reports of
// existing objects with fresh positions and velocities spanning all
// speed bands (so speed-partitioned targets must re-route), plus a few
// brand-new objects.
func updatedReports(ids int, seed int64, at float64) []Report {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Report, 0, 320)
	for i := 0; i < 300; i++ {
		out = append(out, Report{
			ID: uint32(rng.Intn(ids) + 1),
			Point: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*20 - 10, rng.Float64()*20 - 10},
				Time:    at,
				Expires: at + 100 + rng.Float64()*100,
			},
		})
	}
	for j := 0; j < 20; j++ {
		out = append(out, Report{
			ID: uint32(5000 + j),
			Point: Point{
				Pos:     Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     Vec{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
				Time:    at,
				Expires: at + 150,
			},
		})
	}
	return out
}

// applyStream mutates an index with the shared delete + update stream.
func applyStream(t *testing.T, ix movingIndex, deletes []uint32, updates []Report, now float64) {
	t.Helper()
	for _, id := range deletes {
		if _, err := ix.Delete(id, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.UpdateBatch(updates, now); err != nil {
		t.Fatal(err)
	}
}

// openStopped opens the stopped index at base the way cmd/rexpreshard
// does: with the shard count, partition and durability its manifest
// records and the tree layout shard 0's metadata page records.
func openStopped(base string) (*ShardedTree, error) {
	man, found, err := manifest.Read(manifest.Path(base))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("no manifest at %s", base)
	}
	opts, err := StoredOptions(manifest.ShardPath(base, man.Generation, 0))
	if err != nil {
		return nil, err
	}
	opts.Path = base
	if opts.Durability, err = ParseDurability(man.Durability); err != nil {
		return nil, err
	}
	policy, err := ParsePartitionPolicy(man.Partition)
	if err != nil {
		return nil, err
	}
	return OpenSharded(ShardedOptions{Options: opts, Shards: man.Shards, Partition: policy})
}

// reshardStopped is cmd/rexpreshard's sequence on the stopped index at
// base: open it, run the live engine with no writers, close it.
func reshardStopped(base string, spec ReshardSpec) error {
	ix, err := openStopped(base)
	if err != nil {
		return err
	}
	if err := ix.Reshard(spec); err != nil {
		ix.Close()
		return err
	}
	return ix.Close()
}

// requireNoStaleFiles fails if anything but generation gen's files and
// the manifest is left of the index at base.
func requireNoStaleFiles(t *testing.T, base string, gen int) {
	t.Helper()
	if removed, err := manifest.CleanStale(base, gen); err != nil || len(removed) != 0 {
		t.Fatalf("stale files survived the reshard: %v (err %v)", removed, err)
	}
}

// TestReshardMatrix drives the K → K′ matrix on stopped file-backed
// indexes: hash sources with K ∈ {1, 2, 4} resharded to hash targets
// with K′ ∈ {1, 2, 3, 4, 8}, the policy transitions (hash → speed with
// fixed bands, self-tuned speed → hash), and a source with static
// bounding rectangles, which opens only through the layout its metadata
// page records (and reshards to speed bands derived from its live
// speeds).  After every reshard the index must answer all four query
// types element-wise identically to the single-tree reference — both
// immediately and after a further update stream that re-reports,
// inserts and deletes objects (crossing speed bands, so speed targets
// re-route).
func TestReshardMatrix(t *testing.T) {
	deletes := []uint32{5, 11, 50, 500, 797}
	const now2 = 5.0

	type sourceCase struct {
		name    string
		opts    ShardedOptions
		static  bool // static bounding rectangles instead of the default near-optimal ones
		reports []Report
		updates []Report
	}
	sources := []sourceCase{
		{"hash-1", ShardedOptions{Shards: 1}, false, testWorkload(800, 11), updatedReports(800, 101, now2)},
		{"hash-2", ShardedOptions{Shards: 2}, false, testWorkload(800, 12), updatedReports(800, 102, now2)},
		{"hash-4", ShardedOptions{Shards: 4}, false, testWorkload(800, 13), updatedReports(800, 103, now2)},
		{"speed-auto-4", ShardedOptions{Shards: 4, Partition: PartitionSpeed, TuneAfter: 300}, false,
			mixedSpeedWorkload(800, 7, 0), mixedSpeedWorkload(300, 7, 1)},
		{"static-2", ShardedOptions{Shards: 2}, true, testWorkload(800, 14), updatedReports(800, 104, now2)},
	}

	type targetCase struct {
		shards int
		policy PartitionPolicy
		bands  []float64
	}
	allBands := []float64{0.5, 2, 8, 15, 30, 50, 100}
	targetsFor := func(src string) []targetCase {
		var out []targetCase
		switch src {
		case "speed-auto-4":
			for _, k := range []int{1, 2, 4} {
				out = append(out, targetCase{k, PartitionHash, nil})
			}
		case "static-2":
			out = append(out, targetCase{3, PartitionHash, nil}, targetCase{2, PartitionSpeed, nil})
		default:
			for _, k := range []int{1, 2, 3, 4, 8} {
				out = append(out, targetCase{k, PartitionHash, nil})
			}
			if src == "hash-4" {
				for _, k := range []int{1, 2, 3, 4, 8} {
					out = append(out, targetCase{k, PartitionSpeed, allBands[:k-1]})
				}
			}
		}
		return out
	}

	for _, src := range sources {
		src := src
		t.Run(src.name, func(t *testing.T) {
			// Single-tree reference: the ground truth before and after
			// the update stream.
			single, err := Open(DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			if err := single.UpdateBatch(src.reports, 0); err != nil {
				t.Fatal(err)
			}
			base0 := fingerprintIndex(t, single, 0)
			applyStream(t, single, deletes, src.updates, now2)
			base1 := fingerprintIndex(t, single, now2)

			// File-backed source fixture, built once and cloned per target.
			srcDir := t.TempDir()
			so := src.opts
			so.Options = fileOpts(filepath.Join(srcDir, "idx"))
			if src.static {
				so.Bounding = Static
			}
			st, err := OpenSharded(so)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.UpdateBatch(src.reports, 0); err != nil {
				t.Fatal(err)
			}
			requireSameFingerprint(t, fingerprintIndex(t, st, 0), base0, "source fixture")
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			for _, tg := range targetsFor(src.name) {
				tg := tg
				t.Run(fmt.Sprintf("to-%s-%d", tg.policy, tg.shards), func(t *testing.T) {
					dir := t.TempDir()
					copyIndexFiles(t, srcDir, dir)
					base := filepath.Join(dir, "idx")

					if err := reshardStopped(base, ReshardSpec{Shards: tg.shards, Policy: tg.policy, SpeedBands: tg.bands}); err != nil {
						t.Fatal(err)
					}
					requireNoStaleFiles(t, base, 1)

					ro := ShardedOptions{Options: fileOpts(base), Shards: tg.shards, Partition: tg.policy}
					if src.static {
						ro.Bounding = Static
					}
					ix, err := OpenSharded(ro)
					if err != nil {
						t.Fatal(err)
					}
					if ix.Generation() != 1 {
						t.Fatalf("reopened generation %d, want 1", ix.Generation())
					}
					if tg.policy == PartitionSpeed && len(ix.SpeedBands()) != tg.shards-1 {
						t.Fatalf("speed bands %v for %d shards", ix.SpeedBands(), tg.shards)
					}
					requireSameFingerprint(t, fingerprintIndex(t, ix, 0), base0, "resharded")

					applyStream(t, ix, deletes, src.updates, now2)
					requireSameFingerprint(t, fingerprintIndex(t, ix, now2), base1, "resharded+updates")
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}

					// The post-reshard updates must persist across a reopen.
					ix2, err := OpenSharded(ro)
					if err != nil {
						t.Fatal(err)
					}
					requireSameFingerprint(t, fingerprintIndex(t, ix2, now2), base1, "resharded+updates reopened")
					if err := ix2.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestReshardRoundTrip is the acceptance scenario: a stopped K=4 hash
// index is resharded to K′=2 speed shards with bands derived from its
// live speeds, then back to K=4 hash, with all query types answering
// identically throughout.  The index clock sits past many report
// expirations, so the reshard must also drop expired entries without
// changing any query answer.
func TestReshardRoundTrip(t *testing.T) {
	reports := testWorkload(700, 23)
	tick := Report{ID: 9001, Point: Point{
		Pos: Vec{500, 500}, Vel: Vec{0, 0}, Time: 100, Expires: NoExpiry(),
	}}

	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	// Advance the clock to 100: testWorkload expirations span 60..180,
	// so a large fraction of the reports is now expired.
	if err := single.Update(tick.ID, tick.Point, 100); err != nil {
		t.Fatal(err)
	}
	base := fingerprintIndex(t, single, 100)

	dir := t.TempDir()
	basePath := filepath.Join(dir, "idx")
	st, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(tick.ID, tick.Point, 100); err != nil {
		t.Fatal(err)
	}
	var live []float64
	err = st.ForEach(100, func(r Result) bool {
		if r.Point.Expires >= 100 {
			live = append(live, manifest.Speed(r.Point.Vel, 2))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	stored := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) == stored {
		t.Fatalf("no entries expired at clock 100; the fixture should have many")
	}

	if err := reshardStopped(basePath, ReshardSpec{Shards: 2, Policy: PartitionSpeed}); err != nil {
		t.Fatal(err)
	}
	man, _, err := manifest.Read(manifest.Path(basePath))
	if err != nil {
		t.Fatal(err)
	}
	if want := manifest.QuantileBands(live, 2); !man.AutoTuned || !reflect.DeepEqual(man.SpeedBands, want) {
		t.Fatalf("manifest bands %v (auto-tuned %v), want the live speeds' quantiles %v", man.SpeedBands, man.AutoTuned, want)
	}
	sp, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 2, Partition: PartitionSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Generation() != 1 {
		t.Fatalf("generation %d, want 1", sp.Generation())
	}
	if sp.Len() != len(live) {
		t.Fatalf("%d stored reports after the reshard, want the %d live ones", sp.Len(), len(live))
	}
	requireSameFingerprint(t, fingerprintIndex(t, sp, 100), base, "hash-4 -> speed-2")
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	if err := reshardStopped(basePath, ReshardSpec{Shards: 4, Policy: PartitionHash}); err != nil {
		t.Fatal(err)
	}
	hs, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Generation() != 2 {
		t.Fatalf("generation %d, want 2", hs.Generation())
	}
	requireSameFingerprint(t, fingerprintIndex(t, hs, 100), base, "speed-2 -> hash-4")
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoStaleFiles(t, basePath, 2)
}

// TestReshardSingleTreeSource adopts a manifest-less single tree file
// as a one-shard index — link the file to shard 0's name, write a
// one-shard hash manifest, remove the original name — and reshards it.
// Every intermediate state must open as a valid index answering like
// the original, and afterwards only the new generation and the
// manifest are left.
func TestReshardSingleTreeSource(t *testing.T) {
	reports := testWorkload(500, 31)
	objs := make([]BulkObject, len(reports))
	for i, r := range reports {
		objs[i] = BulkObject{ID: r.ID, Point: r.Point}
	}

	dir := t.TempDir()
	basePath := filepath.Join(dir, "idx")
	tr, err := OpenBulk(fileOpts(basePath), objs, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprintIndex(t, tr, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	requireOpens := func(what string, sharded bool) {
		t.Helper()
		var ix interface {
			movingIndex
			Close() error
		}
		if sharded {
			ix, err = OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 1})
		} else {
			ix, err = Open(fileOpts(basePath))
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireSameFingerprint(t, fingerprintIndex(t, ix, 0), base, what)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if err := os.Link(basePath, manifest.ShardPath(basePath, 0, 0)); err != nil {
		t.Fatal(err)
	}
	requireOpens("linked", false)
	one := manifest.Manifest{Version: manifest.Version, Shards: 1, Hash: manifest.Hash, Partition: "hash"}
	if err := manifest.Write(manifest.Path(basePath), one); err != nil {
		t.Fatal(err)
	}
	requireOpens("manifest written", true)
	if err := os.Remove(basePath); err != nil {
		t.Fatal(err)
	}
	requireOpens("adopted", true)

	if err := reshardStopped(basePath, ReshardSpec{Shards: 3, Policy: PartitionHash}); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameFingerprint(t, fingerprintIndex(t, ix, 0), base, "single -> hash-3")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	var left []string
	for name := range hashDir(t, dir) {
		left = append(left, name)
	}
	sort.Strings(left)
	if want := []string{"idx.g1.s0", "idx.g1.s1", "idx.g1.s2", "idx.manifest"}; !reflect.DeepEqual(left, want) {
		t.Fatalf("files left %v, want %v", left, want)
	}
}

// TestReshardCrashInjection kills a reshard of a stopped index at every
// hook point of the live engine — at the end of the scan ("mid-scan"),
// at the end of the backfill that loads the new generation ("mid-load",
// the dual-apply hook), before the verify, before the manifest rename
// and after it — and then abandons the index, as a crashed process
// would.  The engine has one rename, the manifest's: the new generation
// is built under its final file names.  The "pre-manifest-rename" row
// crashes inside that rename's atomic write, the new manifest staged
// but never renamed over the live one.  Before the commit point the
// source must reopen answering identically, a non-durable source's
// files byte-for-byte untouched; after it the new generation must.
// Either way rerunning the same reshard succeeds and leaves no stale
// file.  The durable row crashes a source whose acknowledged reports
// still sit in its write-ahead logs, and must lose none of them.
func TestReshardCrashInjection(t *testing.T) {
	reports := testWorkload(500, 47)
	single, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	base := fingerprintIndex(t, single, 0)

	srcDir := t.TempDir()
	st, err := OpenSharded(ShardedOptions{Options: fileOpts(filepath.Join(srcDir, "idx")), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	durDir := t.TempDir()
	buildAbandonedDurable(t, filepath.Join(durDir, "idx"), reports)

	errBoom := errors.New("boom")
	cases := []struct {
		name, point string
		durable     bool
		// staged leaves the new generation's manifest written as
		// "<manifest>.tmp" but never renamed over the live one: the
		// crash inside the manifest's own atomic write, the commit
		// point itself.
		staged bool
	}{
		{"mid-scan", "scan", false, false},
		{"mid-load", "dual-apply", false, false},
		{"verify", "verify", false, false},
		{"pre-rename", "pre-rename", false, false},
		{"pre-manifest-rename", "pre-rename", false, true},
		{"post-rename", "post-rename", false, false},
		{"durable", "pre-rename", true, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.durable {
				copyIndexFiles(t, durDir, dir)
			} else {
				copyIndexFiles(t, srcDir, dir)
			}
			basePath := filepath.Join(dir, "idx")
			before := hashDir(t, dir)

			ix, err := openStopped(basePath)
			if err != nil {
				t.Fatal(err)
			}
			manPath := manifest.Path(basePath)
			ix.testReshardHook = func(pt string) error {
				if pt != c.point {
					return nil
				}
				if c.staged {
					man, found, err := manifest.Read(manPath)
					if err != nil || !found {
						return fmt.Errorf("source manifest: found %v, err %v", found, err)
					}
					man.Shards, man.Partition, man.Generation = 3, PartitionHash.String(), 1
					if err := manifest.Write(manPath+".tmp", man); err != nil {
						return err
					}
				}
				return errBoom
			}
			if err := ix.Reshard(ReshardSpec{Shards: 3, Policy: PartitionHash}); !errors.Is(err, errBoom) {
				t.Fatalf("reshard error %v, want the injected crash", err)
			}
			ix.Abandon()

			committed := c.point == "post-rename"
			if !committed && !c.durable {
				// Everything the original index references is untouched;
				// a crash may only leave extra (unreferenced) files behind.
				after := hashDir(t, dir)
				for name, h := range before {
					if after[name] != h {
						t.Fatalf("crash at %s modified original file %s", c.point, name)
					}
				}
			}
			if _, err := os.Stat(manPath + ".tmp"); c.staged != (err == nil) {
				t.Fatalf("staged manifest present %v, want %v", err == nil, c.staged)
			}

			gen := 0
			if committed {
				gen = 1
			}
			re, err := openStopped(basePath)
			if err != nil {
				t.Fatalf("index does not reopen after the crash: %v", err)
			}
			if re.Generation() != gen {
				t.Fatalf("generation %d after the crash, want %d", re.Generation(), gen)
			}
			requireSameFingerprint(t, fingerprintIndex(t, re, 0), base, "index after the crash")
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}

			// Retry: the identical invocation, no faults, must succeed
			// and sweep whatever the crashed attempt left behind.
			if err := reshardStopped(basePath, ReshardSpec{Shards: 3, Policy: PartitionHash}); err != nil {
				t.Fatalf("retry after a crash at %s failed: %v", c.point, err)
			}
			ix2, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			if ix2.Generation() != gen+1 {
				t.Fatalf("retry committed generation %d, want %d", ix2.Generation(), gen+1)
			}
			requireSameFingerprint(t, fingerprintIndex(t, ix2, 0), base, "retry result")
			if err := ix2.Close(); err != nil {
				t.Fatal(err)
			}
			requireNoStaleFiles(t, basePath, gen+1)
			if _, err := os.Stat(manPath + ".tmp"); err == nil {
				t.Fatal("staged manifest survived the retry")
			}
		})
	}
}

// buildAbandonedDurable builds a 2-shard DurabilityOnCommit index at
// base, acknowledges reports in small batches and abandons it, as a
// crashed process would: the reports are only in the write-ahead logs.
func buildAbandonedDurable(t *testing.T, base string, reports []Report) {
	t.Helper()
	so := ShardedOptions{Options: fileOpts(base), Shards: 2}
	so.Durability = DurabilityOnCommit
	st, err := OpenSharded(so)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(reports); i += 100 {
		if err := st.UpdateBatch(reports[i:min(i+100, len(reports))], 0); err != nil {
			t.Fatal(err)
		}
	}
	st.Abandon()
}

// TestReshardKeepsWALReports reshards a crashed durable index: every
// report it acknowledged lives only in its write-ahead logs, which the
// reshard must replay, not discard.
func TestReshardKeepsWALReports(t *testing.T) {
	reports := testWorkload(800, 53)
	ref, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.UpdateBatch(reports, 0); err != nil {
		t.Fatal(err)
	}
	want := fingerprintIndex(t, ref, 0)

	base := filepath.Join(t.TempDir(), "idx")
	buildAbandonedDurable(t, base, reports)
	if err := reshardStopped(base, ReshardSpec{Shards: 3, Policy: PartitionHash}); err != nil {
		t.Fatal(err)
	}
	ro := ShardedOptions{Options: fileOpts(base), Shards: 3}
	ro.Durability = DurabilityOnCommit
	ix, err := OpenSharded(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Len() != len(reports) {
		t.Fatalf("%d of %d acknowledged reports survived the reshard", ix.Len(), len(reports))
	}
	requireSameFingerprint(t, fingerprintIndex(t, ix, 0), want, "resharded durable index")
}

// TestReshardBadOptions checks that invalid reshards of a stopped index
// fail before anything is built, and that opening and closing the index
// around the refusal leaves its files byte-for-byte as they were.
func TestReshardBadOptions(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "idx")
	st, err := OpenSharded(ShardedOptions{Options: fileOpts(basePath), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateBatch(testWorkload(200, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := hashDir(t, dir)

	for _, spec := range []ReshardSpec{
		{Shards: -1, Policy: PartitionHash},
		{Shards: 2, Policy: PartitionPolicy(9)},
		{Shards: 2, Policy: PartitionHash, SpeedBands: []float64{1}},
		{Shards: 3, Policy: PartitionSpeed, SpeedBands: []float64{2, 1}},
		{Shards: 2, Policy: PartitionSpeed, SpeedBands: []float64{1, 2}},
		{Shards: 2, Policy: PartitionSpeed, SpeedBands: []float64{-1}},
	} {
		if err := reshardStopped(basePath, spec); err == nil {
			t.Errorf("%+v: accepted", spec)
		}
	}
	after := hashDir(t, dir)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("a rejected reshard modified the index directory:\n before %v\n after  %v", before, after)
	}
}
