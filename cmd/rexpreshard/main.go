// Command rexpreshard reshards a stopped file-backed index from K
// shards to K′ — and, in the same pass, between partition policies or
// speed bands.  It is a thin front end to the library's live-reshard
// engine run with no writers: it opens the index as its manifest and
// shard 0's metadata page describe it (a durable index replays its
// write-ahead log first), calls ShardedTree.Reshard, and closes it.
// The engine builds the new generation beside the old one, verifies it
// against the old one object for object, and commits with one atomic
// manifest rename.  A crash before that rename leaves the original
// index reopening as it was; rerunning the same command retries.
//
// The source may be a sharded index ("<path>.manifest" plus shard page
// files) or a single tree file at <path> (no manifest), which is first
// adopted as a one-shard hash index.
//
// Usage:
//
//	rexpreshard -path idx -shards 2 -partition speed
//	rexpreshard -path idx -shards 4 -partition hash -json
//	rexpreshard -path idx -shards 3 -partition speed -bands 0.5,2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"rexptree"
	"rexptree/internal/manifest"
)

func parseBands(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	bands := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad speed band %q: %v", p, err)
		}
		bands[i] = v
	}
	return bands, nil
}

// result is what a committed reshard reports.
type result struct {
	Source     manifest.Manifest      // the source as opened (after any adoption)
	Status     rexptree.ReshardStatus // the final engine status
	SpeedBands []float64              // the new generation's bands, nil under hash
	Derived    bool                   // no bands were given: the engine derived them
	Backfilled uint64                 // live records copied into the new generation
	Clock      float64                // the index clock the records were copied at
}

// adoptSingleTree turns the manifest-less tree file at path into a
// one-shard index in three steps, each of which leaves a valid index
// behind: the file (and its write-ahead log, if any) is hard-linked to
// shard 0's name, a one-shard hash manifest is written beside it, and
// the original name is removed.
func adoptSingleTree(path string) (manifest.Manifest, error) {
	if _, err := os.Stat(path); err != nil {
		return manifest.Manifest{}, fmt.Errorf("no index at %s: %w", path, err)
	}
	man := manifest.Manifest{Version: manifest.Version, Shards: 1, Hash: manifest.Hash, Partition: "hash", Durability: "none"}
	shard0 := manifest.ShardPath(path, 0, 0)
	links := []string{path}
	if _, err := os.Stat(rexptree.WALPath(path)); err == nil {
		links = append(links, rexptree.WALPath(path))
		man.Durability = rexptree.DurabilityOnCommit.String()
	}
	for _, from := range links {
		to := shard0 + strings.TrimPrefix(from, path)
		// A leftover of an interrupted adoption is this file's own link.
		if err := os.Remove(to); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return man, err
		}
		if err := os.Link(from, to); err != nil {
			return man, err
		}
	}
	if err := manifest.Write(manifest.Path(path), man); err != nil {
		return man, err
	}
	return man, dropAdoptedNames(path)
}

// dropAdoptedNames removes the original names of an adopted single
// tree — each one still linked to its shard-0 twin — which is the last
// step of an adoption, and a retry's cleanup of an adoption interrupted
// just before it.
func dropAdoptedNames(path string) error {
	shard0 := manifest.ShardPath(path, 0, 0)
	for _, p := range []string{path, rexptree.WALPath(path)} {
		a, aerr := os.Stat(p)
		b, berr := os.Stat(shard0 + strings.TrimPrefix(p, path))
		if aerr == nil && berr == nil && os.SameFile(a, b) {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// reshardIndex runs the whole reshard of the stopped index at path.
func reshardIndex(path string, spec rexptree.ReshardSpec, logf func(string, ...any)) (*result, error) {
	// Refuse a target that cannot become a manifest before touching
	// anything.
	probe := manifest.Manifest{Version: manifest.Version, Shards: spec.Shards, Hash: manifest.Hash,
		Partition: spec.Policy.String(), SpeedBands: spec.SpeedBands}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	man, found, err := manifest.Read(manifest.Path(path))
	if err != nil {
		return nil, err
	}
	if !found {
		if man, err = adoptSingleTree(path); err != nil {
			return nil, err
		}
		logf("adopted the single tree at %s as a one-shard index", path)
	} else if err := dropAdoptedNames(path); err != nil {
		return nil, err
	}

	opts, err := rexptree.StoredOptions(manifest.ShardPath(path, man.Generation, 0))
	if err != nil {
		return nil, err
	}
	opts.Path = path
	if opts.Durability, err = rexptree.ParseDurability(man.Durability); err != nil {
		return nil, err
	}
	man.Durability = opts.Durability.String()
	policy, err := rexptree.ParsePartitionPolicy(man.Partition)
	if err != nil {
		return nil, err
	}
	ix, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: man.Shards, Partition: policy})
	if err != nil {
		return nil, err
	}
	if n := ix.Metrics().RecoveryReplayed; n > 0 {
		logf("recovered the index: replayed %d write-ahead log record(s)", n)
	}
	res := &result{Source: man, Clock: ix.Now(), Derived: len(spec.SpeedBands) == 0}
	logf("resharding %d %s shard(s) at generation %d to %d %s shard(s)",
		man.Shards, man.Partition, man.Generation, spec.Shards, spec.Policy)
	if err := ix.Reshard(spec); err != nil {
		ix.Close()
		return nil, err
	}
	res.Status = ix.ReshardStatus()
	res.SpeedBands = ix.SpeedBands()
	res.Backfilled = ix.Metrics().ReshardBackfilled
	if err := ix.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

func main() {
	var (
		path      = flag.String("path", "", "index base path (its manifest is at <path>.manifest)")
		shards    = flag.Int("shards", 0, "target shard count K'")
		partition = flag.String("partition", "hash", "target partition policy: hash or speed")
		bandsFlag = flag.String("bands", "", "comma-separated speed-band boundaries (speed policy; empty = quantiles of the live speeds)")
		asJSON    = flag.Bool("json", false, "print the final reshard status and bands as JSON instead of the report")
		quiet     = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()

	if *path == "" || *shards < 1 {
		fmt.Fprintln(os.Stderr, "rexpreshard: -path and -shards (>= 1) are required")
		flag.Usage()
		os.Exit(1)
	}
	bands, err := parseBands(*bandsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpreshard:", err)
		os.Exit(1)
	}
	policy, err := rexptree.ParsePartitionPolicy(*partition)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpreshard:", err)
		os.Exit(1)
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "rexpreshard: "+format+"\n", args...)
		}
	}
	res, err := reshardIndex(*path, rexptree.ReshardSpec{Shards: *shards, Policy: policy, SpeedBands: bands}, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rexpreshard:", err)
		os.Exit(1)
	}

	if *asJSON {
		out, err := json.MarshalIndent(struct {
			Status     rexptree.ReshardStatus `json:"status"`
			SpeedBands []float64              `json:"speed_bands,omitempty"`
		}{res.Status, res.SpeedBands}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "rexpreshard:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
		return
	}
	src := res.Source
	fmt.Printf("source        : %d shard(s), %s (generation %d, durability %s)\n", src.Shards, src.Partition, src.Generation, src.Durability)
	fmt.Printf("target        : %d shard(s), %s (generation %d)\n", res.Status.Shards, res.Status.Policy, res.Status.Generation)
	fmt.Printf("backfilled    : %d live record(s) at clock %.3f\n", res.Backfilled, res.Clock)
	switch {
	case res.Status.Policy != "speed":
	case len(res.SpeedBands) == 0:
		fmt.Println("speed bands   : none yet (an empty index self-tunes)")
	case res.Derived:
		fmt.Printf("speed bands   : %v (quantiles of the live speeds)\n", res.SpeedBands)
	default:
		fmt.Printf("speed bands   : %v (given)\n", res.SpeedBands)
	}
	fmt.Println("committed     : ok")
}
