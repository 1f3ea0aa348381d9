// Package manifest defines the sidecar file ("<path>.manifest") that
// describes how a file-backed sharded rexptree index is partitioned,
// the naming scheme of its shard files (ShardPath, CleanStale), and the
// routing primitives (id hash, speed bands) of the library front-end
// (shard.go / partition.go).  One package owns all three, so every tool
// that reads an index (rexpreshard, rexpcheck) names and routes exactly
// as the library does.
package manifest

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Hash names the id→shard hash scheme recorded in every manifest; a
// future scheme change cannot silently scramble a stored partition.
const Hash = "murmur3-fmix32"

// Version is the manifest format written by this code.  Version 1 had
// no generation field (shard files always at "<path>.s<i>"); version 2
// adds Generation so a reshard can build a complete replacement index
// under fresh names and commit it with one atomic manifest rename.
// Both versions are accepted on read.
const Version = 2

// Manifest is the JSON sidecar describing a sharded index: how many
// shards, how objects are routed to them, and which generation of
// shard page files is current.
type Manifest struct {
	Version    int       `json:"version"`
	Shards     int       `json:"shards"`
	Hash       string    `json:"hash"`
	Partition  string    `json:"partition"`
	SpeedBands []float64 `json:"speed_bands,omitempty"`
	AutoTuned  bool      `json:"auto_tuned,omitempty"`

	// Durability records the crash-safety policy the index was last
	// opened with ("none", "on-commit", "batched"; empty in manifests
	// predating the field).  It is informational — tooling reports it,
	// and a reopen may choose a different policy — but it tells an
	// operator (and rexpcheck) whether the shard files are expected to
	// carry write-ahead logs.
	Durability string `json:"durability,omitempty"`

	// Generation numbers the current set of shard page files; see
	// ShardPath.  Generation 0 is the legacy layout.
	Generation int `json:"generation,omitempty"`
}

// Validate checks the manifest's internal consistency: known version
// and hash scheme, a positive shard count, a recognized partition
// policy, ascending non-negative speed bands sized to the shard count,
// and a non-negative generation.
func (m Manifest) Validate() error {
	if m.Version < 1 || m.Version > Version {
		return fmt.Errorf("manifest: unsupported version %d", m.Version)
	}
	if m.Shards < 1 {
		return fmt.Errorf("manifest: invalid shard count %d", m.Shards)
	}
	if m.Hash != Hash {
		return fmt.Errorf("manifest: unknown hash scheme %q", m.Hash)
	}
	switch m.Partition {
	case "hash", "speed":
	default:
		return fmt.Errorf("manifest: unknown partition policy %q", m.Partition)
	}
	if m.Partition == "hash" && len(m.SpeedBands) > 0 {
		return fmt.Errorf("manifest: speed bands recorded for hash partitioning")
	}
	if len(m.SpeedBands) > 0 {
		if err := ValidateBands(m.SpeedBands, m.Shards); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}
	if m.Generation < 0 {
		return fmt.Errorf("manifest: invalid generation %d", m.Generation)
	}
	switch m.Durability {
	case "", "none", "on-commit", "batched":
	default:
		return fmt.Errorf("manifest: unknown durability policy %q", m.Durability)
	}
	return nil
}

// Decode parses and validates a manifest from its JSON encoding.
func Decode(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("manifest: parsing: %w", err)
	}
	if len(m.SpeedBands) == 0 {
		// Normalize "speed_bands": [] to the omitted form so every
		// decoded manifest re-encodes to identical bytes.
		m.SpeedBands = nil
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Encode renders the manifest as indented JSON with a trailing
// newline, the exact byte form written by Write.
func (m Manifest) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Read loads and validates the manifest at path; found is false when
// no manifest file exists.
func Read(path string) (m Manifest, found bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("manifest: reading %s: %w", path, err)
	}
	m, err = Decode(data)
	if err != nil {
		return Manifest{}, false, fmt.Errorf("manifest: %s: %w", path, err)
	}
	return m, true, nil
}

// Write stores the manifest atomically: the encoding is written to
// "<path>.tmp" and renamed over path, so a reader never observes a
// torn manifest.
func Write(path string, m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := m.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("manifest: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("manifest: writing %s: %w", path, err)
	}
	return nil
}

// Path returns the manifest sidecar path for an index at base.
func Path(base string) string { return base + ".manifest" }

// ShardPath returns the page-file path of shard i in generation gen of
// the index at base.  Generation 0 is the legacy layout ("<base>.s<i>");
// later generations are "<base>.g<gen>.s<i>", so a reshard can lay a
// complete replacement down next to the live files and switch over with
// a single manifest rename.
func ShardPath(base string, gen, i int) string {
	if gen == 0 {
		return fmt.Sprintf("%s.s%d", base, i)
	}
	return fmt.Sprintf("%s.g%d.s%d", base, gen, i)
}

// CleanStale removes the shard files of every generation of the index
// at base except the kept ones: page files ("<base>.s<i>" for
// generation 0, "<base>.g<g>.s<i>" for later generations), their
// ".wal" and ".tmp" sidecars, and a leftover "<base>.manifest.reshard"
// from an interrupted commit of an older release.  It never touches
// base itself, the live manifest, or files that do not match the shard
// naming scheme.  The reshard engine runs it so an aborted attempt at
// any generation cannot leave files a later attempt would silently
// reopen.
func CleanStale(base string, keepGens ...int) (removed []string, err error) {
	dir, prefix := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	keep := make(map[int]bool, len(keepGens))
	for _, g := range keepGens {
		keep[g] = true
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		gen, ok := shardFileGen(name, prefix)
		if !ok || keep[gen] {
			continue
		}
		p := filepath.Join(dir, name)
		if rmErr := os.Remove(p); rmErr != nil {
			if firstErr == nil {
				firstErr = rmErr
			}
			continue
		}
		removed = append(removed, p)
	}
	return removed, firstErr
}

// shardFileGen decides whether name is a shard file (or sidecar) of
// the index whose base file name is prefix, and of which generation.
// Recognized forms, each optionally suffixed ".wal" or ".tmp":
//
//	<prefix>.s<i>        — generation 0
//	<prefix>.g<g>.s<i>   — generation g
//
// plus the interrupted-commit manifest "<prefix>.manifest.reshard"
// (reported as generation -1, which callers never keep).
func shardFileGen(name, prefix string) (gen int, ok bool) {
	rest, found := strings.CutPrefix(name, prefix+".")
	if !found {
		return 0, false
	}
	if rest == "manifest.reshard" {
		return -1, true
	}
	rest = strings.TrimSuffix(strings.TrimSuffix(rest, ".tmp"), ".wal")
	gen = 0
	if g, found := strings.CutPrefix(rest, "g"); found {
		dot := strings.IndexByte(g, '.')
		if dot < 1 {
			return 0, false
		}
		n, err := strconv.Atoi(g[:dot])
		if err != nil || n < 1 {
			return 0, false
		}
		gen, rest = n, g[dot+1:]
	}
	i, found := strings.CutPrefix(rest, "s")
	if !found {
		return 0, false
	}
	if n, err := strconv.Atoi(i); err != nil || n < 0 {
		return 0, false
	}
	return gen, true
}

// ShardIndex hashes an object id onto one of n shards.  The id is
// mixed first (the murmur3 finalizer, the scheme named by Hash) so
// that dense or strided id spaces still spread evenly.
func ShardIndex(id uint32, n int) int {
	h := id
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return int(h % uint32(n))
}

// Speed is an object's |velocity| over the first dims components.
func Speed(vel [3]float64, dims int) float64 {
	var s float64
	for i := 0; i < dims; i++ {
		s += vel[i] * vel[i]
	}
	return math.Sqrt(s)
}

// SpeedBandOf maps a speed onto its band: band i covers
// [bands[i-1], bands[i]).
func SpeedBandOf(bands []float64, sp float64) int {
	return sort.Search(len(bands), func(i int) bool { return bands[i] > sp })
}

// ValidateBands is the one rule for the speed bands of a shards-way
// speed partition, whoever supplies them (open options, a reshard spec
// or a manifest): exactly shards-1 finite, non-negative,
// non-descending values.  Equal neighbors are allowed (an empty band):
// self-tuned quantile boundaries coincide on degenerate speed
// distributions.  A NaN would fail every comparison, so SpeedBandOf
// could never route an object into the band below it.
func ValidateBands(bands []float64, shards int) error {
	if len(bands) != shards-1 {
		return fmt.Errorf("%d speed bands for %d shards, want %d", len(bands), shards, shards-1)
	}
	for i, b := range bands {
		if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 || (i > 0 && b < bands[i-1]) {
			return fmt.Errorf("speed bands must be finite, non-negative and non-descending, got %v", bands)
		}
	}
	return nil
}

// QuantileBands picks n-1 band boundaries at the i/n quantiles of the
// observed speeds, splitting the distribution evenly across n bands.
// The samples slice is not modified.  It panics if samples is empty or
// n < 2 — callers route everything to band 0 when n == 1.
func QuantileBands(samples []float64, n int) []float64 {
	if n < 2 {
		panic("manifest: QuantileBands needs n >= 2")
	}
	if len(samples) == 0 {
		panic("manifest: QuantileBands needs samples")
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	bands := make([]float64, n-1)
	for i := 1; i < n; i++ {
		bands[i-1] = sorted[len(sorted)*i/n]
	}
	return bands
}
