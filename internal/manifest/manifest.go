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
	"sync"
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
		if len(m.SpeedBands) != m.Shards-1 {
			return fmt.Errorf("manifest: %d speed bands for %d shards, want %d", len(m.SpeedBands), m.Shards, m.Shards-1)
		}
		for i, b := range m.SpeedBands {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				return fmt.Errorf("manifest: speed band %d is not finite", i)
			}
			// Equal neighbors are tolerated (an empty band): self-tuned
			// quantile boundaries can coincide on degenerate speed
			// distributions, and the tree persists its own tuned bands.
			if b < 0 || (i > 0 && b < m.SpeedBands[i-1]) {
				return fmt.Errorf("manifest: speed bands must be non-negative and non-descending, got %v", m.SpeedBands)
			}
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

// SpeedWindow is a fixed-capacity sliding window over observed object
// speeds: once full, each observation evicts the oldest.  The sharded
// front-end feeds it from the update paths and the drift detector
// re-derives quantile bands from its snapshot, so the bands chase the
// recent speed distribution instead of the one seen at first tune.
// Safe for concurrent use.
type SpeedWindow struct {
	mu   sync.Mutex
	buf  []float64
	n    int // filled slots
	next int // ring cursor
}

// NewSpeedWindow returns a window holding the most recent capacity
// observations (minimum 2: QuantileBands needs at least one sample and
// a band split is meaningless below two).
func NewSpeedWindow(capacity int) *SpeedWindow {
	if capacity < 2 {
		capacity = 2
	}
	return &SpeedWindow{buf: make([]float64, capacity)}
}

// Observe records one speed, evicting the oldest when full.
func (w *SpeedWindow) Observe(sp float64) {
	if math.IsNaN(sp) || math.IsInf(sp, 0) {
		return
	}
	w.mu.Lock()
	w.buf[w.next] = sp
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Len reports how many observations the window currently holds.
func (w *SpeedWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Full reports whether the window has reached capacity — the drift
// detector waits for a full window before trusting its quantiles.
func (w *SpeedWindow) Full() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n == len(w.buf)
}

// Snapshot copies out the current observations (unordered); nil when
// empty.
func (w *SpeedWindow) Snapshot() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return nil
	}
	return append([]float64(nil), w.buf[:w.n]...)
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
