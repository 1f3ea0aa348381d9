package rexptree

import (
	"fmt"
	"sync"

	"rexptree/internal/manifest"
)

// PartitionPolicy selects how a ShardedTree assigns objects to shards.
type PartitionPolicy int

const (
	// PartitionHash routes each object by a hash of its id (the
	// default).  Routing is stateless, and every shard sees the full
	// mix of slow and fast objects.
	PartitionHash PartitionPolicy = iota

	// PartitionSpeed routes each object by its speed |velocity|: shard
	// i holds the objects of the i-th speed band, slowest first.  Slow
	// objects then share trees whose time-parameterized bounds grow
	// slowly, so each shard's bounding rectangles stay tighter and the
	// same queries visit fewer nodes than under PartitionHash.  An
	// object whose speed crosses a band boundary is re-routed to its
	// new shard on its next update.
	PartitionSpeed
)

// String returns the policy's name as stored in the shard manifest.
func (p PartitionPolicy) String() string {
	switch p {
	case PartitionHash:
		return "hash"
	case PartitionSpeed:
		return "speed"
	}
	return fmt.Sprintf("partition(%d)", int(p))
}

// ParsePartitionPolicy converts a policy name ("hash" or "speed") back
// to the policy, for flag and manifest parsing.
func ParsePartitionPolicy(s string) (PartitionPolicy, error) {
	switch s {
	case "hash":
		return PartitionHash, nil
	case "speed":
		return PartitionSpeed, nil
	}
	return 0, fmt.Errorf("rexptree: unknown partition policy %q", s)
}

// partitioner maps objects to shards.  route picks the target shard
// for a new report; locate returns the shard currently holding the
// object (ok=false when it is not tracked); note and forget maintain
// the object→shard table of stateful policies.
type partitioner interface {
	policy() PartitionPolicy
	route(id uint32, p Point) int
	locate(id uint32) (int, bool)
	note(id uint32, shard int)
	forget(id uint32)
}

// hashPartitioner is the stateless id-hash policy.  locate is exact
// (the hash is the location), so note and forget are no-ops.
type hashPartitioner struct{ n int }

func (h hashPartitioner) policy() PartitionPolicy      { return PartitionHash }
func (h hashPartitioner) route(id uint32, _ Point) int { return manifest.ShardIndex(id, h.n) }
func (h hashPartitioner) locate(id uint32) (int, bool) { return manifest.ShardIndex(id, h.n), true }
func (h hashPartitioner) note(uint32, int)             {}
func (h hashPartitioner) forget(uint32)                {}

// speedPartitioner routes by |velocity| band.  With fixed bands the
// boundaries come from ShardedOptions.SpeedBands; in self-tuned mode
// (no bands given) it hash-routes while collecting the first tuneAfter
// observed speeds, then picks quantile boundaries so the bands split
// the observed distribution evenly.  Objects placed during warmup (or
// whose speed later crosses a boundary) migrate lazily: the sharded
// front-end re-routes them on their next update.
type speedPartitioner struct {
	n         int
	dims      int
	tuneAfter int
	onTune    func(bands []float64) // called with mu held; must not call back

	mu      sync.RWMutex
	bands   []float64 // ascending boundaries; nil until tuned in auto mode
	tuned   bool      // bands were self-tuned (vs configured)
	samples []float64 // speeds observed while untuned
	loc     map[uint32]int
}

func newSpeedPartitioner(n, dims, tuneAfter int, bands []float64, onTune func([]float64)) *speedPartitioner {
	return &speedPartitioner{
		n:         n,
		dims:      dims,
		tuneAfter: tuneAfter,
		onTune:    onTune,
		bands:     bands,
		loc:       make(map[uint32]int),
	}
}

func (p *speedPartitioner) policy() PartitionPolicy { return PartitionSpeed }

func (p *speedPartitioner) route(id uint32, pt Point) int {
	if p.n < 2 {
		// One shard, one band: nothing to tune or look up (and
		// QuantileBands cannot split a distribution into one band).
		return 0
	}
	sp := manifest.Speed(pt.Vel, p.dims)
	p.mu.RLock()
	bands := p.bands
	p.mu.RUnlock()
	if bands == nil {
		p.mu.Lock()
		if p.bands == nil {
			p.samples = append(p.samples, sp)
			if len(p.samples) >= p.tuneAfter {
				p.tuneLocked()
			}
		}
		bands = p.bands
		p.mu.Unlock()
		if bands == nil {
			// Warmup: hash-route so the shards stay balanced until
			// the speed distribution is known.
			return manifest.ShardIndex(id, p.n)
		}
	}
	return manifest.SpeedBandOf(bands, sp)
}

// tuneLocked picks the band boundaries at the i/n quantiles of the
// observed speeds.  Caller holds p.mu.
func (p *speedPartitioner) tuneLocked() {
	p.bands = manifest.QuantileBands(p.samples, p.n)
	p.tuned = true
	p.samples = nil
	if p.onTune != nil {
		p.onTune(p.bands)
	}
}

// Bands returns a copy of the current boundaries (nil while untuned)
// and whether they were self-tuned.
func (p *speedPartitioner) Bands() ([]float64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]float64(nil), p.bands...), p.tuned
}

func (p *speedPartitioner) locate(id uint32) (int, bool) {
	p.mu.RLock()
	i, ok := p.loc[id]
	p.mu.RUnlock()
	return i, ok
}

func (p *speedPartitioner) note(id uint32, shard int) {
	p.mu.Lock()
	p.loc[id] = shard
	p.mu.Unlock()
}

func (p *speedPartitioner) forget(id uint32) {
	p.mu.Lock()
	delete(p.loc, id)
	p.mu.Unlock()
}

// bandLabel describes shard i's speed band for traces ("[lo, hi)"),
// or "" under hash partitioning or while self-tuning is still
// sampling.
func (s *ShardedTree) bandLabel(g *generation, i int) string {
	sp, ok := g.part.(*speedPartitioner)
	if !ok {
		return ""
	}
	bands, _ := sp.Bands()
	if len(bands) == 0 {
		return ""
	}
	lo := "0"
	if i > 0 && i-1 < len(bands) {
		lo = fmt.Sprintf("%.3g", bands[i-1])
	}
	hi := "inf"
	if i < len(bands) {
		hi = fmt.Sprintf("%.3g", bands[i])
	}
	return fmt.Sprintf("[%s, %s)", lo, hi)
}

// The shard manifest itself — the sidecar file ("<Path>.manifest")
// describing how a file-backed sharded index is partitioned — lives in
// internal/manifest, shared with the tools that read an index
// (cmd/rexpreshard, cmd/rexpcheck) so that they and the library agree.
