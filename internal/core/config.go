// Package core implements the unified tree engine behind the
// R^exp-tree and the TPR-tree: an R*-tree over disk pages whose
// entries are augmented with velocity vectors and expiration times.
//
// The engine is configured by Config.  With ExpireAware unset and
// conservative bounding rectangles it is exactly the TPR-tree of
// Šaltenis et al. (SIGMOD 2000); with ExpireAware set it becomes the
// R^exp-tree of the reproduced paper, adding:
//
//   - expiration times in leaf entries (and optionally in internal
//     entries), exploited both by queries and by the bounding-rectangle
//     computations of package hull;
//   - lazy removal of expired entries folded into the insertion and
//     deletion algorithms (CondenseTree / PropagateUp, paper §4.3);
//   - self-tuning of the time horizon H = UI + W from the observed
//     update rate (paper §4.2.3).
package core

import (
	"fmt"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/obs"
)

// Config selects the variant of the tree engine.
type Config struct {
	// Dims is the dimensionality of the indexed space (1..3; the
	// paper's experiments use 2).
	Dims int

	// BRKind selects how bounding rectangles of internal entries are
	// computed.  The TPR-tree uses KindConservative; the R^exp-tree
	// performs best with KindNearOptimal (paper §5.3).
	BRKind hull.Kind

	// ExpireAware enables the R^exp-tree behaviour: queries disregard
	// expired entries and updates lazily purge them.  When false, the
	// engine is a plain TPR-tree and expiration times are ignored.
	ExpireAware bool

	// StoreBRExp records expiration times in internal entries.  When
	// false, internal entries are smaller and queries fall back to the
	// derived expiration time of shrinking rectangles (§4.1.1).  Leaf
	// entries always record their expiration time.
	StoreBRExp bool

	// AlgsUseExp makes the insertion heuristics honor expiration
	// times by clamping the objective-function integrals at the
	// entries' expiration (Eq. 1).  When false, ChooseSubtree and
	// Split treat all entries as never expiring, which groups entries
	// more strictly by velocity (§4.2.2).
	AlgsUseExp bool

	// World is the extent of the data space, used to clamp static
	// bounding rectangles over never-expiring entries.
	World geom.Rect

	// BufferPages is the LRU buffer-pool capacity (default 50, as in
	// §5.1).
	BufferPages int

	// Beta relates the assumed querying-window length to the update
	// interval: W = Beta·UI (default 0.5, §4.2.3).
	Beta float64

	// FixedW, when positive, overrides the W = Beta·UI rule with a
	// constant querying-window length.
	FixedW float64

	// InitialUI seeds the update-interval estimate before enough
	// insertions have been observed to measure it (default 60).
	InitialUI float64

	// MinFill is the minimum node fill as a fraction of capacity
	// (default 0.4, the R*-tree recommendation).
	MinFill float64

	// ReinsertFrac is the fraction of entries removed by forced
	// reinsertion on node overflow (default 0.3, the R*-tree p = 30%).
	// A negative value disables forced reinsertion entirely (splits
	// happen immediately) — an ablation knob.
	ReinsertFrac float64

	// UseOverlapHeuristic makes ChooseSubtree use the R*-tree's
	// overlap-enlargement criterion (with time integrals) at the level
	// above the leaves.  The paper found it does not improve query
	// performance for the R^exp-tree and dropped it to keep
	// ChooseSubtree linear (§4.2.2); this knob exists to reproduce
	// that ablation.
	UseOverlapHeuristic bool

	// DisableAutoTune freezes the update-interval estimate at
	// InitialUI instead of tracking the insertion stream (§4.2.3) — an
	// ablation knob for the self-tuning mechanism.
	DisableAutoTune bool

	// Seed initializes the deterministic RNG used for the random
	// dimension order of near-optimal bounding rectangles.
	Seed int64

	// DeferFlush puts the engine into write-ahead-logged buffering:
	// operations do not flush the pool (finishOp is a no-op) and the
	// pool never steals dirty frames, so the store only changes at an
	// explicit checkpoint (FlushPool) and stays replayable from the
	// last checkpoint until then.
	DeferFlush bool

	// Metrics, when non-nil, attaches the observability registry of
	// internal/obs: the engine counts buffer traffic, ChooseSubtree
	// descents, node visits, splits, forced reinserts, condensing and
	// lazy purges.  When nil the engine runs uninstrumented (the nil
	// fast path).
	Metrics *obs.Metrics
}

// DefaultWorld is the 1000 km x 1000 km space of the experiments.
var DefaultWorld = geom.Rect{Lo: geom.Vec{0, 0, 0}, Hi: geom.Vec{1000, 1000, 1000}}

// withDefaults returns cfg with unset fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Dims == 0 {
		cfg.Dims = 2
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 50
	}
	if cfg.Beta == 0 {
		cfg.Beta = 0.5
	}
	if cfg.InitialUI == 0 {
		cfg.InitialUI = 60
	}
	if cfg.MinFill == 0 {
		cfg.MinFill = 0.4
	}
	if cfg.ReinsertFrac == 0 {
		cfg.ReinsertFrac = 0.3
	}
	if cfg.World == (geom.Rect{}) {
		cfg.World = DefaultWorld
	}
	return cfg
}

// validate rejects configurations the engine cannot honor.
func (cfg Config) validate() error {
	if cfg.Dims < 1 || cfg.Dims > geom.MaxDims {
		return fmt.Errorf("core: Dims must be in [1, %d], got %d", geom.MaxDims, cfg.Dims)
	}
	if cfg.BRKind < hull.KindConservative || cfg.BRKind > hull.KindOptimal {
		return fmt.Errorf("core: unknown bounding-rectangle kind %d", cfg.BRKind)
	}
	if cfg.MinFill <= 0 || cfg.MinFill > 0.5 {
		return fmt.Errorf("core: MinFill must be in (0, 0.5], got %v", cfg.MinFill)
	}
	if cfg.ReinsertFrac > 0.5 {
		return fmt.Errorf("core: ReinsertFrac must not exceed 0.5, got %v", cfg.ReinsertFrac)
	}
	if cfg.Beta <= 0 {
		return fmt.Errorf("core: Beta must be positive, got %v", cfg.Beta)
	}
	if !cfg.ExpireAware && cfg.StoreBRExp {
		return fmt.Errorf("core: StoreBRExp requires ExpireAware")
	}
	if !cfg.ExpireAware && cfg.BRKind == hull.KindStatic {
		return fmt.Errorf("core: static bounding rectangles require ExpireAware (they rely on expiration times)")
	}
	return nil
}
