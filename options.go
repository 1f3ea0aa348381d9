package rexptree

import (
	"fmt"
	"time"

	"rexptree/internal/core"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

// BoundingKind selects how the bounding rectangles of internal index
// entries are computed (paper §4.1).
type BoundingKind int

const (
	// Conservative rectangles move their edges with the extreme
	// velocities of the enclosed entries; they never exploit
	// expiration times.  This is what the TPR-tree uses.
	Conservative BoundingKind = iota
	// Static rectangles have zero edge velocities and rely entirely on
	// expiration times; competitive only under speed-dependent expiry.
	Static
	// UpdateMinimum rectangles are tight at computation time with edge
	// speeds reduced as far as expiration times allow.
	UpdateMinimum
	// NearOptimal rectangles minimize the bounding-trapezoid volume
	// per dimension via convex-hull bridges; the paper's overall best.
	NearOptimal
	// Optimal rectangles minimize the trapezoid volume exactly; more
	// expensive to compute and, notably, no better in search
	// performance than NearOptimal (paper §5.3).
	Optimal
)

// Durability selects how the index survives crashes (Options.
// Durability).  Anything other than DurabilityNone requires a
// file-backed tree (Options.Path) in the current checksummed page
// format and maintains a write-ahead log next to the page file
// (<path>.wal); reopening after a crash replays it automatically.
type Durability int

const (
	// DurabilityNone is the legacy behavior: no WAL, dirty pages are
	// flushed per operation, and only a clean Close makes the file
	// reopenable.  A crash loses the tree.
	DurabilityNone Durability = iota
	// DurabilityOnCommit fsyncs the WAL before an operation returns
	// (one fsync per UpdateBatch — group commit), so no acknowledged
	// update is ever lost.
	DurabilityOnCommit
	// DurabilityBatched appends to the WAL on every operation but
	// fsyncs on a timer (Options.SyncEvery): a crash loses at most the
	// last interval's acknowledged updates.
	DurabilityBatched
)

// String returns the policy's manifest spelling.
func (d Durability) String() string {
	switch d {
	case DurabilityOnCommit:
		return "on-commit"
	case DurabilityBatched:
		return "batched"
	default:
		return "none"
	}
}

// ParseDurability parses the manifest/CLI spelling of a policy.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "", "none":
		return DurabilityNone, nil
	case "on-commit":
		return DurabilityOnCommit, nil
	case "batched":
		return DurabilityBatched, nil
	}
	return DurabilityNone, fmt.Errorf("rexptree: unknown durability %q (none, on-commit, batched)", s)
}

// Options configures a Tree.  The zero value is not valid; start from
// DefaultOptions or TPROptions.
type Options struct {
	// Dims is the dimensionality of the space (1..MaxDims).
	Dims int

	// Bounding selects the bounding-rectangle type; Open refuses a
	// value that is not one of the BoundingKind constants.
	Bounding BoundingKind

	// ExpireAware enables the R^exp-tree behaviour: expired reports
	// become invisible to queries and are lazily purged.  When false
	// the index is a plain TPR-tree.
	ExpireAware bool

	// StoreBRExpiration records expiration times inside internal index
	// entries.  The paper found this generally not worthwhile (§5.2);
	// leave it false unless experimenting.
	StoreBRExpiration bool

	// HeuristicsUseExpiration makes the insertion heuristics clamp
	// their objective integrals at entry expiration times (§4.2.2).
	HeuristicsUseExpiration bool

	// World is the extent of the data space.  Defaults to the paper's
	// 1000 x 1000 km.
	World Rect

	// BufferPages is the LRU buffer-pool capacity in 4 KiB pages
	// (default 50).
	BufferPages int

	// Path, when non-empty, stores the index in a page file at this
	// location instead of in memory.
	Path string

	// Beta sets the assumed querying-window length W = Beta·UI used by
	// the self-tuning horizon (default 0.5); FixedW overrides it with
	// a constant when positive.
	Beta   float64
	FixedW float64

	// Seed makes tie-breaking (the random dimension order of
	// near-optimal rectangles) deterministic.
	Seed int64

	// SlowOpThreshold, when positive, logs every public operation that
	// takes at least this long through the standard log package, and
	// sets the flight recorder's slow-trace threshold (else 10ms).
	SlowOpThreshold time.Duration

	// FlightRecorder, when positive, keeps the execution traces of the
	// most recent FlightRecorder operations (and, separately, the most
	// recent FlightRecorder slow operations) in a fixed-size in-memory
	// ring.  Retained traces are served by TraceHandler (mounted at
	// /debug/rexp/traces by the serve-mode tools) and returned by
	// Traces.  Zero disables the recorder; tracing then costs nothing
	// on the regular query and update paths.
	FlightRecorder int

	// Durability selects the crash-safety policy; see the Durability
	// constants, the only values Open accepts.  Requires Path.
	Durability Durability

	// SyncEvery is the WAL fsync interval under DurabilityBatched
	// (default 100ms).
	SyncEvery time.Duration

	// CheckpointBytes bounds the WAL (default 4 MiB).  A checkpoint
	// runs each time an eighth of it has been logged since the last
	// one, imaging the dirty pages into the log; the one that finds the
	// log at CheckpointBytes also fsyncs the page file and truncates the
	// log.  Recovery replays at most an eighth of it.  Under a
	// durability policy the buffer pool keeps dirty pages resident past
	// BufferPages until the next checkpoint.
	CheckpointBytes int64

	// slowLabel prefixes the operation names of this tree's slow-op log
	// lines: "shard<i>/" on a ShardedTree's shard, "" stand-alone.
	slowLabel string

	// testWrapStore, when non-nil, wraps the page store before the tree
	// uses it; crash and fault tests inject FaultStores here.
	testWrapStore func(storage.Store) storage.Store

	// testWALHook is installed as the WAL writer's Hook; crash tests
	// use it to stop the world at exact injection points.
	testWALHook func(event string) error
}

// DefaultOptions returns the paper's recommended R^exp-tree
// configuration: two dimensions, near-optimal bounding rectangles
// without recorded internal expiration times, expiration-aware
// heuristics.
func DefaultOptions() Options {
	return Options{
		Dims:                    2,
		Bounding:                NearOptimal,
		ExpireAware:             true,
		HeuristicsUseExpiration: true,
	}
}

// TPROptions returns the baseline TPR-tree configuration: conservative
// bounding rectangles and no expiration support.
func TPROptions() Options {
	return Options{
		Dims:     2,
		Bounding: Conservative,
	}
}

func (o Options) internal() core.Config {
	return core.Config{
		Dims:        o.Dims,
		BRKind:      hull.Kind(o.Bounding), // the same numbering; core refuses any other
		ExpireAware: o.ExpireAware,
		StoreBRExp:  o.StoreBRExpiration,
		AlgsUseExp:  o.HeuristicsUseExpiration,
		World:       toRect(o.World),
		BufferPages: o.BufferPages,
		Beta:        o.Beta,
		FixedW:      o.FixedW,
		Seed:        o.Seed,
		DeferFlush:  o.Durability != DurabilityNone,
	}
}

// durability defaults, applied where the tree wires up its WAL.
const (
	defaultSyncEvery       = 100 * time.Millisecond
	defaultCheckpointBytes = 4 << 20
)
