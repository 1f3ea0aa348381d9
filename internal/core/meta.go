package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

// The tree persists its volatile state (root page, height, clock,
// self-tuning counters) in a metadata page, by convention page 0 of
// its store.  A cleanly Synced file-backed tree can be reopened with
// Open.

const (
	metaMagic   = 0x52455854 // "REXT"
	metaVersion = 1
	metaPage    = storage.PageID(0)
)

type metaFlags uint8

const (
	metaExpireAware metaFlags = 1 << iota
	metaStoreBRExp
)

// initMeta allocates the metadata page of a fresh tree.  It must be
// the first allocation so that the page lands at the conventional id.
func (t *Tree) initMeta() error {
	id, _, err := t.bp.Allocate()
	if err != nil {
		return err
	}
	if id != metaPage {
		return fmt.Errorf("core: store is not empty (meta page would be %d); use Open to load an existing tree", id)
	}
	return nil
}

// Sync writes the tree's metadata and flushes all dirty pages, making
// the underlying store self-contained.  A tree whose pool has no encoder
// (imagesAtSync) then renders every stale node straight into the store;
// that costs no I/O, because the pool charged the page's writes when it
// moved the bytes.
func (t *Tree) Sync() error {
	if err := t.StageMeta(); err != nil {
		return err
	}
	if err := t.bp.Flush(); err != nil {
		return err
	}
	if !t.imagesAtSync {
		return nil
	}
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	store := t.bp.Store()
	buf := make([]byte, storage.PageSize)
	for id, n := range t.cache {
		if !t.render(n, buf) {
			continue
		}
		if err := store.WritePage(id, buf); err != nil {
			n.stale = true
			return err
		}
	}
	return nil
}

// StageMeta encodes the tree's metadata into its buffered page and
// marks it dirty without flushing the pool.  The checkpoint protocol
// uses it so the metadata is part of the dirty-page image set instead
// of a separate write.
func (t *Tree) StageMeta() error {
	buf, err := t.bp.Get(metaPage)
	if err != nil {
		return err
	}
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], metaVersion)
	buf[8] = byte(t.cfg.Dims)
	buf[9] = byte(t.cfg.BRKind)
	var flags metaFlags
	if t.cfg.ExpireAware {
		flags |= metaExpireAware
	}
	if t.cfg.StoreBRExp {
		flags |= metaStoreBRExp
	}
	buf[10] = byte(flags)
	buf[11] = byte(len(t.nodesPerLevel))
	binary.LittleEndian.PutUint32(buf[12:], uint32(t.root))
	binary.LittleEndian.PutUint32(buf[16:], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[20:], uint64(t.leafEntries))
	binary.LittleEndian.PutUint64(buf[28:], math.Float64bits(t.Now()))
	binary.LittleEndian.PutUint64(buf[36:], math.Float64bits(t.ui))
	binary.LittleEndian.PutUint64(buf[44:], math.Float64bits(t.timerStart))
	binary.LittleEndian.PutUint32(buf[52:], uint32(t.insSinceTimer))
	off := 56
	for _, n := range t.nodesPerLevel {
		binary.LittleEndian.PutUint32(buf[off:], uint32(n))
		off += 4
	}
	return t.bp.MarkDirty(metaPage)
}

// FlushPool writes every dirty buffered page to the store.
func (t *Tree) FlushPool() error { return t.bp.Flush() }

// DirtyPages calls fn for each dirty buffered page in ascending page
// order, its image encoded from the node as it is now (see
// storage.BufferPool.DirtyPages).
func (t *Tree) DirtyPages(fn func(storage.PageID, []byte) error) error {
	return t.bp.DirtyPages(fn)
}

// PoolOverflow returns how many buffered pages exceed the pool's
// capacity (non-zero only under the no-steal policy of DeferFlush).
func (t *Tree) PoolOverflow() int { return t.bp.Overflow() }

// LivePages returns the set of pages reachable from the tree: the
// metadata page plus every node.  Walking decodes (and therefore
// checksum-verifies) each page.  Recovery uses the set to rebuild the
// free list of an uncleanly closed store.
func (t *Tree) LivePages() (map[storage.PageID]bool, error) {
	live := map[storage.PageID]bool{metaPage: true}
	err := t.walk(t.root, func(n *node) error {
		live[n.id] = true
		return nil
	})
	return live, err
}

// Open loads a tree previously built over store and Synced.  cfg must
// match the layout-affecting options the tree was created with.
func Open(cfg Config, store storage.Store) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := newTreeShell(cfg, store)
	buf, err := t.bp.Get(metaPage)
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return nil, fmt.Errorf("core: store has no tree metadata (not Synced?)")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != metaVersion {
		return nil, fmt.Errorf("core: unsupported metadata version %d", v)
	}
	if int(buf[8]) != cfg.Dims {
		return nil, fmt.Errorf("core: tree has %d dimensions, config says %d", buf[8], cfg.Dims)
	}
	if hull.Kind(buf[9]) != cfg.BRKind {
		return nil, fmt.Errorf("core: tree was built with %v bounding rectangles, config says %v",
			hull.Kind(buf[9]), cfg.BRKind)
	}
	flags := metaFlags(buf[10])
	if (flags&metaExpireAware != 0) != cfg.ExpireAware {
		return nil, fmt.Errorf("core: ExpireAware mismatch with stored tree")
	}
	if (flags&metaStoreBRExp != 0) != cfg.StoreBRExp {
		return nil, fmt.Errorf("core: StoreBRExp mismatch with stored tree")
	}
	levels := int(buf[11])
	t.root = storage.PageID(binary.LittleEndian.Uint32(buf[12:]))
	t.height = int(binary.LittleEndian.Uint32(buf[16:]))
	t.leafEntries = int(binary.LittleEndian.Uint64(buf[20:]))
	t.clk.Store(math.Float64frombits(binary.LittleEndian.Uint64(buf[28:])))
	t.ui = math.Float64frombits(binary.LittleEndian.Uint64(buf[36:]))
	t.timerStart = math.Float64frombits(binary.LittleEndian.Uint64(buf[44:]))
	t.insSinceTimer = int(binary.LittleEndian.Uint32(buf[52:]))
	off := 56
	t.nodesPerLevel = make([]int, levels)
	for i := range t.nodesPerLevel {
		t.nodesPerLevel[i] = int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	if t.height < 1 || t.height > levels {
		return nil, fmt.Errorf("core: corrupt metadata: height %d with %d levels", t.height, levels)
	}
	if err := t.bp.Pin(t.root); err != nil {
		return nil, err
	}
	if err := t.installSnapshots(); err != nil {
		return nil, err
	}
	return t, nil
}

// MetaConfig reads the layout-affecting configuration (dimensions,
// bounding-rectangle kind, expiration flags) recorded in a store's
// metadata page, so a tool can open a tree file without knowing how it
// was created.  The remaining Config fields are left at their zero
// values for the caller (or withDefaults) to fill in.
func MetaConfig(store storage.Store) (Config, error) {
	var buf [storage.PageSize]byte
	if err := store.ReadPage(metaPage, buf[:]); err != nil {
		return Config{}, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return Config{}, fmt.Errorf("core: store has no tree metadata (not Synced?)")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != metaVersion {
		return Config{}, fmt.Errorf("core: unsupported metadata version %d", v)
	}
	flags := metaFlags(buf[10])
	return Config{
		Dims:        int(buf[8]),
		BRKind:      hull.Kind(buf[9]),
		ExpireAware: flags&metaExpireAware != 0,
		StoreBRExp:  flags&metaStoreBRExp != 0,
	}, nil
}

// Export visits every leaf entry exactly as stored — quantized
// position and velocity relative to epoch t=0, recorded expiration
// time — along with whether the entry is live at the tree's current
// clock.  Lazily-purged expired entries are reported with live=false
// so a full-index migration (the offline reshard) can carry the exact
// live set to a new index and drop the rest.
func (t *Tree) Export(fn func(oid uint32, p geom.MovingPoint, live bool) error) error {
	now := t.Now()
	return t.Records(func(oid uint32, p geom.MovingPoint) error {
		live := !t.cfg.ExpireAware || p.TExp >= now
		return fn(oid, p, live)
	})
}

// Records visits every leaf entry (including expired ones not yet
// purged), charging the buffer pool like any locked traversal.
func (t *Tree) Records(fn func(oid uint32, p geom.MovingPoint) error) error {
	return t.walk(t.root, func(n *node) error {
		if n.level != 0 {
			return nil
		}
		for i := range n.entries {
			if err := fn(n.entries[i].id, n.entries[i].point()); err != nil {
				return err
			}
		}
		return nil
	})
}
