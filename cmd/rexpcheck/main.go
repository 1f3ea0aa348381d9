// Command rexpcheck is the offline integrity scrub for rexptree index
// files.  It opens each file strictly read-only and verifies, in
// order: the page-file format and superblock, every page's CRC32C
// checksum, the write-ahead-log's structure, and — by opening the tree
// in memory over the (possibly WAL-patched) pages — the tree's
// structural invariants and clock.  For a sharded index it reads the
// manifest and scrubs every shard.
//
// A file left behind by a crash (dirty flag set or non-empty WAL) is
// not an error: rexpcheck verifies that it is *recoverable* — the page
// images of the log's complete checkpoints, merged with a page's later
// image winning, patch cleanly over the base into the state of the last
// complete checkpoint, and the logical tail is well-formed — and reports
// it as such.  On such a file the checksum sweep mirrors exactly what
// recovery reads: pages reachable from the image-patched view.  Pages
// superseded by a checkpoint image are never read from disk — a
// checkpoint writes them to the page file without an fsync, so any of
// them may be stale or torn there — and pages free in the checkpointed
// state may be legitimately torn too (a crash mid zero-fill or mid
// free-chain write); recovery rewrites them before reuse, so they are
// reported as recoverable, not as corruption.
//
// Exit codes: 0 when every file is healthy (clean, or unclean but
// recoverable), 1 when any integrity error is found (bad checksum,
// corrupt structure, unrecoverable WAL), 2 for usage or I/O errors.
//
// Usage:
//
//	rexpcheck [-q] [-no-invariants] <path>...
//
// Each path may be a single index file or the base path of a sharded
// index (its "<path>.manifest" sidecar is then consulted).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"rexptree/internal/core"
	"rexptree/internal/manifest"
	"rexptree/internal/storage"
	"rexptree/internal/wal"
)

const (
	exitOK        = 0
	exitIntegrity = 1
	exitUsage     = 2
)

var (
	quiet        = flag.Bool("q", false, "print only errors and the final verdict")
	noInvariants = flag.Bool("no-invariants", false, "skip the tree-invariant walk (checksum, reachability and WAL checks only)")
)

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: rexpcheck [-q] [-no-invariants] <path>...")
		os.Exit(exitUsage)
	}
	status := exitOK
	for _, path := range flag.Args() {
		if s := checkPath(path); s > status {
			status = s
		}
	}
	os.Exit(status)
}

// checkPath scrubs one argument: a sharded index base (when a manifest
// sidecar exists) or a single index file.
func checkPath(path string) int {
	man, found, err := manifest.Read(manifest.Path(path))
	if err != nil {
		report(path, "manifest: %v", err)
		return exitIntegrity
	}
	if !found {
		return checkFile(path)
	}
	logf(path, "manifest: %d shards, %s-partitioned, generation %d, durability %s",
		man.Shards, man.Partition, man.Generation, orNone(man.Durability))
	status := exitOK
	for i := 0; i < man.Shards; i++ {
		sp := manifest.ShardPath(path, man.Generation, i)
		if _, err := os.Stat(sp); err != nil {
			report(path, "shard %d: missing page file %s", i, sp)
			status = max(status, exitIntegrity)
			continue
		}
		status = max(status, checkFile(sp))
	}
	return status
}

func orNone(s string) string {
	if s == "" {
		return "none (pre-durability manifest)"
	}
	return s
}

// checkFile scrubs a single page file and its WAL sidecar.
func checkFile(path string) int {
	fs, err := storage.OpenFileStoreReadOnly(path)
	if err != nil {
		report(path, "open: %v", err)
		// A refused superblock is corruption, not an I/O problem.
		if _, serr := os.Stat(path); serr != nil {
			return exitUsage
		}
		return exitIntegrity
	}
	defer fs.Close()

	// WAL structure first: for an unclean file the images of the log's
	// complete checkpoints supersede their on-disk pages.
	a, err := wal.Analyze(rexpWALPath(path))
	if err != nil {
		report(path, "wal: %v", err)
		return exitIntegrity
	}
	unclean := fs.Dirty() || a.Records > 0
	state := "clean"
	if unclean {
		state = "unclean (recovery pending)"
	}
	logf(path, "format v%d, %d pages (%d live), %s", fs.Version(), fs.PageCount(), fs.Len(), state)
	if a.Records > 0 || a.Torn {
		logf(path, "wal: %d records, %d pages imaged by complete checkpoints, %d tail records to replay, torn tail: %v",
			a.Records, len(a.Images), len(a.Tail), a.Torn)
	}

	if unclean {
		return checkUnclean(path, fs, a)
	}

	status := exitOK

	// Checksum sweep.  On a clean file every slot — free pages included,
	// since a clean close rewrote the free chain through the checksum
	// layer — must verify.
	if fs.Version() >= 2 {
		bad := 0
		for id := storage.PageID(0); int(id) < fs.PageCount(); id++ {
			if err := fs.VerifyPage(id); err != nil {
				report(path, "page %d: %v", id, err)
				bad++
				status = max(status, exitIntegrity)
			}
		}
		if bad == 0 {
			logf(path, "checksums: all pages verified")
		}
	} else {
		logf(path, "checksums: none (version-1 file; migrate with rexpreshard)")
	}

	if *noInvariants || status != exitOK {
		return status
	}
	return checkTree(path, fs)
}

// checkUnclean scrubs a file a crash left behind.  The checksum sweep
// mirrors what recovery reads: the tree is opened over the base patched
// with the merged images of the log's complete checkpoints — the state
// of the last of them — and the reachability walk checksum-verifies
// every live page (patched pages come from the CRC-framed WAL, never
// from disk).  Pages outside the reachable set are free in that state;
// a torn one is the residue of a crash mid zero-fill or mid free-chain
// write — recovery rewrites it before any reuse, so it is reported as
// recoverable, not corrupt.
func checkUnclean(path string, fs *storage.FileStore, a wal.Analysis) int {
	view := storage.Store(fs)
	if a.Images != nil {
		view = &overlayStore{inner: fs, patches: a.Images, pages: max(fs.PageCount(), a.Pages)}
	}
	cfg, err := core.MetaConfig(view)
	if err != nil {
		return reportOpenFailure(path, a, "metadata", err)
	}
	t, err := core.Open(cfg, view)
	if err != nil {
		return reportOpenFailure(path, a, "tree", err)
	}
	live, err := t.LivePages()
	if err != nil {
		// The walk reads (and checksum-verifies) every reachable page;
		// recovery performs the identical walk and would fail too.
		report(path, "reachable pages: %v", err)
		return exitIntegrity
	}
	logf(path, "checksums: %d reachable pages verified (%d patched by checkpoint images)",
		len(live), len(a.Images))
	if fs.Version() >= 2 {
		torn := 0
		for id := storage.PageID(0); int(id) < fs.PageCount(); id++ {
			if live[id] {
				continue
			}
			if _, patched := a.Images[id]; patched {
				continue
			}
			if err := fs.VerifyPage(id); err != nil {
				torn++
			}
		}
		if torn > 0 {
			logf(path, "checksums: %d free pages torn (recoverable; recovery rewrites them before reuse)", torn)
		}
	}
	if !*noInvariants {
		if now := t.Now(); now < 0 || now != now {
			report(path, "clock: recovered time %v is invalid", now)
			return exitIntegrity
		}
		if err := t.CheckInvariants(); err != nil {
			report(path, "invariants: %v", err)
			return exitIntegrity
		}
		logf(path, "invariants: ok (%d leaf entries, clock %.3f)", t.LeafEntries(), t.Now())
	}
	logf(path, "verdict: recoverable — reopen with a durability policy to replay %d tail records", len(a.Tail))
	return exitOK
}

// reportOpenFailure classifies a failure to open the recovered view of
// an unclean file, mirroring recovery: with no checkpoint images, no
// logical tail and no checksum error, the crash happened during a fresh
// tree's very first checkpoint — nothing was ever acknowledged and Open
// reinitializes from scratch, so the file is recoverable.  Anything
// else is corruption.
func reportOpenFailure(path string, a wal.Analysis, stage string, err error) int {
	if a.Images == nil && len(a.Tail) == 0 && !errors.Is(err, storage.ErrChecksum) {
		logf(path, "%s: %v", stage, err)
		logf(path, "verdict: recoverable — crash during the first checkpoint of a fresh tree; reopen reinitializes it")
		return exitOK
	}
	report(path, "%s: %v", stage, err)
	return exitIntegrity
}

// checkTree runs the tree-level verification of a clean file.
func checkTree(path string, fs *storage.FileStore) int {
	cfg, err := core.MetaConfig(fs)
	if err != nil {
		report(path, "metadata: %v", err)
		return exitIntegrity
	}
	t, err := core.Open(cfg, fs)
	if err != nil {
		report(path, "tree: %v", err)
		return exitIntegrity
	}
	if now := t.Now(); now < 0 || now != now {
		report(path, "clock: recovered time %v is invalid", now)
		return exitIntegrity
	}
	if err := t.CheckInvariants(); err != nil {
		report(path, "invariants: %v", err)
		return exitIntegrity
	}
	logf(path, "invariants: ok (%d leaf entries, clock %.3f)", t.LeafEntries(), t.Now())
	return exitOK
}

// rexpWALPath mirrors rexptree.WALPath without importing the root
// package (which would drag the full front-end into the tool).
func rexpWALPath(path string) string { return path + ".wal" }

// overlayStore presents a base store with a set of page images patched
// over it, without writing anything: the exact view recovery would
// produce.  Only reading is supported.
type overlayStore struct {
	inner   *storage.FileStore
	patches map[storage.PageID][]byte
	pages   int
}

func (o *overlayStore) ReadPage(id storage.PageID, buf []byte) error {
	if img, ok := o.patches[id]; ok {
		copy(buf, img)
		return nil
	}
	return o.inner.ReadPage(id, buf)
}

func (o *overlayStore) WritePage(storage.PageID, []byte) error { return storage.ErrReadOnly }
func (o *overlayStore) Allocate() (storage.PageID, error)      { return 0, storage.ErrReadOnly }
func (o *overlayStore) Free(storage.PageID) error              { return storage.ErrReadOnly }
func (o *overlayStore) Len() int                               { return o.pages }
func (o *overlayStore) Close() error                           { return nil }

func report(path, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rexpcheck: %s: %s\n", path, fmt.Sprintf(format, args...))
}

func logf(path, format string, args ...any) {
	if *quiet {
		return
	}
	fmt.Printf("%s: %s\n", path, fmt.Sprintf(format, args...))
}
