package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"rexptree/internal/obs"
)

// FileStore is a Store backed by a single file.  The file starts with
// a superblock holding the format version, the page count and the head
// of the free-page chain; user pages follow.  Free pages are chained
// through their first four bytes.
//
// The on-disk format is version 2: every page carries an 8-byte header
// with a CRC32C checksum of its contents, and the superblock carries its
// own checksum plus a dirty flag.  The flag is raised by MarkDirty
// before a write-ahead-logged update stream begins and cleared by a
// clean Close, so recovery can detect an unclean shutdown.  Version-1
// files (bare pages, no checksums) are refused.
type FileStore struct {
	f        *os.File
	path     string
	numPages int // user pages ever allocated (including freed)
	live     int
	readOnly bool
	dirty    bool // superblock dirty flag

	// The free list is kept in memory as a stack (freeOld reusable,
	// freeNew quarantined while deferFrees is set) and materialized as
	// the on-disk chain by Sync and Close.
	freedSet   map[PageID]bool
	freeOld    []PageID
	freeNew    []PageID
	deferFrees bool

	met *obs.Metrics
}

const (
	fileMagicV1 = 0x52455850 // "REXP": the retired version 1, bare pages
	fileMagicV2 = 0x51455850 // "REXQ": version 2, checksummed pages

	// pageHdrSize is the per-page header: CRC32C of
	// the page contents plus four reserved bytes.  The logical page
	// stays PageSize bytes; only the on-disk slot grows.
	pageHdrSize = 8
	slotSizeV2  = PageSize + pageHdrSize

	superDirtyOff = 16
	superCRCOff   = 20
)

// castagnoli is the CRC32C polynomial table (iSCSI / ext4 / InnoDB).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrReadOnly is returned by the mutating Store methods of a store
// opened with OpenFileStoreReadOnly.
var ErrReadOnly = errors.New("storage: store is read-only")

// ErrChecksum is returned when a page's stored CRC32C does not match
// its contents — the page was torn by a crash or corrupted at rest.
var ErrChecksum = errors.New("storage: page checksum mismatch")

// CreateFileStore creates (truncating) a file-backed store at path.
func CreateFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	s := &FileStore{f: f, path: path, freedSet: map[PageID]bool{}}
	if err := s.writeSuper(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenFileStore opens a store previously written by CreateFileStore.
func OpenFileStore(path string) (*FileStore, error) {
	return openFileStore(path, false)
}

// OpenFileStoreReadOnly opens a store strictly for reading: the file
// is opened O_RDONLY, every mutating Store method returns ErrReadOnly,
// and Close does not rewrite the superblock — the file's bytes are
// untouched no matter what the caller does.  The offline reshard tool
// scans source shards through this so a crash mid-scan cannot perturb
// the original index.
func OpenFileStoreReadOnly(path string) (*FileStore, error) {
	return openFileStore(path, true)
}

func openFileStore(path string, readOnly bool) (*FileStore, error) {
	mode := os.O_RDWR
	if readOnly {
		mode = os.O_RDONLY
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, err
	}
	var sb [PageSize]byte
	if _, err := f.ReadAt(sb[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	s := &FileStore{f: f, path: path, freedSet: map[PageID]bool{}, readOnly: readOnly}
	switch binary.LittleEndian.Uint32(sb[0:]) {
	case fileMagicV2:
		if crc32.Checksum(sb[:superCRCOff], castagnoli) != binary.LittleEndian.Uint32(sb[superCRCOff:]) {
			f.Close()
			return nil, fmt.Errorf("%w: superblock of %s", ErrChecksum, path)
		}
		s.dirty = sb[superDirtyOff] != 0
	case fileMagicV1:
		f.Close()
		return nil, fmt.Errorf("storage: %s is a version-1 page file without checksums, which is no longer read; convert it with the rexpreshard of commit 1c4f5f9 or earlier", path)
	default:
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a rexptree page file", path)
	}
	s.numPages = int(binary.LittleEndian.Uint32(sb[4:]))
	freeHead := PageID(binary.LittleEndian.Uint32(sb[8:]))

	// A dirty file's free chain is untrustworthy (the crash interrupted
	// the update stream that would have rewritten it); recovery rebuilds
	// the free list from tree reachability via ResetFreeList instead.
	if !s.dirty {
		var buf [PageSize]byte
		var chain []PageID
		for id := freeHead; id != InvalidPage; {
			if s.freedSet[id] {
				f.Close()
				return nil, fmt.Errorf("storage: %s: free chain loops at page %d", path, id)
			}
			s.freedSet[id] = true
			chain = append(chain, id)
			if err := s.readRaw(id, buf[:]); err != nil {
				f.Close()
				return nil, err
			}
			id = PageID(binary.LittleEndian.Uint32(buf[:]))
		}
		// The chain head is the most recently freed page; keep LIFO
		// reuse order by stacking the chain bottom-up.
		for i := len(chain) - 1; i >= 0; i-- {
			s.freeOld = append(s.freeOld, chain[i])
		}
	}
	s.live = s.numPages - len(s.freedSet)
	return s, nil
}

// SetMetrics attaches an instrument registry so checksum failures are
// counted.
func (s *FileStore) SetMetrics(m *obs.Metrics) { s.met = m }

// Dirty reports whether the superblock's dirty flag is raised — the
// file was part of a write-ahead-logged update stream and has not been
// cleanly closed since.
func (s *FileStore) Dirty() bool { return s.dirty }

// PageCount returns the number of user pages ever allocated, including
// currently free ones.
func (s *FileStore) PageCount() int { return s.numPages }

// SetDeferFrees selects the deferred-free discipline: freed pages are
// quarantined (not reused and their chain links not written) until the
// next ReleaseFrees or Sync.  The write-ahead-logged tree needs this so
// no page that is live in the last checkpoint's state is overwritten
// before the next checkpoint is durable.
func (s *FileStore) SetDeferFrees(v bool) {
	if !v {
		s.ReleaseFrees()
	}
	s.deferFrees = v
}

// MarkDirty raises the superblock dirty flag and syncs it to disk, so
// a crash at any later point is detectable on reopen.  It is a no-op
// when the flag is already raised.
func (s *FileStore) MarkDirty() error {
	if s.readOnly {
		return ErrReadOnly
	}
	if s.dirty {
		return nil
	}
	s.dirty = true
	if err := s.writeSuper(); err != nil {
		return err
	}
	return s.f.Sync()
}

// SetPageCount extends the store's page count to at least n, so
// recovery can apply checkpoint images of pages allocated after the
// stale superblock was last written.  The file grows lazily.
func (s *FileStore) SetPageCount(n int) {
	if n > s.numPages {
		s.live += n - s.numPages
		s.numPages = n
	}
}

// ResetFreeList replaces the free list: every page not in live is
// considered free.  Recovery calls this after rebuilding the reachable
// set of an uncleanly closed file, whose on-disk chain is stale.
func (s *FileStore) ResetFreeList(live map[PageID]bool) {
	s.freedSet = map[PageID]bool{}
	s.freeOld = s.freeOld[:0]
	s.freeNew = s.freeNew[:0]
	for id := 0; id < s.numPages; id++ {
		if !live[PageID(id)] {
			s.freedSet[PageID(id)] = true
			s.freeOld = append(s.freeOld, PageID(id))
		}
	}
	s.live = s.numPages - len(s.freedSet)
}

func (s *FileStore) writeSuper() error {
	var sb [PageSize]byte
	binary.LittleEndian.PutUint32(sb[0:], fileMagicV2)
	binary.LittleEndian.PutUint32(sb[4:], uint32(s.numPages))
	binary.LittleEndian.PutUint32(sb[8:], uint32(s.freeHead()))
	if s.dirty {
		sb[superDirtyOff] = 1
	}
	binary.LittleEndian.PutUint32(sb[superCRCOff:], crc32.Checksum(sb[:superCRCOff], castagnoli))
	_, err := s.f.WriteAt(sb[:], 0)
	return err
}

// freeHead returns the id that heads the on-disk free chain written by
// writeChain: the top of the in-memory free stack.
func (s *FileStore) freeHead() PageID {
	if n := len(s.freeNew); n > 0 {
		return s.freeNew[n-1]
	}
	if n := len(s.freeOld); n > 0 {
		return s.freeOld[n-1]
	}
	return InvalidPage
}

// writeChain materializes the in-memory free stack as the on-disk
// chain: each free page's first four bytes link to the next.  Pages
// are rewritten whole so their checksums stay valid.
func (s *FileStore) writeChain() error {
	stack := make([]PageID, 0, len(s.freeOld)+len(s.freeNew))
	stack = append(stack, s.freeOld...)
	stack = append(stack, s.freeNew...)
	var buf [PageSize]byte
	next := InvalidPage
	for _, id := range stack {
		binary.LittleEndian.PutUint32(buf[:], uint32(next))
		if err := s.writeRaw(id, buf[:]); err != nil {
			return err
		}
		next = id
	}
	return nil
}

func (s *FileStore) offset(id PageID) int64 {
	return PageSize + int64(id)*slotSizeV2
}

// slotPool holds the slot buffers readRaw and writeRaw stage a page
// through.  The slot goes to (*os.File).ReadAt/WriteAt, so a local
// array would escape: every page read or write would allocate 4 KiB,
// and on a durable tree under a small pool that garbage was most of
// what the process allocated.
var slotPool = sync.Pool{New: func() any { return new([slotSizeV2]byte) }}

func (s *FileStore) readRaw(id PageID, buf []byte) error {
	slot := slotPool.Get().(*[slotSizeV2]byte)
	defer slotPool.Put(slot)
	if _, err := s.f.ReadAt(slot[:], s.offset(id)); err != nil {
		return err
	}
	want := binary.LittleEndian.Uint32(slot[0:])
	if crc32.Checksum(slot[pageHdrSize:], castagnoli) != want {
		if s.met != nil {
			s.met.ChecksumFailures.Inc()
		}
		return fmt.Errorf("%w: page %d", ErrChecksum, id)
	}
	copy(buf[:PageSize], slot[pageHdrSize:])
	return nil
}

func (s *FileStore) writeRaw(id PageID, buf []byte) error {
	slot := slotPool.Get().(*[slotSizeV2]byte)
	defer slotPool.Put(slot)
	clear(slot[:pageHdrSize]) // the reserved header bytes stay zero
	copy(slot[pageHdrSize:], buf[:PageSize])
	binary.LittleEndian.PutUint32(slot[0:], crc32.Checksum(slot[pageHdrSize:], castagnoli))
	_, err := s.f.WriteAt(slot[:], s.offset(id))
	return err
}

// VerifyPage reads the page's slot and checks its checksum, without
// the allocation checks — it works on freed pages too, for the offline
// scrub.
func (s *FileStore) VerifyPage(id PageID) error {
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	var buf [PageSize]byte
	return s.readRaw(id, buf[:])
}

func (s *FileStore) check(id PageID) error {
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	if s.freedSet[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	if err := s.check(id); err != nil {
		return err
	}
	return s.readRaw(id, buf)
}

// WritePage implements Store.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	if s.readOnly {
		return ErrReadOnly
	}
	if err := s.check(id); err != nil {
		return err
	}
	return s.writeRaw(id, buf)
}

// WritePageTorn persists only the first n bytes of the page's encoded
// on-disk slot — checksum header included — leaving the rest of the
// slot as it was: the state a page write torn by a crash leaves behind,
// below the checksum layer, so the stored CRC genuinely mismatches the
// contents.  Fault injection (FaultTornWrite) is the only intended
// caller.  n is clamped to the slot size; the free check is skipped so
// any allocated slot can be torn.
func (s *FileStore) WritePageTorn(id PageID, buf []byte, n int) error {
	if s.readOnly {
		return ErrReadOnly
	}
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	if n < 0 {
		n = 0
	}
	var slot [slotSizeV2]byte
	copy(slot[pageHdrSize:], buf[:PageSize])
	binary.LittleEndian.PutUint32(slot[0:], crc32.Checksum(slot[pageHdrSize:], castagnoli))
	if n > slotSizeV2 {
		n = slotSizeV2
	}
	_, err := s.f.WriteAt(slot[:n], s.offset(id))
	return err
}

// writeImage writes a recovery page image, bypassing the free check:
// the free list of an uncleanly closed file is not known until after
// the images are applied and the reachable set rebuilt.
func (s *FileStore) writeImage(id PageID, buf []byte) error {
	if s.readOnly {
		return ErrReadOnly
	}
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	return s.writeRaw(id, buf)
}

// WriteImage applies a checkpoint page image during recovery.
func (s *FileStore) WriteImage(id PageID, buf []byte) error { return s.writeImage(id, buf) }

// Allocate implements Store.
func (s *FileStore) Allocate() (PageID, error) {
	if s.readOnly {
		return InvalidPage, ErrReadOnly
	}
	var zero [PageSize]byte
	if n := len(s.freeOld); n > 0 {
		id := s.freeOld[n-1]
		if err := s.writeRaw(id, zero[:]); err != nil {
			return InvalidPage, err
		}
		s.freeOld = s.freeOld[:n-1]
		delete(s.freedSet, id)
		s.live++
		return id, nil
	}
	id := PageID(s.numPages)
	if err := s.writeRaw(id, zero[:]); err != nil {
		return InvalidPage, err
	}
	s.numPages++
	s.live++
	return id, nil
}

// Free implements Store.  The page is dropped from use immediately;
// its on-disk chain link is written by the next Sync or Close.  Under
// SetDeferFrees the page is additionally quarantined from reuse until
// the next ReleaseFrees or Sync, so the contents it held at the last
// checkpoint survive for recovery.
func (s *FileStore) Free(id PageID) error {
	if s.readOnly {
		return ErrReadOnly
	}
	if err := s.check(id); err != nil {
		return err
	}
	s.freedSet[id] = true
	if s.deferFrees {
		s.freeNew = append(s.freeNew, id)
	} else {
		s.freeOld = append(s.freeOld, id)
	}
	s.live--
	return nil
}

// Len implements Store.
func (s *FileStore) Len() int { return s.live }

// ReleaseFrees ends the quarantine of the pages freed under
// SetDeferFrees: they become reusable without a Sync.  The
// write-ahead-logged tree calls it once a checkpoint's images are
// durable in its log — recovery rebuilds that checkpoint's state, in
// which these pages are free, so their old contents are not needed.
func (s *FileStore) ReleaseFrees() {
	s.freeOld = append(s.freeOld, s.freeNew...)
	s.freeNew = s.freeNew[:0]
}

// Sync materializes the free chain, writes the superblock (keeping the
// current dirty flag) and fsyncs the file.  Quarantined frees become
// reusable afterwards.
func (s *FileStore) Sync() error {
	if s.readOnly {
		return ErrReadOnly
	}
	if err := s.writeChain(); err != nil {
		return err
	}
	if err := s.writeSuper(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.ReleaseFrees()
	return nil
}

// Close clears the dirty flag, persists the free chain and superblock,
// fsyncs and closes the file.  Any error is reported; the file handle
// is closed regardless (read-only stores close without writing).
func (s *FileStore) Close() error {
	if s.readOnly {
		return s.f.Close()
	}
	s.dirty = false
	err := s.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CloseKeepDirty closes the file handle without touching the
// superblock, leaving the dirty flag as it stands on disk.  The
// write-ahead-logged tree uses it when a final checkpoint failed:
// stamping the file clean would disable the recovery the next open
// must run.
func (s *FileStore) CloseKeepDirty() error { return s.f.Close() }
