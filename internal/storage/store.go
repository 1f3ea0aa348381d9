// Package storage provides the paged-storage substrate underneath the
// index structures: fixed-size pages, an allocator with a free list,
// in-memory and file-backed page stores, and an LRU buffer pool with
// pinning, write-back of dirty pages, and I/O accounting.
//
// It stands in for the adapted GiST class library used in the paper's
// implementation.  The experiments' metric — I/O operations per index
// operation — is the number of page reads and writes that reach the
// Store through the buffer pool.
package storage

import (
	"errors"
	"fmt"
)

// PageSize is the size of a disk page and of a tree node, 4 KiB as in
// the paper (§5.1).
const PageSize = 4096

// PageID identifies a page within a Store.
type PageID uint32

// InvalidPage is the nil page identifier.
const InvalidPage PageID = ^PageID(0)

// ErrPageFreed is returned when reading or writing a page that has
// been released back to the allocator.
var ErrPageFreed = errors.New("storage: page is freed")

// ErrPageRange is returned for page ids that were never allocated.
var ErrPageRange = errors.New("storage: page id out of range")

// Store is raw page storage: a flat array of PageSize pages with an
// allocator.  Implementations are not safe for concurrent use; the
// index serializes access.
type Store interface {
	// ReadPage copies the page's contents into buf (len PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len PageSize) as the page's contents.
	WritePage(id PageID, buf []byte) error
	// Allocate returns a zeroed, writable page.
	Allocate() (PageID, error)
	// Free releases the page for reuse.
	Free(id PageID) error
	// Len returns the number of live (allocated, not freed) pages —
	// the index-size metric of the experiments.
	Len() int
	// Close releases underlying resources.
	Close() error
}

// Syncer is implemented by stores that can force buffered state to
// stable storage (a FileStore fsync; wrappers forward it).
type Syncer interface {
	Sync() error
}

// SyncStore syncs s when it (or anything it wraps) supports it, and is
// a no-op otherwise — a MemStore has nothing to sync.
func SyncStore(s Store) error {
	if sy, ok := s.(Syncer); ok {
		return sy.Sync()
	}
	return nil
}

// MemStore is an in-memory Store.  The zero value is ready to use.
type MemStore struct {
	pages [][]byte
	freed []PageID
	spare [][]byte // the buffers of freed pages, for the next Allocate
	live  int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

func (s *MemStore) check(id PageID) error {
	if int(id) >= len(s.pages) {
		return fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	if s.pages[id] == nil {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// ReadPage implements Store.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	if err := s.check(id); err != nil {
		return err
	}
	copy(buf, s.pages[id])
	return nil
}

// page returns the page's own bytes, which a lending BufferPool uses
// as its frame (see BufferPool.lent).
func (s *MemStore) page(id PageID) ([]byte, error) {
	if err := s.check(id); err != nil {
		return nil, err
	}
	return s.pages[id], nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	if err := s.check(id); err != nil {
		return err
	}
	copy(s.pages[id], buf)
	return nil
}

// Allocate implements Store.
func (s *MemStore) Allocate() (PageID, error) {
	s.live++
	var buf []byte
	if n := len(s.spare); n > 0 {
		buf = s.spare[n-1]
		s.spare = s.spare[:n-1]
		clear(buf)
	} else {
		buf = make([]byte, PageSize)
	}
	if n := len(s.freed); n > 0 {
		id := s.freed[n-1]
		s.freed = s.freed[:n-1]
		s.pages[id] = buf
		return id, nil
	}
	s.pages = append(s.pages, buf)
	return PageID(len(s.pages) - 1), nil
}

// Free implements Store.
func (s *MemStore) Free(id PageID) error {
	if err := s.check(id); err != nil {
		return err
	}
	s.spare = append(s.spare, s.pages[id])
	s.pages[id] = nil
	s.freed = append(s.freed, id)
	s.live--
	return nil
}

// Len implements Store.
func (s *MemStore) Len() int { return s.live }

// Close implements Store.
func (s *MemStore) Close() error {
	s.pages, s.freed, s.spare, s.live = nil, nil, nil, 0
	return nil
}
