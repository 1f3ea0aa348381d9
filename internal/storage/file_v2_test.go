package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"rexptree/internal/obs"
)

// payloadOffset is where page id's payload starts in a v2 file (after
// the superblock page and the slot's checksum header).
func payloadOffset(id PageID) int64 {
	return PageSize + int64(id)*slotSizeV2 + pageHdrSize
}

func flipBit(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreV2ChecksumDetectsFlippedBit checks that a single bit
// flipped in a cold page surfaces as ErrChecksum on read — counted in
// the metrics — and is caught by VerifyPage, never returned as data.
func TestFileStoreV2ChecksumDetectsFlippedBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.idx")
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := s.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	flipBit(t, path, payloadOffset(id)+1234)

	s, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	met := obs.New()
	s.SetMetrics(met)
	got := make([]byte, PageSize)
	if err := s.ReadPage(id, got); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadPage = %v, want ErrChecksum", err)
	}
	if met.ChecksumFailures.Load() == 0 {
		t.Fatal("checksum failure not counted")
	}
	if err := s.VerifyPage(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyPage = %v, want ErrChecksum", err)
	}
}

// TestFileStoreV2SuperblockChecksum checks that a corrupted superblock
// is refused at open.
func TestFileStoreV2SuperblockChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.idx")
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipBit(t, path, 4) // numPages field, covered by the superblock CRC
	if _, err := OpenFileStore(path); err == nil {
		t.Fatal("open accepted a corrupt superblock")
	}
}

// TestFileStoreDirtyFlag checks the unclean-shutdown marker: MarkDirty
// persists immediately, CloseKeepDirty leaves it set, Close clears it.
func TestFileStoreDirtyFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.idx")
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dirty() {
		t.Fatal("fresh store is dirty")
	}
	if _, err := s.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkDirty(); err != nil {
		t.Fatal(err)
	}
	if !s.Dirty() {
		t.Fatal("MarkDirty did not set the flag")
	}
	if err := s.CloseKeepDirty(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Dirty() {
		t.Fatal("dirty flag lost across reopen")
	}
	if err := s.Close(); err != nil { // clean close clears it
		t.Fatal(err)
	}
	s, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dirty() {
		t.Fatal("Close did not clear the dirty flag")
	}
	s.Close()
}

// TestFileStoreRefusesVersion1 checks that a file in the retired
// version-1 format ("REXP" magic, bare pages) is refused with an error
// that names the file and how to convert it.
func TestFileStoreRefusesVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.idx")
	sb := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(sb, fileMagicV1)
	if err := os.WriteFile(path, sb, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFileStore(path)
	if err == nil {
		t.Fatal("a version-1 file opened")
	}
	for _, want := range []string{path, "version-1", "rexpreshard"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestFileStoreDeferFrees checks the deferred-free quarantine: freed
// pages are not reused while deferral is on, and become reusable once
// it is turned off or ReleaseFrees lets them go.
func TestFileStoreDeferFrees(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.idx")
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	s.SetDeferFrees(true)
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	c, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if c == b {
		t.Fatal("deferred-freed page was reused")
	}
	s.SetDeferFrees(false)
	d, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if d != b {
		t.Fatalf("after deferral ends, Allocate = %d, want recycled %d", d, b)
	}
	// ReleaseFrees ends the quarantine of what was freed so far without
	// a Sync and without ending the deferral of later frees.
	s.SetDeferFrees(true)
	if err := s.Free(d); err != nil {
		t.Fatal(err)
	}
	s.ReleaseFrees()
	if err := s.Free(c); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Allocate(); err != nil || e != d {
		t.Fatalf("after ReleaseFrees, Allocate = %d, %v, want released %d", e, err, d)
	}
	if e, err := s.Allocate(); err != nil || e == c {
		t.Fatalf("Allocate = %d, %v: reused a page freed after ReleaseFrees", e, err)
	}
	_ = a
}

// TestFileStoreRecoverySurface checks the recovery hooks: SetPageCount
// extends the file, WriteImage writes past the freed-set guard, and
// ResetFreeList rebuilds the free list from a live set.
func TestFileStoreRecoverySurface(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.idx")
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Free(3); err != nil {
		t.Fatal(err)
	}
	// An image may target a freed page (recovery does not know the
	// free list yet) or a page beyond the current count.
	img := make([]byte, PageSize)
	img[0] = 9
	if err := s.WriteImage(3, img); err != nil {
		t.Fatalf("WriteImage to freed page: %v", err)
	}
	s.SetPageCount(6)
	if s.PageCount() != 6 {
		t.Fatalf("PageCount = %d, want 6", s.PageCount())
	}
	if err := s.WriteImage(5, img); err != nil {
		t.Fatalf("WriteImage to extended page: %v", err)
	}
	// Live set {0,1,5}: 2, 3, 4 become free and are handed out again.
	s.ResetFreeList(map[PageID]bool{0: true, 1: true, 5: true})
	got := map[PageID]bool{}
	for i := 0; i < 3; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		got[id] = true
	}
	for _, want := range []PageID{2, 3, 4} {
		if !got[want] {
			t.Fatalf("free page %d was not recycled (got %v)", want, got)
		}
	}
}

// TestFileStorePageIOAllocs pins page reads and writes at 0
// allocations: each stages its slot through a pooled buffer, because a
// local array passed to ReadAt/WriteAt escapes and cost 4 KiB per page,
// most of what a durable tree under a small buffer pool allocated.
// The reserved header bytes of a written slot must stay zero even when
// the pooled buffer last held a slot read from elsewhere.
func TestFileStorePageIOAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allocs.idx")
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, _ := s.Allocate()
	b, _ := s.Allocate()
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := s.WritePage(a, buf); err != nil {
		t.Fatal(err)
	}
	// Leave junk in the reserved bytes of a's slot, read it so the
	// pooled slot holds them, then write b.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reserved := payloadOffset(a) - 4
	if _, err := f.WriteAt([]byte{1, 2, 3, 4}, reserved); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := s.ReadPage(a, got); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(b, buf); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := f.ReadAt(hdr[:], payloadOffset(b)-4); err != nil {
		t.Fatal(err)
	}
	if hdr != [4]byte{} {
		t.Fatalf("reserved header bytes of a written slot = %v, want zero", hdr)
	}

	allocs := testing.AllocsPerRun(200, func() {
		if err := s.WritePage(a, buf); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadPage(a, got); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("page write + read: %.1f allocs", allocs)
	if allocs > 0 && !raceBuild() {
		t.Fatalf("page write + read allocates %.1f times, want 0", allocs)
	}
}

// raceBuild reports a -race build, whose sync.Pool drops a share of
// what it is given, so allocation counts are logged, not judged.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
