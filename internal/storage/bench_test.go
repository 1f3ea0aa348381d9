package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkBufferPoolHit(b *testing.B) {
	store := NewMemStore()
	bp := NewBufferPool(store, 8)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _, err := bp.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Get(ids[i%8]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferPoolMissEvict(b *testing.B) {
	store := NewMemStore()
	var ids []PageID
	for i := 0; i < 64; i++ {
		id, err := store.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	bp := NewBufferPool(store, 8)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Get(ids[rng.Intn(64)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileStoreWrite(b *testing.B) {
	s, err := CreateFileStore(b.TempDir() + "/bench.db")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, err := s.Allocate()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		if err := s.WritePage(id, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushOneDirty dirties and flushes one page of a pool whose
// other frames are resident and clean: the cost follows the dirty
// pages, so it is the same at every pool size.
func BenchmarkFlushOneDirty(b *testing.B) {
	for _, resident := range []int{64, 4096} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			bp := NewBufferPool(NewMemStore(), resident)
			var id PageID
			for i := 0; i < resident; i++ {
				var err error
				if id, _, err = bp.Allocate(); err != nil {
					b.Fatal(err)
				}
			}
			if err := bp.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bp.MarkDirty(id); err != nil {
					b.Fatal(err)
				}
				if err := bp.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
