// Package btree implements a disk-page B+-tree on the composite key
// (expiration time, object id).  The paper's §3 discusses managing
// scheduled deletions of expiring objects with exactly this structure:
// the queue of scheduled deletion events must support efficient
// insertion, deletion of arbitrary events (an object may be updated
// before it expires), and retrieval of the earliest event.
//
// The tree shares the storage substrate of the main index (4 KiB
// pages behind an LRU buffer pool) so its I/O can be charged —
// or deliberately ignored, as the paper's Figure 16 does — by the
// experiment harness.
package btree

import (
	"encoding/binary"
	"fmt"
	"math"

	"rexptree/internal/storage"
)

// Key is the composite ordering key.
type Key struct {
	TExp float64 // stored as float32 on the page
	OID  uint32
}

// Less orders keys by (TExp, OID).
func (k Key) Less(o Key) bool {
	if k.TExp != o.TExp {
		return k.TExp < o.TExp
	}
	return k.OID < o.OID
}

// quantize rounds the key to its page representation.
func (k Key) quantize() Key {
	k.TExp = float64(float32(k.TExp))
	return k
}

const (
	headerSize = 16
	keySize    = 8 // float32 texp + uint32 oid

	leafCap  = (storage.PageSize - headerSize) / keySize           // 510
	innerCap = (storage.PageSize - headerSize - 4) / (keySize + 4) // 339

	leafMin  = leafCap * 2 / 5
	innerMin = innerCap * 2 / 5
)

// node is the in-memory image of a B+-tree page.
type node struct {
	id     storage.PageID
	leaf   bool
	keys   []Key
	childs []storage.PageID // len(keys)+1 when internal
	next   storage.PageID   // right sibling (leaf level)
}

// BTree is a B+-tree over a page store.  Not safe for concurrent use.
type BTree struct {
	bp     *storage.BufferPool
	root   storage.PageID
	height int
	size   int
}

// New creates an empty B+-tree over the store.
func New(store storage.Store, bufferPages int) (*BTree, error) {
	b := &BTree{bp: storage.NewBufferPool(store, bufferPages)}
	root, err := b.allocNode(true)
	if err != nil {
		return nil, err
	}
	if err := b.writeNode(root); err != nil {
		return nil, err
	}
	b.root = root.id
	b.height = 1
	if err := b.bp.Pin(b.root); err != nil {
		return nil, err
	}
	return b, nil
}

// Len returns the number of stored keys.
func (b *BTree) Len() int { return b.size }

// Height returns the number of levels.
func (b *BTree) Height() int { return b.height }

// Stats returns the accumulated I/O counters of the tree's buffer
// pool.
func (b *BTree) Stats() storage.Stats { return b.bp.Stats() }

// ResetStats zeroes the I/O counters.
func (b *BTree) ResetStats() { b.bp.ResetStats() }

func (b *BTree) allocNode(leaf bool) (*node, error) {
	id, _, err := b.bp.Allocate()
	if err != nil {
		return nil, err
	}
	return &node{id: id, leaf: leaf, next: storage.InvalidPage}, nil
}

func putKey(buf []byte, off int, k Key) int {
	binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(k.TExp)))
	binary.LittleEndian.PutUint32(buf[off+4:], k.OID)
	return off + keySize
}

func getKey(buf []byte, off int) (Key, int) {
	return Key{
		TExp: float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))),
		OID:  binary.LittleEndian.Uint32(buf[off+4:]),
	}, off + keySize
}

func (b *BTree) writeNode(n *node) error {
	buf, err := b.bp.Get(n.id)
	if err != nil {
		return err
	}
	for i := range buf[:headerSize] {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.keys)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(n.next))
	off := headerSize
	if n.leaf {
		for _, k := range n.keys {
			off = putKey(buf, off, k)
		}
	} else {
		binary.LittleEndian.PutUint32(buf[off:], uint32(n.childs[0]))
		off += 4
		for i, k := range n.keys {
			off = putKey(buf, off, k)
			binary.LittleEndian.PutUint32(buf[off:], uint32(n.childs[i+1]))
			off += 4
		}
	}
	return b.bp.MarkDirty(n.id)
}

func (b *BTree) readNode(id storage.PageID) (*node, error) {
	buf, err := b.bp.Get(id)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: buf[0] == 1}
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	n.next = storage.PageID(binary.LittleEndian.Uint32(buf[4:]))
	maxCount := innerCap
	if n.leaf {
		maxCount = leafCap
	}
	if count > maxCount {
		return nil, fmt.Errorf("btree: page %d: corrupt count %d", id, count)
	}
	n.keys = make([]Key, count)
	off := headerSize
	if n.leaf {
		for i := range n.keys {
			n.keys[i], off = getKey(buf, off)
		}
		return n, nil
	}
	n.childs = make([]storage.PageID, count+1)
	n.childs[0] = storage.PageID(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	for i := range n.keys {
		n.keys[i], off = getKey(buf, off)
		n.childs[i+1] = storage.PageID(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	return n, nil
}

// childIndex returns the index of the child to descend into for k.
func (n *node) childIndex(k Key) int {
	i := 0
	for i < len(n.keys) && !k.Less(n.keys[i]) {
		i++
	}
	return i
}

// keyIndex returns the position of k in a leaf (insertion point) and
// whether an equal key is present there.
func (n *node) keyIndex(k Key) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == k
}
