package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"rexptree/internal/geom"
	"rexptree/internal/hull"
	"rexptree/internal/storage"
)

// Node pages store float32 coordinates, as the fan-outs reported in
// the paper imply (170 leaf entries and 102 internal entries per 4 KiB
// page in two dimensions).  Bounding-rectangle coordinates are rounded
// outward on encoding so that float32 round-off can never break
// containment; data points are quantized to float32 on insertion so
// that the stored trajectory is exactly the one that was bounded.

// entry is one slot of a node: an object id plus its trajectory (leaf
// level), or a child page id plus its bounding rectangle.
type entry struct {
	id   uint32 // object id (leaf) or child PageID (internal)
	rect geom.TPRect
}

// child returns the entry's child page id (internal nodes only).
func (e entry) child() storage.PageID { return storage.PageID(e.id) }

// point returns the leaf entry's trajectory record.
func (e entry) point() geom.MovingPoint {
	return geom.MovingPoint{Pos: e.rect.Lo, Vel: e.rect.VLo, TExp: e.rect.TExp}
}

// node is the in-memory image of one tree page.
type node struct {
	id      storage.PageID
	level   int // 0 = leaf
	entries []entry

	// stale is set when the node was written since its page was last
	// encoded; the buffer pool asks for the bytes when it needs them
	// (Tree.encodePage), or Sync renders them (Tree.imagesAtSync).
	stale bool
}

func (n *node) isLeaf() bool { return n.level == 0 }

// layout describes the on-page format implied by a Config.
type layout struct {
	dims       int
	static     bool // internal entries carry no velocities
	storeExp   bool // internal entries carry an expiration time
	leafHasExp bool // leaf entries carry an expiration time
	leafSize   int  // bytes per leaf entry
	innerSize  int  // bytes per internal entry
	leafCap    int  // max entries in a leaf
	innerCap   int  // max entries in an internal node
	leafMin    int  // min live entries in a non-root leaf
	innerMin   int  // min live entries in a non-root internal node
}

const nodeHeaderSize = 16

func newLayout(cfg Config) layout {
	l := layout{
		dims:       cfg.Dims,
		static:     cfg.BRKind == hull.KindStatic,
		storeExp:   cfg.StoreBRExp,
		leafHasExp: cfg.ExpireAware,
	}
	l.leafSize = 4 + 2*4*cfg.Dims // oid, pos, vel
	if l.leafHasExp {
		l.leafSize += 4 // texp
	}
	l.innerSize = 4 + 2*4*cfg.Dims // child, lo, hi
	if !l.static {
		l.innerSize += 2 * 4 * cfg.Dims // vlo, vhi
	}
	if l.storeExp {
		l.innerSize += 4
	}
	l.leafCap = (storage.PageSize - nodeHeaderSize) / l.leafSize
	l.innerCap = (storage.PageSize - nodeHeaderSize) / l.innerSize
	l.leafMin = int(float64(l.leafCap) * 0.4)
	l.innerMin = int(float64(l.innerCap) * 0.4)
	return l
}

func (l layout) cap(level int) int {
	if level == 0 {
		return l.leafCap
	}
	return l.innerCap
}

func (l layout) min(level int) int {
	if level == 0 {
		return l.leafMin
	}
	return l.innerMin
}

// f32Down converts x to the largest float32 not exceeding x.  The
// rounding step is out of line so the common exact case inlines.
func f32Down(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		return f32Below(f)
	}
	return f
}

// f32Up converts x to the smallest float32 not below x.
func f32Up(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		return f32Above(f)
	}
	return f
}

//go:noinline
func f32Below(f float32) float32 { return math.Nextafter32(f, float32(math.Inf(-1))) }

//go:noinline
func f32Above(f float32) float32 { return math.Nextafter32(f, float32(math.Inf(1))) }

// quantize rounds a trajectory record to the float32 precision it will
// have on the page, so that in-memory state and page state agree
// exactly.
func quantize(p geom.MovingPoint, dims int) geom.MovingPoint {
	for i := 0; i < dims; i++ {
		p.Pos[i] = float64(float32(p.Pos[i]))
		p.Vel[i] = float64(float32(p.Vel[i]))
	}
	p.TExp = float64(float32(p.TExp))
	return p
}

func put32(buf []byte, off int, v float32) int {
	binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
	return off + 4
}

func get32(buf []byte, off int) (float64, int) {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))), off + 4
}

// encode serializes n into a page buffer.  The bytes after the last
// entry are zeroed, so the image is a function of the node alone: it
// does not depend on what the page held before, and a removed entry
// does not linger in page files and backups.
func (l layout) encode(n *node, buf []byte) {
	for i := range buf[:nodeHeaderSize] {
		buf[i] = 0
	}
	buf[0] = byte(n.level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.entries)))
	off := nodeHeaderSize
	for k := range n.entries {
		e := &n.entries[k]
		binary.LittleEndian.PutUint32(buf[off:], e.id)
		off += 4
		if n.isLeaf() {
			for i := 0; i < l.dims; i++ {
				off = put32(buf, off, float32(e.rect.Lo[i]))
			}
			for i := 0; i < l.dims; i++ {
				off = put32(buf, off, float32(e.rect.VLo[i]))
			}
			if l.leafHasExp {
				off = put32(buf, off, float32(e.rect.TExp))
			}
			continue
		}
		for i := 0; i < l.dims; i++ {
			off = put32(buf, off, f32Down(e.rect.Lo[i]))
		}
		for i := 0; i < l.dims; i++ {
			off = put32(buf, off, f32Up(e.rect.Hi[i]))
		}
		if !l.static {
			for i := 0; i < l.dims; i++ {
				off = put32(buf, off, f32Down(e.rect.VLo[i]))
			}
			for i := 0; i < l.dims; i++ {
				off = put32(buf, off, f32Up(e.rect.VHi[i]))
			}
		}
		if l.storeExp {
			off = put32(buf, off, f32Up(e.rect.TExp))
		}
	}
	clear(buf[off:])
}

// decode deserializes a page buffer into a node.
func (l layout) decode(id storage.PageID, buf []byte) (*node, error) {
	n := &node{id: id, level: int(buf[0])}
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if max := l.cap(n.level); count > max {
		return nil, fmt.Errorf("core: page %d: corrupt entry count %d (cap %d)", id, count, max)
	}
	n.entries = make([]entry, count)
	off := nodeHeaderSize
	for k := 0; k < count; k++ {
		e := &n.entries[k]
		e.id = binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if n.isLeaf() {
			for i := 0; i < l.dims; i++ {
				e.rect.Lo[i], off = get32(buf, off)
			}
			e.rect.Hi = e.rect.Lo
			for i := 0; i < l.dims; i++ {
				e.rect.VLo[i], off = get32(buf, off)
			}
			e.rect.VHi = e.rect.VLo
			if l.leafHasExp {
				e.rect.TExp, off = get32(buf, off)
			} else {
				e.rect.TExp = math.Inf(1)
			}
			continue
		}
		for i := 0; i < l.dims; i++ {
			e.rect.Lo[i], off = get32(buf, off)
		}
		for i := 0; i < l.dims; i++ {
			e.rect.Hi[i], off = get32(buf, off)
		}
		if !l.static {
			for i := 0; i < l.dims; i++ {
				e.rect.VLo[i], off = get32(buf, off)
			}
			for i := 0; i < l.dims; i++ {
				e.rect.VHi[i], off = get32(buf, off)
			}
		}
		if l.storeExp {
			e.rect.TExp, off = get32(buf, off)
		} else {
			e.rect.TExp = math.Inf(1)
		}
	}
	return n, nil
}
