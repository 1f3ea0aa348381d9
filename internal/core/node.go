package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

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

// entry is one slot of a node in array-of-structs form: an object id
// plus its trajectory (leaf level), or a child page id plus its
// bounding rectangle.  Nodes do not hold entries; the algorithms that
// reorder a whole node (split, forced reinsertion) and the orphans of
// CondenseTree gather them.
type entry struct {
	id   uint32 // object id (leaf) or child PageID (internal)
	rect geom.TPRect
}

// vnode is the one decoded form of a page: the columnar image of one
// version of a node.  Entry coordinates are stored as four parallel
// column slices, so the kernels — the query filters, the bounding
// rectangle, ChooseSubtree, the purge — sweep contiguous memory.  For
// leaves the hi/vhi columns alias lo/vlo (a leaf entry is a degenerate
// rectangle), so one kernel serves both node kinds.  Every column is cut
// from one float64 slab at offsets fixed by the node's capacity, the ids
// included (a float64 holds every uint32 exactly), so an entry is
// appended or removed in place.
//
// A vnode is either a published version on its page's chain, immutable
// from then on, or the writer's private staged copy (see snapshot.go).
type vnode struct {
	// The chain link: the publication sequence, the next older version,
	// and whether the version is a tombstone (the page was freed at seq;
	// such a version has no columns).  prev is atomic because the writer
	// trims chains while readers walk them.
	seq   uint64
	prev  atomic.Pointer[vnode]
	freed bool

	id    storage.PageID
	level int // 0 = leaf
	dims  int
	count int
	ids   []float64 // object ids (leaf) or child page ids (internal)
	texp  []float64 // recorded expiration times (+Inf when absent)
	lo    []float64 // count*dims, entry-major: lo[i*dims+d]
	hi    []float64
	vlo   []float64
	vhi   []float64
	slab  []float64 // the backing array the columns are cut from
}

// slabNeed is the slab length a node of the given level needs for
// capN entries: ids and texp, plus two coordinate columns (leaf) or
// four (internal).
func slabNeed(level, capN, dims int) int {
	if level == 0 {
		return capN * (2 + 2*dims)
	}
	return capN * (2 + 4*dims)
}

// cut lays the columns of an empty node of the given level, with room
// for capN entries, over slab.
func (v *vnode) cut(slab []float64, level, capN, dims int) {
	v.slab, v.level, v.dims, v.count = slab, level, dims, 0
	v.ids = slab[0:0:capN]
	v.texp = slab[capN : capN : 2*capN]
	off, w := 2*capN, capN*dims
	col := func() []float64 {
		c := slab[off : off : off+w]
		off += w
		return c
	}
	v.lo, v.vlo = col(), col()
	v.hi, v.vhi = v.lo, v.vlo
	if level > 0 {
		v.hi, v.vhi = col(), col()
	}
}

// resize sets the entry count to n, which must not exceed the capacity
// the columns were cut with: a page's capacity plus the one entry of a
// transient overflow, or more for a node built under a larger layout.
// Entries beyond the old count are left as the slab holds them.
func (v *vnode) resize(n int) {
	w := n * v.dims
	v.count = n
	v.ids, v.texp = v.ids[:n], v.texp[:n]
	v.lo, v.vlo = v.lo[:w], v.vlo[:w]
	if v.level == 0 {
		v.hi, v.vhi = v.lo, v.vlo
		return
	}
	v.hi, v.vhi = v.hi[:w], v.vhi[:w]
}

// copyFrom makes v, a node of src's level with room for src's entries,
// a copy of them: one memmove per column.
func (v *vnode) copyFrom(src *vnode) {
	v.resize(src.count)
	copy(v.ids, src.ids)
	copy(v.texp, src.texp)
	copy(v.lo, src.lo)
	copy(v.vlo, src.vlo)
	if v.level > 0 {
		copy(v.hi, src.hi)
		copy(v.vhi, src.vhi)
	}
}

// oid returns entry i's object id (leaf) or child page id (internal).
func (v *vnode) oid(i int) uint32 { return uint32(v.ids[i]) }

// child returns entry i's child page id (internal nodes only).
func (v *vnode) child(i int) storage.PageID { return storage.PageID(v.ids[i]) }

// point returns leaf entry i's trajectory record.
func (v *vnode) point(i int) geom.MovingPoint {
	var p geom.MovingPoint
	b := i * v.dims
	for d := 0; d < v.dims; d++ {
		p.Pos[d] = v.lo[b+d]
		p.Vel[d] = v.vlo[b+d]
	}
	p.TExp = v.texp[i]
	return p
}

// rect loads entry i's rectangle into r: its first dims coordinates and
// its expiration time (the other coordinates of r are left alone).
func (v *vnode) rect(i int, r *geom.TPRect) {
	b := i * v.dims
	for d := 0; d < v.dims; d++ {
		r.Lo[d], r.Hi[d] = v.lo[b+d], v.hi[b+d]
		r.VLo[d], r.VHi[d] = v.vlo[b+d], v.vhi[b+d]
	}
	r.TExp = v.texp[i]
}

// entry returns entry i in array-of-structs form.
func (v *vnode) entry(i int) entry {
	e := entry{id: v.oid(i)}
	v.rect(i, &e.rect)
	return e
}

// appendEntries appends the node's entries, in order, to dst.
func (v *vnode) appendEntries(dst []entry) []entry {
	for i := 0; i < v.count; i++ {
		dst = append(dst, v.entry(i))
	}
	return dst
}

// set overwrites entry i.  A leaf stores the rectangle's low corner and
// low velocity only: a leaf entry's rectangle is a point.
func (v *vnode) set(i int, id uint32, r *geom.TPRect) {
	v.ids[i] = float64(id)
	v.setRect(i, r)
}

// setRect overwrites entry i's rectangle, keeping its id.
func (v *vnode) setRect(i int, r *geom.TPRect) {
	v.texp[i] = r.TExp
	b := i * v.dims
	for d := 0; d < v.dims; d++ {
		v.lo[b+d], v.vlo[b+d] = r.Lo[d], r.VLo[d]
	}
	if v.level > 0 {
		for d := 0; d < v.dims; d++ {
			v.hi[b+d], v.vhi[b+d] = r.Hi[d], r.VHi[d]
		}
	}
}

// appendEntry adds an entry after the last one.
func (v *vnode) appendEntry(id uint32, r *geom.TPRect) {
	v.resize(v.count + 1)
	v.set(v.count-1, id, r)
}

// setEntries replaces the node's entries by es, in order.
func (v *vnode) setEntries(es []entry) {
	v.resize(len(es))
	for i := range es {
		v.set(i, es[i].id, &es[i].rect)
	}
}

// removeAt deletes entry i, shifting the later entries down one slot so
// that entry order is kept.
func (v *vnode) removeAt(i int) {
	d := v.dims
	copy(v.ids[i:], v.ids[i+1:])
	copy(v.texp[i:], v.texp[i+1:])
	copy(v.lo[i*d:], v.lo[(i+1)*d:])
	copy(v.vlo[i*d:], v.vlo[(i+1)*d:])
	if v.level > 0 {
		copy(v.hi[i*d:], v.hi[(i+1)*d:])
		copy(v.vhi[i*d:], v.vhi[(i+1)*d:])
	}
	v.resize(v.count - 1)
}

// derivedExp is geom.DerivedExp of entry i, evaluated over the columns.
func (v *vnode) derivedExp(i int, now float64) float64 {
	e := math.Inf(1)
	b := i * v.dims
	for d := 0; d < v.dims; d++ {
		dv := v.vhi[b+d] - v.vlo[b+d]
		if dv >= 0 {
			continue
		}
		ext := (v.hi[b+d] - v.lo[b+d]) + dv*now
		if ext <= 0 {
			return now
		}
		if tz := now + ext/(-dv); tz < e {
			e = tz
		}
	}
	return e
}

// sameEntries reports whether v and w hold the same node: level, count
// and every column, value for value.
func (v *vnode) sameEntries(w *vnode) bool {
	return v.level == w.level && v.count == w.count && slices.Equal(v.ids, w.ids) && slices.Equal(v.texp, w.texp) &&
		slices.Equal(v.lo, w.lo) && slices.Equal(v.hi, w.hi) && slices.Equal(v.vlo, w.vlo) && slices.Equal(v.vhi, w.vhi)
}

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

// slabLen is the length of a standard slab: enough for a node of either
// class at its capacity plus the one entry of a transient overflow, so
// any retired slab fits any page.
func (l layout) slabLen() int {
	return max(slabNeed(0, l.leafCap+1, l.dims), slabNeed(1, l.innerCap+1, l.dims))
}

// newVnode returns an empty node of the given level on a fresh slab
// with room for at least capN entries.
func (l layout) newVnode(id storage.PageID, level, capN int) *vnode {
	capN = max(capN, l.cap(level)+1)
	v := &vnode{id: id}
	v.cut(make([]float64, max(l.slabLen(), slabNeed(level, capN, l.dims))), level, capN, l.dims)
	return v
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

// columns returns the coordinate columns a node's page stores, in page
// order — lo, hi, vlo, vhi, nil for a column the level does not store
// (a leaf's high bounds, a static rectangle's velocities) — and whether
// it stores the expiration time.
func (l layout) columns(v *vnode) (cols [4][]float64, exp bool) {
	cols[0] = v.lo
	if v.level == 0 {
		cols[2] = v.vlo
		return cols, l.leafHasExp
	}
	cols[1] = v.hi
	if !l.static {
		cols[2], cols[3] = v.vlo, v.vhi
	}
	return cols, l.storeExp
}

// encode renders the node's columns into a page buffer in the order
// decode reads them (see columns): a leaf's values are float32 already
// and are stored exactly, an internal entry's low bounds are rounded
// down and its high bounds and expiration time up.  The bytes after the last entry are
// zeroed, so the image is a function of the node alone: it does not
// depend on what the page held before, and a removed entry does not
// linger in page files and backups.
func (l layout) encode(v *vnode, buf []byte) {
	clear(buf[:nodeHeaderSize])
	buf[0] = byte(v.level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(v.count))
	off, d := nodeHeaderSize, l.dims
	for k := 0; k < v.count; k++ {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v.ids[k]))
		off += 4
		if v.level == 0 {
			for _, x := range v.lo[k*d : (k+1)*d] {
				off = put32(buf, off, float32(x))
			}
			for _, x := range v.vlo[k*d : (k+1)*d] {
				off = put32(buf, off, float32(x))
			}
			if l.leafHasExp {
				off = put32(buf, off, float32(v.texp[k]))
			}
			continue
		}
		lo, hi, vlo, vhi := v.lo[k*d:(k+1)*d], v.hi[k*d:(k+1)*d], v.vlo[k*d:(k+1)*d], v.vhi[k*d:(k+1)*d]
		for i := range lo {
			off = put32(buf, off, f32Down(lo[i]))
		}
		for i := range hi {
			off = put32(buf, off, f32Up(hi[i]))
		}
		if !l.static {
			for i := range vlo {
				off = put32(buf, off, f32Down(vlo[i]))
			}
			for i := range vhi {
				off = put32(buf, off, f32Up(vhi[i]))
			}
		}
		if l.storeExp {
			off = put32(buf, off, f32Up(v.texp[k]))
		}
	}
	clear(buf[off:])
}

// decode fills a fresh node's columns from a page buffer; a column the
// page does not store reads as zero, an expiration time as +Inf.
func (l layout) decode(id storage.PageID, buf []byte) (*vnode, error) {
	level := int(buf[0])
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if max := l.cap(level); count > max {
		return nil, fmt.Errorf("core: page %d: corrupt entry count %d (cap %d)", id, count, max)
	}
	v := l.newVnode(id, level, count)
	v.resize(count)
	cols, exp := l.columns(v)
	off, d := nodeHeaderSize, l.dims
	for k := 0; k < count; k++ {
		v.ids[k] = float64(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		for _, c := range cols {
			for i := k * d; c != nil && i < (k+1)*d; i++ {
				c[i], off = get32(buf, off)
			}
		}
		v.texp[k] = math.Inf(1)
		if exp {
			v.texp[k], off = get32(buf, off)
		}
	}
	return v, nil
}
