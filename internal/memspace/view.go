package memspace

import (
	"math"
	"sort"
)

// View is an immutable snapshot of the segment table for concurrent
// readers. The kernel interpreter creates one View per worker goroutine so
// that device "threads" can resolve pointers without synchronizing on the
// Memory object (whose Resolve cache is single-threaded).
//
// Segments in a View alias the live allocations: loads and stores through
// a View are visible to the owning Memory and vice versa. Allocating or
// freeing while Views exist is the caller's bug (the simulated CUDA
// runtime never mutates the address space while a kernel is in flight).
type View struct {
	segs []*Segment
	last *Segment
}

// NewView snapshots the current segment table.
func (m *Memory) NewView() *View {
	segs := make([]*Segment, len(m.segs))
	copy(segs, m.segs)
	return &View{segs: segs}
}

// Clone returns an independent View (own cache) over the same snapshot.
func (v *View) Clone() *View {
	return &View{segs: v.segs}
}

// Resolve returns the segment containing a, or nil.
func (v *View) Resolve(a Addr) *Segment {
	if s := v.last; s != nil && s.Contains(a) {
		return s
	}
	i := sort.Search(len(v.segs), func(i int) bool { return v.segs[i].Base > a })
	i--
	if i >= 0 && v.segs[i].Contains(a) {
		v.last = v.segs[i]
		return v.segs[i]
	}
	return nil
}

// Bytes returns a byte view of [a, a+n), or nil with an error if the range
// is not contained in a single segment.
func (v *View) Bytes(a Addr, n int64) ([]byte, error) {
	seg := v.Resolve(a)
	if seg == nil || n < 0 || a+Addr(n) > seg.End() || a+Addr(n) < a {
		return nil, &AccessError{Op: "view-range", Addr: a, Len: n}
	}
	off := int64(a - seg.Base)
	return seg.data[off : off+n : off+n], nil
}

// Float64s returns the n float64 elements at [a, a+8n) as a typed slice
// that aliases the live bytes (see typed.go for the layout). It makes
// the checks of Bytes and also fails with an *AccessError if a is not
// 8-byte aligned.
func (v *View) Float64s(a Addr, n int64) ([]float64, error) {
	if n < 0 || n > math.MaxInt64/8 {
		return nil, &AccessError{Op: "view-range", Addr: a, Len: n}
	}
	if a%8 != 0 {
		return nil, &AccessError{Op: "view-misaligned", Addr: a, Len: 8 * n}
	}
	b, err := v.Bytes(a, 8*n)
	if err != nil {
		return nil, err
	}
	return float64s(b), nil
}
