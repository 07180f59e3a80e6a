// Package memspace implements the simulated unified virtual address (UVA)
// space that every rank of a cusango program runs against.
//
// All application data — host-pageable, host-pinned (page-locked), device,
// and CUDA-managed memory — lives inside one Memory object per rank.
// Pointers are plain Addr values. As with CUDA's UVA design, the memory
// kind of any pointer is recoverable from the address alone (the address
// space is partitioned per kind), which is what allows the simulated
// CUDA-aware MPI library to accept device pointers directly and what lets
// TypeART and CuSan classify pointers without side channels.
package memspace

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Addr is a simulated 64-bit virtual address. The zero value is the null
// pointer and is never a valid allocation address.
type Addr uint64

// Kind classifies where an allocation lives and how it was allocated.
// It determines implicit synchronization behaviour of CUDA memory
// operations (paper §III-C).
type Kind uint8

const (
	// KindInvalid marks an address that belongs to no live allocation.
	KindInvalid Kind = iota
	// KindHostPageable is ordinary host memory (malloc analog).
	KindHostPageable
	// KindHostPinned is page-locked host memory (cudaHostAlloc analog).
	KindHostPinned
	// KindDevice is device-resident memory (cudaMalloc analog).
	KindDevice
	// KindManaged is CUDA-managed memory (cudaMallocManaged analog),
	// accessible from host and device.
	KindManaged
)

func (k Kind) String() string {
	switch k {
	case KindHostPageable:
		return "host-pageable"
	case KindHostPinned:
		return "host-pinned"
	case KindDevice:
		return "device"
	case KindManaged:
		return "managed"
	default:
		return "invalid"
	}
}

// Base addresses of the per-kind regions. Each region is 2^40 bytes, far
// larger than any simulation will allocate; the partition makes KindOf a
// pure address computation, mirroring UVA.
const (
	regionShift             = 40
	baseHostPageable Addr   = 1 << regionShift
	baseHostPinned   Addr   = 2 << regionShift
	baseDevice       Addr   = 3 << regionShift
	baseManaged      Addr   = 4 << regionShift
	regionMask       uint64 = (1 << regionShift) - 1
)

// KindOf reports the memory kind encoded in an address. It does not check
// whether the address belongs to a live allocation; use Memory.Resolve for
// that.
func KindOf(a Addr) Kind {
	switch a >> regionShift {
	case 1:
		return KindHostPageable
	case 2:
		return KindHostPinned
	case 3:
		return KindDevice
	case 4:
		return KindManaged
	default:
		return KindInvalid
	}
}

// IsDeviceAccessible reports whether a pointer of this kind may be passed
// to a kernel.
func (k Kind) IsDeviceAccessible() bool {
	return k == KindDevice || k == KindManaged || k == KindHostPinned
}

// IsHostAccessible reports whether host code may dereference a pointer of
// this kind directly.
func (k Kind) IsHostAccessible() bool {
	return k == KindHostPageable || k == KindHostPinned || k == KindManaged
}

// Segment describes one live allocation.
type Segment struct {
	Base Addr
	Size int64
	Kind Kind
	data []byte
}

// Data returns the segment's backing bytes. The slice aliases the live
// allocation; writes through it are visible to subsequent loads.
func (s *Segment) Data() []byte { return s.data }

// End returns the first address past the segment.
func (s *Segment) End() Addr { return s.Base + Addr(s.Size) }

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(a Addr) bool { return a >= s.Base && a < s.End() }

// AccessError describes an out-of-bounds or invalid-pointer access.
type AccessError struct {
	Op   string
	Addr Addr
	Len  int64
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("memspace: invalid %s of %d byte(s) at 0x%x (%s region)",
		e.Op, e.Len, uint64(e.Addr), KindOf(e.Addr))
}

// Memory is one rank's simulated address space. It is not safe for
// concurrent mutation; the kernel interpreter obtains raw byte views via
// Bytes before fanning out across workers.
type Memory struct {
	next [5]Addr // bump pointer per kind (indexed by Kind)
	segs []*Segment
	// lastHit caches the most recently resolved segment; host programs
	// exhibit extreme locality, and this keeps the hot path allocation-free.
	lastHit *Segment

	allocHooks []AllocHook
	freeHooks  []FreeHook

	liveBytes int64
	peakBytes int64

	// fault is the first invalid scalar access (sticky; see AccessFault).
	fault *AccessError
}

// AllocHook observes allocations (the TypeART instrumentation analog keys
// off these).
type AllocHook func(seg *Segment)

// FreeHook observes frees.
type FreeHook func(seg *Segment)

// New creates an empty address space.
func New() *Memory {
	m := &Memory{}
	m.next[KindHostPageable] = baseHostPageable
	m.next[KindHostPinned] = baseHostPinned
	m.next[KindDevice] = baseDevice
	m.next[KindManaged] = baseManaged
	return m
}

// OnAlloc registers a hook invoked after every allocation.
func (m *Memory) OnAlloc(h AllocHook) { m.allocHooks = append(m.allocHooks, h) }

// OnFree registers a hook invoked before every free.
func (m *Memory) OnFree(h FreeHook) { m.freeHooks = append(m.freeHooks, h) }

// allocAlign is the alignment of every segment base: cache-line-ish,
// keeps granules aligned, and a multiple of 8 so that typed views line
// up with the backing store (see typed.go).
const allocAlign = 64

// Alloc reserves size bytes of the given kind and returns the base address.
// The memory is zeroed. Alloc panics if kind is invalid or size < 0; a
// zero-size allocation returns a unique, non-dereferenceable address.
func (m *Memory) Alloc(size int64, kind Kind) Addr {
	if kind == KindInvalid || kind > KindManaged {
		panic(fmt.Sprintf("memspace: Alloc with invalid kind %d", kind))
	}
	if size < 0 {
		panic(fmt.Sprintf("memspace: Alloc with negative size %d", size))
	}
	base := m.next[kind]
	reserve := (size + allocAlign - 1) &^ (allocAlign - 1)
	if reserve == 0 {
		reserve = allocAlign
	}
	m.next[kind] += Addr(reserve)
	if m.next[kind]>>regionShift != base>>regionShift {
		panic(fmt.Sprintf("memspace: %v region exhausted", kind))
	}
	seg := &Segment{Base: base, Size: size, Kind: kind, data: newBacking(size)}
	m.insert(seg)
	m.liveBytes += size
	if m.liveBytes > m.peakBytes {
		m.peakBytes = m.liveBytes
	}
	for _, h := range m.allocHooks {
		h(seg)
	}
	return base
}

// Free releases the allocation with the given base address. It is an error
// (returned, not panicked, so correctness tools can report it) to free an
// interior pointer, a dangling pointer, or null.
func (m *Memory) Free(base Addr) error {
	i := m.find(base)
	if i < 0 || m.segs[i].Base != base {
		return &AccessError{Op: "free", Addr: base, Len: 0}
	}
	seg := m.segs[i]
	for _, h := range m.freeHooks {
		h(seg)
	}
	m.liveBytes -= seg.Size
	m.segs = append(m.segs[:i], m.segs[i+1:]...)
	if m.lastHit == seg {
		m.lastHit = nil
	}
	return nil
}

// insert keeps segs sorted by base address.
func (m *Memory) insert(seg *Segment) {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Base > seg.Base })
	m.segs = append(m.segs, nil)
	copy(m.segs[i+1:], m.segs[i:])
	m.segs[i] = seg
}

// find returns the index of the segment containing a, or -1.
func (m *Memory) find(a Addr) int {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Base > a })
	i--
	if i >= 0 && m.segs[i].Contains(a) {
		return i
	}
	return -1
}

// Resolve returns the live segment containing a (interior pointers are
// fine), or nil if a points into no live allocation.
func (m *Memory) Resolve(a Addr) *Segment {
	if s := m.lastHit; s != nil && s.Contains(a) {
		return s
	}
	if i := m.find(a); i >= 0 {
		m.lastHit = m.segs[i]
		return m.segs[i]
	}
	return nil
}

// Bytes returns a mutable byte view of [a, a+n). The whole range must lie
// inside a single live allocation.
func (m *Memory) Bytes(a Addr, n int64) ([]byte, error) {
	if n < 0 {
		return nil, &AccessError{Op: "range", Addr: a, Len: n}
	}
	seg := m.Resolve(a)
	if seg == nil || a+Addr(n) > seg.End() || a+Addr(n) < a {
		return nil, &AccessError{Op: "range", Addr: a, Len: n}
	}
	off := int64(a - seg.Base)
	return seg.data[off : off+n : off+n], nil
}

// access is the scalar-accessor range check. On an invalid range it
// records the first fault (sticky) and returns nil instead of panicking;
// loads then read zero and stores become no-ops, and the fault surfaces
// through AccessFault at the end of the run. This mirrors how a real
// process would fault on the access: the run is doomed either way, but
// the tool gets to report it as a structured application fault rather
// than crashing the checker.
func (m *Memory) access(a Addr, n int64, op string) []byte {
	b, err := m.Bytes(a, n)
	if err != nil {
		if m.fault == nil {
			ae := err.(*AccessError)
			m.fault = &AccessError{Op: op, Addr: ae.Addr, Len: ae.Len}
		}
		return nil
	}
	return b
}

// AccessFault returns the first invalid scalar access recorded by the
// load/store accessors, or nil if all accesses were in bounds.
func (m *Memory) AccessFault() *AccessError { return m.fault }

// LiveBytes returns the currently allocated payload bytes.
func (m *Memory) LiveBytes() int64 { return m.liveBytes }

// PeakBytes returns the high-water mark of allocated payload bytes.
func (m *Memory) PeakBytes() int64 { return m.peakBytes }

// NumSegments returns the number of live allocations.
func (m *Memory) NumSegments() int { return len(m.segs) }

// Segments returns the live allocations in address order. The returned
// slice is a copy; the *Segment values are live.
func (m *Memory) Segments() []*Segment {
	out := make([]*Segment, len(m.segs))
	copy(out, m.segs)
	return out
}

// --- scalar accessors -------------------------------------------------
//
// These are the raw (uninstrumented) loads and stores. Application host
// code goes through core.Session accessors, which add TSan instrumentation
// when the flavor asks for it — the analog of compiling with -fsanitize=thread.

// Float64 loads a float64 at a. An invalid address records a sticky
// fault (see AccessFault) and loads zero.
func (m *Memory) Float64(a Addr) float64 {
	b := m.access(a, 8, "load")
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// SetFloat64 stores v at a. An invalid address records a sticky fault
// and drops the store.
func (m *Memory) SetFloat64(a Addr, v float64) {
	if b := m.access(a, 8, "store"); b != nil {
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	}
}

// Int64 loads an int64 at a.
func (m *Memory) Int64(a Addr) int64 {
	b := m.access(a, 8, "load")
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// SetInt64 stores v at a.
func (m *Memory) SetInt64(a Addr, v int64) {
	if b := m.access(a, 8, "store"); b != nil {
		binary.LittleEndian.PutUint64(b, uint64(v))
	}
}

// Int32 loads an int32 at a.
func (m *Memory) Int32(a Addr) int32 {
	b := m.access(a, 4, "load")
	if b == nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(b))
}

// SetInt32 stores v at a.
func (m *Memory) SetInt32(a Addr, v int32) {
	if b := m.access(a, 4, "store"); b != nil {
		binary.LittleEndian.PutUint32(b, uint32(v))
	}
}

// Byte loads a single byte at a.
func (m *Memory) Byte(a Addr) byte {
	b := m.access(a, 1, "load")
	if b == nil {
		return 0
	}
	return b[0]
}

// SetByte stores a single byte at a.
func (m *Memory) SetByte(a Addr, v byte) {
	if b := m.access(a, 1, "store"); b != nil {
		b[0] = v
	}
}

// Copy copies n bytes from src to dst. Ranges may be in different kinds
// (this is what cudaMemcpy and the CUDA-aware MPI transport use). dst and
// src may overlap.
func (m *Memory) Copy(dst, src Addr, n int64) error {
	db, err := m.Bytes(dst, n)
	if err != nil {
		return err
	}
	sb, err := m.Bytes(src, n)
	if err != nil {
		return err
	}
	copy(db, sb)
	return nil
}

// Set fills n bytes at a with v (the cudaMemset payload behaviour).
func (m *Memory) Set(a Addr, v byte, n int64) error {
	b, err := m.Bytes(a, n)
	if err != nil {
		return err
	}
	for i := range b {
		b[i] = v
	}
	return nil
}
