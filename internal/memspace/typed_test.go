package memspace

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"unsafe"
)

// TestHostByteOrderMatchesLayout pins the assumption typed views rest
// on: the host stores a float64 in the memory's little-endian layout.
// On a big-endian host this fails rather than letting native kernels
// read byte-swapped values.
func TestHostByteOrderMatchesLayout(t *testing.T) {
	m := New()
	a := m.Alloc(16, KindDevice)
	const x = -1234.5678e-9
	m.SetFloat64(a+8, x)
	f, err := m.NewView().Float64s(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f[1] != x {
		t.Fatalf("typed view reads %v where the little-endian layout holds %v: host byte order is not little-endian", f[1], x)
	}
	f[0] = math.Pi
	b, err := m.Bytes(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(b); got != math.Float64bits(math.Pi) {
		t.Fatalf("typed store laid out as %#x, want little-endian %#x", got, math.Float64bits(math.Pi))
	}
}

// TestFloat64sAliasesMemory: stores through a typed view are seen by the
// scalar accessors, byte views and Copy, and the reverse.
func TestFloat64sAliasesMemory(t *testing.T) {
	m := New()
	a := m.Alloc(64, KindDevice)
	h := m.Alloc(64, KindHostPinned)
	v := m.NewView()
	f, err := v.Float64s(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 8 || cap(f) != 8 {
		t.Fatalf("len/cap = %d/%d, want 8/8", len(f), cap(f))
	}

	f[3] = 6.5
	if got := m.Float64(a + 24); got != 6.5 {
		t.Fatalf("Memory.Float64 sees %v after typed store", got)
	}
	b, err := v.Bytes(a+24, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(b)); got != 6.5 {
		t.Fatalf("byte view sees %v after typed store", got)
	}
	if err := m.Copy(h, a, 64); err != nil {
		t.Fatal(err)
	}
	if got := m.Float64(h + 24); got != 6.5 {
		t.Fatalf("Copy of a typed store gave %v", got)
	}

	m.SetFloat64(a+40, -2.25)
	if f[5] != -2.25 {
		t.Fatalf("typed view sees %v after SetFloat64", f[5])
	}
	binary.LittleEndian.PutUint64(b, math.Float64bits(1.5))
	if f[3] != 1.5 {
		t.Fatalf("typed view sees %v after a byte store", f[3])
	}
	m.SetFloat64(h, 9)
	if err := m.Copy(a, h, 8); err != nil {
		t.Fatal(err)
	}
	if f[0] != 9 {
		t.Fatalf("typed view sees %v after Copy", f[0])
	}

	// A view at an interior aligned address starts at that element.
	g, err := v.Float64s(a+40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != -2.25 || len(g) != 3 {
		t.Fatalf("interior view = %v", g)
	}
}

// TestFloat64sRejectsBadRanges: every invalid request fails with an
// *AccessError (or, for n == 0, yields an empty slice), never a panic.
func TestFloat64sRejectsBadRanges(t *testing.T) {
	m := New()
	a := m.Alloc(64, KindDevice)
	freed := m.Alloc(64, KindDevice)
	if err := m.Free(freed); err != nil {
		t.Fatal(err)
	}
	v := m.NewView()
	for _, tc := range []struct {
		name string
		a    Addr
		n    int64
	}{
		{"misaligned", a + 4, 1},
		{"misaligned by one", a + 1, 0},
		{"past the end", a + 8, 8},
		{"whole segment plus one", a, 9},
		{"freed segment", freed, 1},
		{"null", 0, 1},
		{"negative count", a, -1},
		{"overflowing count", a, math.MaxInt64/8 + 1},
		{"largest count", a, math.MaxInt64 / 8},
	} {
		f, err := v.Float64s(tc.a, tc.n)
		var ae *AccessError
		if !errors.As(err, &ae) {
			t.Errorf("%s: err = %v, want *AccessError", tc.name, err)
		}
		if f != nil {
			t.Errorf("%s: got a slice of %d elements alongside the error", tc.name, len(f))
		}
	}
	for _, at := range []Addr{a, a + 32} {
		f, err := v.Float64s(at, 0)
		if err != nil || len(f) != 0 {
			t.Errorf("n == 0 at 0x%x: %d elements, err %v", uint64(at), len(f), err)
		}
	}
}

// TestBackingAligned: every segment's bytes, whatever its size, start
// on an 8-byte boundary of host memory, so typed views are aligned.
func TestBackingAligned(t *testing.T) {
	m := New()
	sizes := []int64{0, 1, 3, 8, 13, 64, 1000}
	for _, size := range sizes {
		m.Alloc(size, KindHostPageable)
	}
	for i, seg := range m.Segments() {
		d := seg.Data()
		if int64(len(d)) != sizes[i] {
			t.Fatalf("size %d: Data has %d bytes", sizes[i], len(d))
		}
		if len(d) > 0 && uintptr(unsafe.Pointer(&d[0]))%8 != 0 {
			t.Fatalf("size %d: backing starts at %p, not 8-byte aligned", sizes[i], &d[0])
		}
	}
}
