package memspace

import "unsafe"

// Device memory layout.
//
// A segment's bytes live in a []uint64, so each segment starts on an
// 8-byte boundary of host memory, as its simulated base does (allocAlign
// is a multiple of 8): an 8-byte-aligned Addr is 8-byte aligned in the
// backing store too. Multi-byte values are little-endian (the scalar
// accessors encode with encoding/binary), which on a little-endian host
// is also the native layout. A float64 at an aligned address can
// therefore be read and written in place through a []float64 that
// aliases the bytes; native kernels do so through View.Float64s, while
// memcpy, MPI, TypeART, TSan and the interpreter keep working on the
// same bytes. This file holds the only use of unsafe outside tests.

// newBacking returns size zeroed bytes that start at an 8-byte-aligned
// host address.
func newBacking(size int64) []byte {
	words := make([]uint64, (size+7)/8)
	if len(words) == 0 {
		return []byte{}
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
}

// float64s reinterprets b as float64s. b must start at an 8-byte-aligned
// offset of a backing store made by newBacking and have a length that is
// a multiple of 8.
func float64s(b []byte) []float64 {
	if len(b) == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}
