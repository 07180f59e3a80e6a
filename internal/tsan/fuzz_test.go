package tsan

import (
	"math/bits"
	"testing"

	"cusango/internal/vclock"
)

// FuzzShadowCellRoundTrip pins the shadow-cell packing invariants that
// both range engines depend on:
//
//   - encode/decode is lossless for in-range (fiber, epoch, write, mask);
//   - the zero word is reserved for "empty" — no real access (mask != 0,
//     fiber/epoch in range with epoch >= 1) encodes to zero;
//   - the write flag lives in bit 11, the fiber in bits 63..52 (the
//     layout DESIGN.md §16 documents).
func FuzzShadowCellRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint64(1), false, byte(0xFF))
	f.Add(uint16(1), uint64(1), true, byte(0x01))
	f.Add(uint16(maxFiberID), uint64(maxEpoch), true, byte(0xFF))
	f.Add(uint16(7), uint64(1)<<39, false, byte(0x3C))
	f.Add(uint16(4095), uint64(42), true, byte(0x80))
	f.Fuzz(func(t *testing.T, fiber uint16, epoch uint64, write bool, mask byte) {
		fiber &= maxFiberID
		epoch &= maxEpoch
		c := encodeCell(int(fiber), vclock.Epoch(epoch), write, mask)
		gotFiber, gotEp, gotWrite, gotMask := decodeCell(c)
		if gotFiber != int(fiber) || gotEp != vclock.Epoch(epoch) ||
			gotWrite != write || gotMask != mask {
			t.Fatalf("round trip: (%d,%d,%v,%#x) -> %#x -> (%d,%d,%v,%#x)",
				fiber, epoch, write, mask, c, gotFiber, gotEp, gotWrite, gotMask)
		}
		if mask != 0 && epoch >= 1 && c == 0 {
			t.Fatalf("real access (%d,%d,%v,%#x) encoded to the empty word",
				fiber, epoch, write, mask)
		}
		// Raw field extraction by the documented layout must agree with
		// decodeCell.
		wbit := uint64(0)
		if write {
			wbit = 1
		}
		if c>>52 != uint64(fiber) || c>>11&1 != wbit {
			t.Fatalf("raw shift extraction disagrees with decodeCell for %#x", c)
		}
	})
}

// FuzzPartialMask pins the mask-geometry invariants: for any granule
// overlapping [start, end), the mask is a contiguous run of bits whose
// population count equals the byte overlap, and it agrees bit-by-bit
// with the definition "bit i set iff byte gBase+i is in range".
func FuzzPartialMask(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(8))
	f.Add(uint64(0), uint64(3), uint64(23))
	f.Add(uint64(32760), uint64(32755), uint64(32775))
	f.Add(uint64(8), uint64(1), uint64(9))
	f.Fuzz(func(t *testing.T, gBase, start, end uint64) {
		gBase &^= granuleBytes - 1
		// Constrain to overlapping, well-formed ranges; discard the rest.
		if end <= start || end-start > 1<<30 {
			t.Skip()
		}
		if start >= gBase+granuleBytes || end <= gBase {
			t.Skip()
		}
		m := partialMask(gBase, start, end)
		var want uint8
		overlap := 0
		for i := uint64(0); i < granuleBytes; i++ {
			if b := gBase + i; b >= start && b < end {
				want |= 1 << i
				overlap++
			}
		}
		if m != want {
			t.Fatalf("partialMask(%d, %d, %d) = %#x, want %#x", gBase, start, end, m, want)
		}
		if bits.OnesCount8(m) != overlap {
			t.Fatalf("popcount %d != overlap %d", bits.OnesCount8(m), overlap)
		}
		// Contiguity: the set bits form one run.
		if m != 0 {
			shifted := m >> bits.TrailingZeros8(m)
			if shifted&(shifted+1) != 0 {
				t.Fatalf("mask %#x is not a contiguous run", m)
			}
		}
	})
}
