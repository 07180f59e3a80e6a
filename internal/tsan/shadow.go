package tsan

import (
	"slices"

	"cusango/internal/vclock"
)

// Shadow memory layout.
//
// Application memory is divided into 8-byte granules. Each granule owns K
// shadow cells; a cell packs one recorded access into a single uint64
// (the TSan shadow-word discipline):
//
//	bits 63..52  fiber id   (12 bits, up to 4095 fibers)
//	bits 51..12  epoch      (40 bits)
//	bit  11      write flag
//	bits  7..0   byte mask  (which bytes of the granule were touched:
//	             access size and offset in one field)
//
// A zero word means "empty cell" — fiber 0 (the host) starts at epoch 1,
// so no real access encodes to zero.
//
// Each cell additionally records its access site as a 32-bit index into
// the sanitizer's interned site table (see internInfo), so one shadow
// slot costs 12 bytes: the packed word plus the site id. Storing an
// index instead of an *AccessInfo pointer keeps the hot store free of
// GC write barriers and shrinks the shadow by a quarter.
//
// The batched engine stores the granules of each 32-KiB window (4096
// granules) as runs: maximal stretches of consecutive granules whose K
// slots are identical (see shadowWindow). The slow reference engine
// keeps one K-slot record per touched granule (see slowShadow).

const (
	granuleShift = 3
	granuleBytes = 1 << granuleShift

	pageGranuleShift = 12
	pageGranules     = 1 << pageGranuleShift
	pageGranuleMask  = pageGranules - 1

	maxCells   = 8
	maxFiberID = (1 << 12) - 1
	maxEpoch   = (1 << 40) - 1

	fullMask uint8 = 0xFF

	// slotBytes is the modeled cost of one shadow slot: the packed word
	// plus the interned site id.
	slotBytes = 12
	// runHeaderBytes is the modeled cost of one run's start offset.
	runHeaderBytes = 2
)

func encodeCell(fiber int, ep vclock.Epoch, write bool, mask uint8) uint64 {
	w := uint64(0)
	if write {
		w = 1
	}
	return uint64(fiber)<<52 | (uint64(ep)&maxEpoch)<<12 | w<<11 | uint64(mask)
}

func decodeCell(c uint64) (fiber int, ep vclock.Epoch, write bool, mask uint8) {
	return int(c >> 52), vclock.Epoch(c >> 12 & maxEpoch), c>>11&1 == 1, uint8(c)
}

// partialMask computes the byte mask of the intersection of granule
// [gBase, gBase+8) with the accessed range [start, end).
func partialMask(gBase, start, end uint64) uint8 {
	lo := uint64(0)
	if start > gBase {
		lo = start - gBase
	}
	hi := uint64(granuleBytes)
	if end < gBase+granuleBytes {
		hi = end - gBase
	}
	var m uint8
	for i := lo; i < hi; i++ {
		m |= 1 << i
	}
	return m
}

// shadowWindow is one 32-KiB window of shadow state as a sorted list of
// runs. Run i covers window granules [starts[i], starts[i+1]) — the
// last run ends at pageGranules — and every granule of the run holds
// the same K slots, cells[i*K:(i+1)*K] and infos[i*K:(i+1)*K]. A fresh
// window is one run of empty slots. Runs never cross a window, so a
// window holds at most pageGranules runs: the racy worst case costs
// what a per-granule store costs.
type shadowWindow struct {
	starts []uint16
	cells  []uint64
	infos  []uint32
}

func newWindow(k int) *shadowWindow {
	return &shadowWindow{starts: []uint16{0}, cells: make([]uint64, k), infos: make([]uint32, k)}
}

// end returns the first granule offset past run i.
func (w *shadowWindow) end(i int) int {
	if i+1 < len(w.starts) {
		return int(w.starts[i+1])
	}
	return pageGranules
}

// find returns the index of the run containing granule offset g.
func (w *shadowWindow) find(g int) int {
	lo, hi := 0, len(w.starts)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if int(w.starts[mid]) <= g {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// split makes granule offset g (0 <= g < pageGranules) the start of a
// run and returns that run's index.
func (w *shadowWindow) split(g, k int) int {
	i := w.find(g)
	if int(w.starts[i]) == g {
		return i
	}
	w.clone(i, 1, k)
	w.starts[i+1] = uint16(g)
	return i + 1
}

// explode splits run i, of n granules, into n one-granule runs.
func (w *shadowWindow) explode(i, n, k int) {
	lo := w.starts[i]
	w.clone(i, n-1, k)
	for r := 1; r < n; r++ {
		w.starts[i+r] = lo + uint16(r)
	}
}

// clone inserts count copies of run i's slots right after it; the
// caller sets their starts.
func (w *shadowWindow) clone(i, count, k int) {
	w.starts = openGap(w.starts, i+1, count)
	w.cells = openGap(w.cells, (i+1)*k, count*k)
	w.infos = openGap(w.infos, (i+1)*k, count*k)
	for r := 1; r <= count; r++ {
		copy(w.cells[(i+r)*k:(i+r+1)*k], w.cells[i*k:(i+1)*k])
		copy(w.infos[(i+r)*k:(i+r+1)*k], w.infos[i*k:(i+1)*k])
	}
}

// openGap inserts n unspecified elements at index at, reusing spare
// capacity so a warm window splits without allocating.
func openGap[T any](s []T, at, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	copy(s[at+n:], s[at:])
	return s
}

// coalesce merges every run in [lo, hi] into its predecessor when their
// slots are equal.
func (w *shadowWindow) coalesce(lo, hi, k int) {
	n := len(w.starts)
	lo = max(lo, 1)
	hi = min(hi, n-1)
	out := lo
	for r := lo; r <= hi; r++ {
		if slices.Equal(w.cells[(out-1)*k:out*k], w.cells[r*k:(r+1)*k]) &&
			slices.Equal(w.infos[(out-1)*k:out*k], w.infos[r*k:(r+1)*k]) {
			continue
		}
		if out != r {
			w.starts[out] = w.starts[r]
			copy(w.cells[out*k:(out+1)*k], w.cells[r*k:(r+1)*k])
			copy(w.infos[out*k:(out+1)*k], w.infos[r*k:(r+1)*k])
		}
		out++
	}
	if out > hi {
		return
	}
	m := out + copy(w.starts[out:], w.starts[hi+1:])
	copy(w.cells[out*k:], w.cells[(hi+1)*k:])
	copy(w.infos[out*k:], w.infos[(hi+1)*k:])
	w.starts, w.cells, w.infos = w.starts[:m], w.cells[:m*k], w.infos[:m*k]
}

// shadowMap is the batched engine's window index: a map with a
// one-entry most-recently-used cache (range annotations walk windows
// sequentially).
type shadowMap struct {
	k       int
	windows map[uint64]*shadowWindow
	lastIdx uint64
	last    *shadowWindow
}

func (m *shadowMap) init(k int) {
	m.k = k
	m.windows = make(map[uint64]*shadowWindow)
	m.lastIdx = ^uint64(0)
}

// window resolves (allocating on demand) the window with index idx.
func (m *shadowMap) window(idx uint64) *shadowWindow {
	if idx == m.lastIdx {
		return m.last
	}
	w, ok := m.windows[idx]
	if !ok {
		w = newWindow(m.k)
		m.windows[idx] = w
	}
	m.lastIdx, m.last = idx, w
	return w
}

// bytes models the footprint: K slots plus a start offset per run.
func (m *shadowMap) bytes() int64 {
	var runs int64
	for _, w := range m.windows {
		runs += int64(len(w.starts))
	}
	return runs * int64(m.k*slotBytes+runHeaderBytes)
}

// slowBlock holds the K slots of slowBlockGranules consecutive granules
// in the slow engine's store, granule-major.
type slowBlock struct {
	cells []uint64
	infos []uint32
}

// slowBlockGranules is the slow store's allocation unit: 512 bytes of
// application memory, so a small buffer allocates little and a long
// range resolves one block per 64 granules.
const (
	slowBlockShift    = 6
	slowBlockGranules = 1 << slowBlockShift
	slowBlockMask     = slowBlockGranules - 1
)

// slowShadow is the slow reference engine's store: per-granule K-slot
// records in fixed blocks keyed by global block index, with a one-entry
// most-recently-used cache. It shares nothing with the run store it is
// the oracle for.
type slowShadow struct {
	k       int
	blocks  map[uint64]*slowBlock
	lastIdx uint64
	last    *slowBlock
	touched int64 // granules holding at least one access
}

func (m *slowShadow) init(k int) {
	m.k = k
	m.blocks = make(map[uint64]*slowBlock)
	m.lastIdx = ^uint64(0)
}

// granule returns granule g's K cells and site ids, allocating its
// block on demand.
func (m *slowShadow) granule(g uint64) ([]uint64, []uint32) {
	idx := g >> slowBlockShift
	b := m.last
	if idx != m.lastIdx {
		b = m.blocks[idx]
		if b == nil {
			b = &slowBlock{
				cells: make([]uint64, slowBlockGranules*m.k),
				infos: make([]uint32, slowBlockGranules*m.k),
			}
			m.blocks[idx] = b
		}
		m.lastIdx, m.last = idx, b
	}
	o := int(g&slowBlockMask) * m.k
	return b.cells[o : o+m.k], b.infos[o : o+m.k]
}

// bytes models the footprint: K slots per touched granule.
func (m *slowShadow) bytes() int64 {
	return m.touched * int64(m.k*slotBytes)
}
