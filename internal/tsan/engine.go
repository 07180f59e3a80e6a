package tsan

import (
	"cusango/internal/memspace"
)

// The batched shadow-range engine (the default, Config.Engine ==
// EngineBatched).
//
// The paper's headline overhead result is that CuSan's cost tracks the
// bytes annotated to TSan (§V-B, Fig. 12), and the annotation hot path
// is exactly this walk. CuSan's accesses are whole-buffer and
// full-mask, so shadow state is piecewise-constant over kilobytes. The
// batched engine keeps it that way (shadowWindow stores runs of equal
// granules) and checks an access once per run, not once per granule:
//
//  1. it resolves each 32-KiB window the access spans once;
//  2. inside a window it splits at most the two runs that straddle the
//     access bounds, so every run it visits lies inside the access;
//  3. it applies the per-granule decision (checkCells) once per run —
//     one vector-clock lookup per cell — and stores the result for the
//     whole run. Reports go to the run's first granule; the identical
//     reports the other granules would raise are counted as
//     deduplicated, exactly as the granule-at-a-time walk counts them;
//  4. it coalesces equal neighbouring runs afterwards.
//
// Only the first and last granule of a range can be partial; each is
// applied as a one-granule segment with its byte mask. When every cell
// holds a concurrent access the eviction slot depends on the granule
// (g % K), so a multi-granule run first explodes into one-granule runs
// — the racy degenerate case only.
//
// A per-fiber range cache sits in front of the walk: a fiber
// re-annotating the identical range at an unchanged clock with the same
// access kind and site, before any other walk touched the shadow, is a
// provable no-op and returns immediately (counting the duplicate
// reports the walk would have counted).
//
// Both engines funnel every decision through checkCells, so race
// reports, slot selection, and eviction order are identical; the
// differential tests in differential_test.go pin that equivalence.

// spanCtr accumulates engine counters locally during a walk; totals are
// folded into Stats once per range.
type spanCtr struct {
	granules int64
	fast     int64
	same     int64
	runs     int64
	// redup counts the conflicts an identical re-annotation would meet:
	// every one a duplicate report, which a range-cache hit accounts
	// for without walking.
	redup int64
}

// access is one range annotation in flight.
type access struct {
	f      *Fiber
	cell   uint64 // the full-mask cell the access stores
	write  bool
	infoID uint32
}

// conflicts reports whether an evicted cell — concurrent by definition
// of eviction unless it is the accessor's own — conflicts with acc.
func (acc *access) conflicts(c uint64, mask uint8) bool {
	cFiber, _, cWrite, cMask := decodeCell(c)
	return cFiber != acc.f.id && (acc.write || cWrite) && mask&cMask != 0
}

// accessRangeBatched records an access to [a, a+n) window by window.
func (s *Sanitizer) accessRangeBatched(a memspace.Addr, n int64, write bool, info *AccessInfo) {
	f := s.cur
	ep := s.epoch()
	start := uint64(a)
	end := start + uint64(n)

	if !s.cfg.DisableRangeCache {
		e := &s.rangeCache[f.id]
		if e.valid && e.seq == s.accessSeq && e.start == start && e.end == end &&
			e.write == write && e.ep == ep && e.gen == f.gen && e.info == info {
			s.stats.RangeCacheHits++
			s.stats.RacesDeduped += e.redup
			return
		}
		s.stats.RangeCacheMisses++
	}

	acc := access{f: f, cell: encodeCell(f.id, ep, write, fullMask), write: write,
		infoID: s.internInfo(info)}
	g := start >> granuleShift
	gLast := (end - 1) >> granuleShift
	// Interior granules of the whole range carry the full byte mask.
	gIntLo := (start + granuleBytes - 1) >> granuleShift
	gIntHi := end>>granuleShift - 1
	if end < granuleBytes {
		gIntLo, gIntHi = 1, 0 // no interior
	}
	var ctr spanCtr
	for g <= gLast {
		wi := g >> pageGranuleShift
		w := s.shadow.window(wi)
		s.stats.EnginePages++
		gStop := min(gLast, wi<<pageGranuleShift|pageGranuleMask)
		ctr.granules += int64(gStop-g) + 1
		for ; g <= gStop && g < gIntLo; g++ { // the partial head granule
			s.annotateRuns(w, wi, g, g, partialMask(g<<granuleShift, start, end), &acc, &ctr)
		}
		if hi := min(gStop, gIntHi); g <= hi {
			s.annotateRuns(w, wi, g, hi, fullMask, &acc, &ctr)
			g = hi + 1
		}
		for ; g <= gStop; g++ { // the partial tail granule
			s.annotateRuns(w, wi, g, g, partialMask(g<<granuleShift, start, end), &acc, &ctr)
		}
	}

	s.stats.EngineGranules += ctr.granules
	s.stats.EngineFastGranules += ctr.fast
	s.stats.EngineSameGranules += ctr.same
	s.stats.EngineRuns += ctr.runs
	s.accessSeq++
	if !s.cfg.DisableRangeCache {
		s.rangeCache[f.id] = rangeCacheEntry{
			start: start, end: end, ep: ep, gen: f.gen, info: info, write: write,
			valid: true, seq: s.accessSeq, redup: ctr.redup,
		}
	}
}

// annotateRuns applies acc with byte mask mask to global granules
// [gLo, gHi] of window w (index wi): split the boundary runs, check and
// store once per run inside, then coalesce.
func (s *Sanitizer) annotateRuns(w *shadowWindow, wi, gLo, gHi uint64, mask uint8,
	acc *access, ctr *spanCtr) {
	k := s.cfg.CellsPerGranule
	lo, hi := int(gLo&pageGranuleMask), int(gHi&pageGranuleMask)+1
	first := w.split(lo, k)
	stop := len(w.starts)
	if hi < pageGranules {
		stop = w.split(hi, k)
	}
	nc := acc.cell&^uint64(fullMask) | uint64(mask)
	for i := first; i < stop; i++ {
		rlo := int(w.starts[i])
		n := w.end(i) - rlo
		g := wi<<pageGranuleShift | uint64(rlo)
		cells, infos := w.cells[i*k:(i+1)*k], w.infos[i*k:(i+1)*k]
		ctr.runs++
		slot, conflicts := s.checkCells(cells, infos, mask, acc.write, acc.f, acc.infoID,
			memspace.Addr(g<<granuleShift))
		// Every other granule of the run raises the same reports again,
		// each one a duplicate by then.
		s.stats.RacesDeduped += int64(n-1) * int64(conflicts)
		ctr.redup += int64(n) * int64(conflicts)
		if slot < 0 && k > 1 && n > 1 {
			// All cells concurrent: the evicted slot rotates with the
			// granule, so the run no longer holds one state.
			w.explode(i, n, k)
			for r := 0; r < n; r++ {
				e := (i+r)*k + int((g+uint64(r))%uint64(k))
				if acc.conflicts(w.cells[e], mask) {
					ctr.redup--
				}
				w.cells[e], w.infos[e] = nc, acc.infoID
			}
			i += n - 1
			stop += n - 1
			continue
		}
		if slot < 0 {
			slot = int(g % uint64(k))
			if acc.conflicts(cells[slot], mask) {
				ctr.redup -= int64(n)
			}
		}
		switch {
		case cells[slot] == nc && infos[slot] == acc.infoID:
			ctr.same += int64(n)
		case n > 1:
			ctr.fast += int64(n)
			fallthrough
		default:
			cells[slot], infos[slot] = nc, acc.infoID
		}
	}
	w.coalesce(first, stop, k)
}
