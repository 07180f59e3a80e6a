package tsan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cusango/internal/memspace"
)

// Differential engine testing (the keep-a-second-implementation
// discipline): the batched run engine and the granule-at-a-
// time reference walk are driven with identical access sequences and
// must agree on every race report AND on the complete shadow
// post-state. 600 randomized programs with fixed seeds.

// cellState is one non-empty shadow slot: packed word + site pointer.
type cellState struct {
	cell uint64
	info *AccessInfo
}

// shadowCells flattens the live shadow memory into slot index -> state
// (slot index = global granule * K + slot), expanding the batched
// engine's runs per granule and resolving interned site ids back to
// pointers, so the comparison is representation-independent.
func shadowCells(s *Sanitizer) map[uint64]cellState {
	out := make(map[uint64]cellState)
	k := s.cfg.CellsPerGranule
	put := func(g uint64, cells []uint64, infos []uint32) {
		for slot, c := range cells {
			if c != 0 {
				out[g*uint64(k)+uint64(slot)] = cellState{cell: c, info: s.infoTab[infos[slot]]}
			}
		}
	}
	if s.cfg.Engine == EngineSlow {
		for bi, b := range s.slow.blocks {
			for off := range slowBlockGranules {
				put(bi<<slowBlockShift|uint64(off), b.cells[off*k:(off+1)*k], b.infos[off*k:(off+1)*k])
			}
		}
		return out
	}
	for wi, w := range s.shadow.windows {
		for i := range w.starts {
			for off := int(w.starts[i]); off < w.end(i); off++ {
				put(wi<<pageGranuleShift|uint64(off), w.cells[i*k:(i+1)*k], w.infos[i*k:(i+1)*k])
			}
		}
	}
	return out
}

// reportKey is the comparable projection of one race report.
type reportKey struct {
	addr                memspace.Addr
	curFiber, prevFiber int
	curWrite, prevWrite bool
	curInfo, prevInfo   *AccessInfo
}

func reportKeys(s *Sanitizer) []reportKey {
	var out []reportKey
	for _, r := range s.Reports() {
		out = append(out, reportKey{
			addr:     r.Addr,
			curFiber: r.Current.Fiber.ID(), prevFiber: r.Previous.Fiber.ID(),
			curWrite: r.Current.Write, prevWrite: r.Previous.Write,
			curInfo: r.Current.Info, prevInfo: r.Previous.Info,
		})
	}
	return out
}

// twin drives the two engines in lockstep.
type twin struct {
	batched, slow *Sanitizer
	bf, sf        []*Fiber
}

func newTwin(cells int) *twin {
	tw := &twin{
		batched: New(Config{CellsPerGranule: cells}),
		slow:    New(Config{CellsPerGranule: cells, Engine: EngineSlow}),
	}
	tw.bf = []*Fiber{tw.batched.HostFiber()}
	tw.sf = []*Fiber{tw.slow.HostFiber()}
	return tw
}

func (tw *twin) createFiber(name string) {
	tw.bf = append(tw.bf, tw.batched.CreateFiber(name))
	tw.sf = append(tw.sf, tw.slow.CreateFiber(name))
}

func (tw *twin) both(f func(s *Sanitizer, fibers []*Fiber)) {
	f(tw.batched, tw.bf)
	f(tw.slow, tw.sf)
}

// randomRange picks an access inside one of the contended regions:
// mostly short unaligned ranges (partial first and last granules),
// sometimes a scalar-sized one, and now and then a whole region or a
// large range spanning several shadow windows.
func randomRange(rng *rand.Rand, regions [][2]uint64) (memspace.Addr, int64) {
	w := regions[rng.Intn(len(regions))]
	switch rng.Intn(20) {
	case 0:
		return memspace.Addr(w[0]), int64(w[1])
	case 1:
		return memspace.Addr(w[0] + uint64(rng.Intn(64))), 64 << 10
	case 2, 3:
		return memspace.Addr(w[0] + uint64(rng.Intn(int(w[1])))), int64(1 + rng.Intn(8))
	}
	return memspace.Addr(w[0] + uint64(rng.Intn(int(w[1])))), int64(1 + rng.Intn(int(w[1])))
}

func TestDifferentialEnginesRandomized(t *testing.T) {
	const cases = 600
	// Shared access-site pool: pointer identity must match across both
	// engines for report and shadow-state comparison.
	var infos []*AccessInfo
	for i := 0; i < 6; i++ {
		infos = append(infos, &AccessInfo{Site: fmt.Sprintf("site%d", i), Object: "buf"})
	}
	pageBytes := uint64(pageGranules * granuleBytes)
	// Contended regions: one small, one straddling a window boundary,
	// and one covering two whole windows (coalescing across windows).
	regions := [][2]uint64{
		{uint64(base), 768},
		{uint64(base) + pageBytes - 384, 768},
		{uint64(base) + 4*pageBytes, 2 * pageBytes},
	}

	for seed := 0; seed < cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			cells := []int{1, 2, 4}[rng.Intn(3)]
			tw := newTwin(cells)
			// Up to six fibers besides the host: more concurrent
			// accessors than cells forces the eviction split.
			for i := 0; i < 1+rng.Intn(6); i++ {
				tw.createFiber(fmt.Sprintf("fiber %d", i))
			}
			ignoreDepth := 0
			nops := 30 + rng.Intn(70)
			for op := 0; op < nops; op++ {
				switch rng.Intn(15) {
				case 0, 1: // fiber switch, occasionally synchronizing
					i := rng.Intn(len(tw.bf))
					if rng.Intn(4) == 0 {
						tw.batched.SwitchFiberSync(tw.bf[i])
						tw.slow.SwitchFiberSync(tw.sf[i])
					} else {
						tw.batched.SwitchFiber(tw.bf[i])
						tw.slow.SwitchFiber(tw.sf[i])
					}
				case 2: // release
					key := MakeKey(1, uint64(rng.Intn(4)))
					tw.both(func(s *Sanitizer, _ []*Fiber) { s.HappensBefore(key) })
				case 3: // acquire
					key := MakeKey(1, uint64(rng.Intn(4)))
					tw.both(func(s *Sanitizer, _ []*Fiber) { s.HappensAfter(key) })
				case 4: // scalar access
					w := regions[rng.Intn(len(regions))]
					a := memspace.Addr(w[0] + uint64(rng.Intn(int(w[1]))))
					size := []int{1, 2, 4, 8}[rng.Intn(4)]
					info := infos[rng.Intn(len(infos))]
					if rng.Intn(2) == 0 {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.Write(a, size, info) })
					} else {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.Read(a, size, info) })
					}
				case 5: // ignore-region toggle (kept balanced at the end)
					if ignoreDepth > 0 && rng.Intn(2) == 0 {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.IgnoreEnd() })
						ignoreDepth--
					} else {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.IgnoreBegin() })
						ignoreDepth++
					}
				case 6: // concurrent readers of one range, then a writer
					a, n := randomRange(rng, regions)
					info := infos[rng.Intn(len(infos))]
					for r := 0; r < cells+1+rng.Intn(2); r++ {
						i := rng.Intn(len(tw.bf))
						tw.batched.SwitchFiber(tw.bf[i])
						tw.slow.SwitchFiber(tw.sf[i])
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.ReadRange(a, n, info) })
					}
					if rng.Intn(2) == 0 {
						tw.both(func(s *Sanitizer, _ []*Fiber) { s.WriteRange(a, n, info) })
					}
				case 7: // a kernel launch: one range call per argument
					for i := 1 + rng.Intn(3); i > 0; i-- {
						a, n := randomRange(rng, regions)
						write := rng.Intn(2) == 0
						info := infos[rng.Intn(len(infos))]
						tw.both(func(s *Sanitizer, _ []*Fiber) {
							if write {
								s.WriteRange(a, n, info)
							} else {
								s.ReadRange(a, n, info)
							}
						})
					}
				default: // range access, sometimes repeated (same-state path)
					a, n := randomRange(rng, regions)
					info := infos[rng.Intn(len(infos))]
					write := rng.Intn(2) == 0
					repeats := 1 + rng.Intn(2)
					for r := 0; r < repeats; r++ {
						if write {
							tw.both(func(s *Sanitizer, _ []*Fiber) { s.WriteRange(a, n, info) })
						} else {
							tw.both(func(s *Sanitizer, _ []*Fiber) { s.ReadRange(a, n, info) })
						}
					}
				}
			}
			for ; ignoreDepth > 0; ignoreDepth-- {
				tw.both(func(s *Sanitizer, _ []*Fiber) { s.IgnoreEnd() })
			}
			tw.check(t)
		})
	}
}

// check asserts that the two engines agree on reports, on every counter
// outside the batched engine's own, and on the shadow post-state
// expanded per granule, and that the run store is well formed.
func (tw *twin) check(t *testing.T) {
	t.Helper()
	if b, sl := reportKeys(tw.batched), reportKeys(tw.slow); !reflect.DeepEqual(b, sl) {
		t.Fatalf("reports diverge:\nbatched: %+v\nslow:    %+v", b, sl)
	}
	bst, sst := tw.batched.Stats(), tw.slow.Stats()
	bst.EnginePages, bst.EngineGranules, bst.EngineFastGranules = 0, 0, 0
	bst.EngineSameGranules, bst.EngineRuns = 0, 0
	if bst != sst {
		t.Fatalf("stats diverge:\nbatched: %+v\nslow:    %+v", bst, sst)
	}
	bCells, sCells := shadowCells(tw.batched), shadowCells(tw.slow)
	if len(bCells) != len(sCells) {
		t.Fatalf("shadow population diverges: batched=%d slow=%d cells",
			len(bCells), len(sCells))
	}
	for slot, bc := range bCells {
		sc, ok := sCells[slot]
		if !ok {
			t.Fatalf("slot %d populated only under batched engine (%x)", slot, bc.cell)
		}
		if bc != sc {
			t.Fatalf("slot %d diverges: batched={%x %v} slow={%x %v}",
				slot, bc.cell, bc.info, sc.cell, sc.info)
		}
	}
	checkRunStore(t, tw.batched)
}

// checkRunStore asserts the run-store invariants: every window's runs
// start at 0, ascend strictly inside the window, carry K slots each,
// and no two neighbours hold equal slots (coalescing is complete).
func checkRunStore(t *testing.T, s *Sanitizer) {
	t.Helper()
	k := s.cfg.CellsPerGranule
	for wi, w := range s.shadow.windows {
		if len(w.starts) == 0 || w.starts[0] != 0 {
			t.Fatalf("window %d: runs do not start at granule 0: %v", wi, w.starts)
		}
		if len(w.cells) != len(w.starts)*k || len(w.infos) != len(w.starts)*k {
			t.Fatalf("window %d: %d runs but %d cells, %d sites", wi, len(w.starts), len(w.cells), len(w.infos))
		}
		for i := 1; i < len(w.starts); i++ {
			if w.starts[i] <= w.starts[i-1] || int(w.starts[i]) >= pageGranules {
				t.Fatalf("window %d: run starts not ascending: %v", wi, w.starts)
			}
			if reflect.DeepEqual(w.cells[(i-1)*k:i*k], w.cells[i*k:(i+1)*k]) &&
				reflect.DeepEqual(w.infos[(i-1)*k:i*k], w.infos[i*k:(i+1)*k]) {
				t.Fatalf("window %d: runs %d and %d are equal but not coalesced", wi, i-1, i)
			}
		}
	}
}

// TestDifferentialDirectedPatterns replays the access patterns the
// mini-apps actually produce (stencil re-annotation, halo exchange,
// boundary-only tracking) through both engines.
func TestDifferentialDirectedPatterns(t *testing.T) {
	kernelW := &AccessInfo{Site: "kernel jacobi_step", Object: "arg 0"}
	kernelR := &AccessInfo{Site: "kernel jacobi_step", Object: "arg 1"}
	haloW := &AccessInfo{Site: "MPI_Irecv", Object: "halo"}
	const domain = 96 << 10

	run := func(s *Sanitizer) {
		stream := s.CreateFiber("stream")
		host := s.HostFiber()
		arc := MakeKey(1, 0)
		for iter := 0; iter < 25; iter++ {
			// Kernel launch protocol: sync switch in, annotate args
			// (read then write, same epoch — stencil pattern), release,
			// switch out.
			s.SwitchFiberSync(stream)
			s.ReadRange(base, domain, kernelR)
			same := s.Stats().EngineSameGranules
			s.ReadRange(base, domain, kernelR) // re-annotation
			// The run engine finds every granule already holding the
			// state it would store.
			if grown := s.Stats().EngineSameGranules - same; s.cfg.Engine == EngineBatched && grown != domain/granuleBytes {
				t.Errorf("iteration %d: re-annotation added %d same-state granules, want %d",
					iter, grown, domain/granuleBytes)
			}
			s.WriteRange(base+domain, domain, kernelW)
			s.HappensBefore(arc)
			s.SwitchFiber(host)
			s.HappensAfter(arc)
			// Host-side halo write into the first granules (partial edges).
			s.WriteRange(base+3, 61, haloW)
		}
	}
	b := New(Config{})
	sl := New(Config{Engine: EngineSlow})
	run(b)
	run(sl)
	if b.RaceCount() != sl.RaceCount() {
		t.Fatalf("race counts diverge: batched=%d slow=%d", b.RaceCount(), sl.RaceCount())
	}
	if !reflect.DeepEqual(shadowCells(b), shadowCells(sl)) {
		t.Fatal("shadow post-state diverges on the stencil pattern")
	}
}

// TestDifferentialEvictionSplit drives more concurrent readers than
// cells over a multi-granule run, so the batched engine must split the
// run into one-granule runs (the evicted slot rotates with the
// granule), then writes over the split runs from a synchronized fiber.
func TestDifferentialEvictionSplit(t *testing.T) {
	tw := newTwin(2)
	for i := 0; i < 3; i++ {
		tw.createFiber(fmt.Sprintf("reader %d", i))
	}
	r := &AccessInfo{Site: "kernel", Object: "read"}
	w := &AccessInfo{Site: "host", Object: "write"}
	const n = 64 * granuleBytes
	for i := 1; i <= 3; i++ {
		tw.batched.SwitchFiber(tw.bf[i])
		tw.slow.SwitchFiber(tw.sf[i])
		tw.both(func(s *Sanitizer, _ []*Fiber) {
			s.ReadRange(base, n, r)
			s.HappensBefore(MakeKey(2, uint64(i)))
		})
	}
	tw.check(t)
	if runs := len(tw.batched.shadow.window(uint64(base) >> (granuleShift + pageGranuleShift)).starts); runs < 64 {
		t.Fatalf("third concurrent reader left %d runs, want the 64-granule run split per granule", runs)
	}
	tw.batched.SwitchFiber(tw.bf[0])
	tw.slow.SwitchFiber(tw.sf[0])
	tw.both(func(s *Sanitizer, _ []*Fiber) {
		for i := 1; i <= 3; i++ {
			s.HappensAfter(MakeKey(2, uint64(i)))
		}
		s.WriteRange(base, n, w)
	})
	tw.check(t)
	if tw.batched.RaceCount() != 0 {
		t.Fatalf("synchronized writer raced: %d", tw.batched.RaceCount())
	}
}
