package tsan

import (
	"testing"

	"cusango/internal/memspace"
)

// The batched engine is the default; these tests pin its observable
// mechanics (counters, fast path) — equivalence with the
// slow reference walk is pinned separately in differential_test.go.

func TestEngineDefaultIsBatched(t *testing.T) {
	if New(Config{}).cfg.Engine != EngineBatched {
		t.Fatal("zero-value config must select the batched engine")
	}
	for _, tc := range []struct {
		in   string
		want Engine
	}{{"", EngineBatched}, {"batched", EngineBatched}, {"SLOW", EngineSlow}, {"slow", EngineSlow}} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine must reject unknown engines")
	}
	if EngineBatched.String() != "batched" || EngineSlow.String() != "slow" {
		t.Error("engine names")
	}
}

func TestBatchedEngineCounters(t *testing.T) {
	s := newSan()
	// base is page-aligned: 64 KiB = 8192 granules = exactly 2 pages,
	// all interior (full mask) over empty shadow -> all fast path.
	s.WriteRange(base, 64<<10, hostW)
	st := s.Stats()
	if st.EnginePages != 2 {
		t.Errorf("pages = %d, want 2", st.EnginePages)
	}
	if st.EngineGranules != 8192 {
		t.Errorf("granules = %d, want 8192", st.EngineGranules)
	}
	if st.EngineFastGranules != 8192 {
		t.Errorf("fast granules = %d, want 8192", st.EngineFastGranules)
	}
}

func TestBatchedEnginePartialEdges(t *testing.T) {
	s := newSan()
	// Unaligned 20-byte write: head and tail granules are partial, one
	// interior granule is full-mask — three one-granule runs, none of
	// them a bulk (multi-granule) update.
	s.WriteRange(base+3, 20, hostW)
	st := s.Stats()
	if st.EngineGranules != 3 {
		t.Errorf("granules = %d, want 3", st.EngineGranules)
	}
	if st.EngineRuns != 3 {
		t.Errorf("runs = %d, want 3 (head, interior, tail)", st.EngineRuns)
	}
	if st.EngineFastGranules != 0 {
		t.Errorf("fast granules = %d, want 0 (no multi-granule run)", st.EngineFastGranules)
	}
	// On fresh shadow, a 5-granule interior is one bulk run.
	s.WriteRange(base+4096+3, 52, hostW)
	if st := s.Stats(); st.EngineFastGranules != 5 || st.EngineRuns != 6 {
		t.Errorf("fast granules, runs = %d, %d, want 5, 6", st.EngineFastGranules, st.EngineRuns)
	}
}

func TestSlowEngineLeavesEngineCountersZero(t *testing.T) {
	s := New(Config{Engine: EngineSlow})
	fib := s.CreateFiber("stream")
	host := s.CurrentFiber()
	s.SwitchFiber(fib)
	s.WriteRange(base, 64<<10, devW)
	s.SwitchFiber(host)
	s.ReadRange(base, 64<<10, hostR)
	if s.RaceCount() == 0 {
		t.Fatal("slow engine must still detect races")
	}
	st := s.Stats()
	if st.EnginePages != 0 || st.EngineGranules != 0 || st.EngineFastGranules != 0 ||
		st.EngineSameGranules != 0 || st.EngineRuns != 0 {
		t.Fatalf("slow engine touched batched-engine counters: %+v", st)
	}
}

func TestSlowEngineShadowBytesCountsTouchedGranules(t *testing.T) {
	// The slow store allocates whole blocks but models K slots per
	// granule actually touched: 3 bytes straddling a granule boundary,
	// then an overlapping 28-byte range, cover granules 0..3.
	s := New(Config{Engine: EngineSlow})
	k := int64(s.cfg.CellsPerGranule)
	s.WriteRange(base+6, 3, hostW)
	if got, want := s.ShadowBytes(), 2*k*slotBytes; got != want {
		t.Fatalf("after 2 granules: ShadowBytes = %d, want %d", got, want)
	}
	s.ReadRange(base+4, 28, hostR)
	if got, want := s.ShadowBytes(), 4*k*slotBytes; got != want {
		t.Fatalf("after 4 granules: ShadowBytes = %d, want %d", got, want)
	}
}

func TestBatchedFastPathSkippedWhenForeignCellPresent(t *testing.T) {
	s := newSan()
	fib := s.CreateFiber("stream")
	host := s.CurrentFiber()
	s.SwitchFiber(fib)
	s.WriteRange(base, 8, devW)
	s.SwitchFiber(host)
	before := s.Stats().EngineFastGranules
	s.WriteRange(base, 8, hostW) // foreign concurrent cell: general path + race
	if s.Stats().EngineFastGranules != before {
		t.Fatal("fast path taken over a granule holding a foreign cell")
	}
	if s.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1", s.RaceCount())
	}
}

func TestBatchedCrossPageUnalignedRange(t *testing.T) {
	// A range straddling a page boundary with unaligned edges must touch
	// both pages and mark the exact same bytes the slow walk would.
	pageBytes := uint64(pageGranules * granuleBytes)
	start := base + memspace.Addr(pageBytes) - 13
	s := New(Config{})
	r := New(Config{Engine: EngineSlow})
	fib, rfib := s.CreateFiber("f"), r.CreateFiber("f")
	s.SwitchFiber(fib)
	r.SwitchFiber(rfib)
	s.WriteRange(start, 30, devW)
	r.WriteRange(start, 30, devW)
	if got := s.Stats().EnginePages; got != 2 {
		t.Fatalf("pages = %d, want 2", got)
	}
	s.SwitchFiber(s.HostFiber())
	r.SwitchFiber(r.HostFiber())
	// Byte-precise probes on both sides of the straddle.
	for _, probe := range []struct {
		a    memspace.Addr
		n    int64
		race bool
	}{
		{start - 1, 1, false}, // just before
		{start, 1, true},      // first byte
		{start + 29, 1, true}, // last byte
		{start + 30, 1, false} /* just after */} {
		sc, rc := s.RaceCount(), r.RaceCount()
		pi := &AccessInfo{Site: "probe", Object: "host write"} // fresh per probe: no dedup
		s.WriteRange(probe.a, probe.n, pi)
		r.WriteRange(probe.a, probe.n, pi)
		gotS, gotR := s.RaceCount() > sc, r.RaceCount() > rc
		if gotS != probe.race || gotR != probe.race {
			t.Fatalf("probe at %#x: batched race=%v slow race=%v, want %v",
				uint64(probe.a), gotS, gotR, probe.race)
		}
	}
}
