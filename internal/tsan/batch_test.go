package tsan

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Parity tests for AnnotateBatch: a kernel launch's argument batch must
// produce exactly what the same ranges annotated one call at a time
// produce — reports, counters, and shadow post-state — on either
// engine and at every GOMAXPROCS.

// batchProgram drives a fixed mixed workload through a sanitizer:
// batched kernel-argument annotations from three fibers, partial sync,
// overlapping racy ranges, unaligned edges, and a duplicated op.
func batchProgram(s *Sanitizer, annotate func(*Sanitizer, []RangeOp)) {
	host := s.HostFiber()
	k1 := s.CreateFiber("stream 1")
	k2 := s.CreateFiber("stream 2")
	bufA := base
	bufB := base + 9<<20
	bufC := base + 31<<20
	wA := &AccessInfo{Site: "kernel init", Object: "arg 0 (A)"}
	wB := &AccessInfo{Site: "kernel init", Object: "arg 1 (B)"}
	rC := &AccessInfo{Site: "kernel init", Object: "arg 2 (C)"}
	k1W := &AccessInfo{Site: "kernel step1", Object: "arg 0 (A)"}
	k1R := &AccessInfo{Site: "kernel step1", Object: "arg 2 (C)"}
	k2W := &AccessInfo{Site: "kernel step2", Object: "arg 1 (B)"}
	k2R := &AccessInfo{Site: "kernel step2", Object: "arg 0 (A)"}
	key := MakeKey(3, 1)

	// Host initializes everything in one batch (includes a duplicate op
	// and unaligned partial-granule edges).
	annotate(s, []RangeOp{
		{Addr: bufA, Len: 256 << 10, Write: true, Info: wA},
		{Addr: bufB + 3, Len: 100<<10 + 5, Write: true, Info: wB},
		{Addr: bufC, Len: 64 << 10, Write: false, Info: rC},
		{Addr: bufA, Len: 256 << 10, Write: true, Info: wA}, // duplicate
	})
	s.HappensBefore(key)

	// Stream 1 synchronizes with the host: its overlap with A is
	// ordered, no race.
	s.SwitchFiber(k1)
	s.HappensAfter(key)
	annotate(s, []RangeOp{
		{Addr: bufA + 16<<10, Len: 32 << 10, Write: true, Info: k1W},
		{Addr: bufC + 7, Len: 8 << 10, Write: false, Info: k1R},
	})

	// Stream 2 does NOT synchronize: its writes race with the host's
	// init of B and with stream 1's writes into A.
	s.SwitchFiber(k2)
	annotate(s, []RangeOp{
		{Addr: bufB, Len: 48 << 10, Write: true, Info: k2W},
		{Addr: bufA + 20<<10, Len: 4 << 10, Write: false, Info: k2R},
	})

	// Back to the host for a second round over A (races with stream 1
	// and stream 2's unsynchronized accesses).
	s.SwitchFiber(host)
	annotate(s, []RangeOp{
		{Addr: bufA, Len: 64 << 10, Write: true, Info: wA},
	})
}

// runState is the comparable outcome of one batchProgram run.
type runState struct {
	reports  string
	races    int64
	granules int64
	fast     int64
	same     int64
	runs     int64
	pages    int64
	shadow   map[uint64]cellState
}

func runBatchProgram(t *testing.T, cfg Config) runState {
	t.Helper()
	s := New(cfg)
	batchProgram(s, (*Sanitizer).AnnotateBatch)
	return stateOf(s)
}

// oneByOne issues a batch's ops as individual range calls.
func oneByOne(s *Sanitizer, ops []RangeOp) {
	for _, op := range ops {
		if op.Write {
			s.WriteRange(op.Addr, op.Len, op.Info)
		} else {
			s.ReadRange(op.Addr, op.Len, op.Info)
		}
	}
}

func stateOf(s *Sanitizer) runState {
	var b strings.Builder
	for _, r := range s.Reports() {
		fmt.Fprintf(&b, "%s\n", r)
	}
	st := s.Stats()
	return runState{
		reports:  b.String(),
		races:    st.RacesReported,
		granules: st.EngineGranules,
		fast:     st.EngineFastGranules,
		same:     st.EngineSameGranules,
		runs:     st.EngineRuns,
		pages:    st.EnginePages,
		shadow:   shadowCells(s),
	}
}

// TestBatchParityAcrossWorkerCounts runs the batch program at several
// GOMAXPROCS settings on both engines: the batched engine's reports and
// shadow post-state must not depend on the core count and must equal
// the slow reference engine's.
func TestBatchParityAcrossWorkerCounts(t *testing.T) {
	ref := runBatchProgram(t, Config{Engine: EngineSlow})
	if ref.races == 0 {
		t.Fatalf("batch program reported no races; the parity test needs a racy workload")
	}
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", n), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(n)
			defer runtime.GOMAXPROCS(prev)
			got := runBatchProgram(t, Config{})
			if got.reports != ref.reports {
				t.Errorf("reports differ from the slow engine:\n--- slow\n%s--- batched\n%s",
					ref.reports, got.reports)
			}
			if got.races != ref.races {
				t.Errorf("race counts differ: slow=%d batched=%d", ref.races, got.races)
			}
			if !reflect.DeepEqual(got.shadow, ref.shadow) {
				t.Errorf("shadow post-state differs from the slow engine (%d vs %d live cells)",
					len(got.shadow), len(ref.shadow))
			}
		})
	}
}

// TestBatchMatchesSequentialIndex pins that AnnotateBatch is the
// sequential loop: the batch program and the same program issuing one
// ReadRange/WriteRange per op agree on reports, counters, and shadow
// state.
func TestBatchMatchesSequentialIndex(t *testing.T) {
	batched := runBatchProgram(t, Config{})
	s := New(Config{})
	batchProgram(s, oneByOne)
	seq := stateOf(s)
	if seq.reports != batched.reports {
		t.Errorf("one-by-one reports differ from the batch:\n--- seq\n%s--- batch\n%s",
			seq.reports, batched.reports)
	}
	if seq.races != batched.races || seq.granules != batched.granules || seq.runs != batched.runs ||
		seq.fast != batched.fast || seq.same != batched.same || seq.pages != batched.pages {
		t.Errorf("counters differ: seq=%+v batch=%+v", seq, batched)
	}
	if !reflect.DeepEqual(seq.shadow, batched.shadow) {
		t.Errorf("shadow post-state differs between batch and one-by-one runs (%d vs %d live cells)",
			len(seq.shadow), len(batched.shadow))
	}
}
