package tsan

import (
	"fmt"
	"testing"
)

// Microbenchmarks for the run-store hot path. These feed the CI
// perf-ratchet lane (ns/op and allocs/op are posted to the PR step
// summary); the committed-baseline gating of the same path lives in the
// perf harness's range-engine scenario.

// BenchmarkRunShadow measures re-annotation over warm shadow: repeated
// 64 KiB write annotations with the range cache disabled, so every
// iteration walks both windows of the range. The steady state finds
// each window's single run already holding the access (no store).
func BenchmarkRunShadow(b *testing.B) {
	for _, cells := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			s := New(Config{CellsPerGranule: cells, DisableRangeCache: true})
			info := &AccessInfo{Site: "bench run", Object: "arg 0"}
			const n = 64 << 10
			s.WriteRange(base, n, info) // allocate the windows
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WriteRange(base, n, info)
			}
		})
	}
}

// BenchmarkRunShadowSlow is the reference walk over the same workload —
// the denominator of the engine speedup.
func BenchmarkRunShadowSlow(b *testing.B) {
	s := New(Config{Engine: EngineSlow})
	info := &AccessInfo{Site: "bench run", Object: "arg 0"}
	const n = 64 << 10
	s.WriteRange(base, n, info)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WriteRange(base, n, info)
	}
}

// BenchmarkRunShadowHandoff measures the mini-apps' pattern: a 1 MiB
// buffer handed back and forth between a stream fiber and the host
// with release/acquire in between, so every annotation changes the
// state of every run it covers (no same-state skip, no cache hit).
func BenchmarkRunShadowHandoff(b *testing.B) {
	s := New(Config{})
	stream := s.CreateFiber("stream")
	host := s.HostFiber()
	kw := &AccessInfo{Site: "kernel step", Object: "arg 0"}
	hr := &AccessInfo{Site: "MPI_Isend", Object: "send buffer"}
	toHost, toStream := MakeKey(1, 1), MakeKey(1, 2)
	const n = 1 << 20
	step := func() {
		s.SwitchFiber(stream)
		s.HappensAfter(toStream)
		s.WriteRange(base, n, kw)
		s.HappensBefore(toHost)
		s.SwitchFiber(host)
		s.HappensAfter(toHost)
		s.ReadRange(base, n, hr)
		s.HappensBefore(toStream)
	}
	step()
	b.SetBytes(2 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	if s.RaceCount() != 0 {
		b.Fatalf("handoff reported %d races", s.RaceCount())
	}
}
