package tsan

import (
	"testing"

	"cusango/internal/memspace"
)

// Zero-allocation guards for the steady-state checking path: once
// shadow windows, sync vars, and clocks exist, a clean
// annotate/release/switch/acquire cycle must not touch the Go heap. The
// guards run under -race in CI; the race runtime's own
// bookkeeping does not count against testing.AllocsPerRun.

// cleanCycle is one steady-state iteration: the host annotates its
// buffer, releases, the stream fiber acquires, annotates its own
// buffer, releases back, and the host acquires. No races, no new
// pages, no new sync vars — the shape of an iterative stencil loop.
func cleanCycle(s *Sanitizer, stream *Fiber, hostInfo, streamInfo *AccessInfo,
	hostKey, streamKey SyncKey, hostBuf, streamBuf memspace.Addr, n int64) {
	s.WriteRange(hostBuf, n, hostInfo)
	s.HappensBefore(hostKey)
	s.SwitchFiber(stream)
	s.HappensAfter(hostKey)
	s.WriteRange(streamBuf, n, streamInfo)
	s.HappensBefore(streamKey)
	s.SwitchFiber(s.HostFiber())
	s.HappensAfter(streamKey)
}

func TestCleanPathZeroAllocs(t *testing.T) {
	const rangeBytes = 64 << 10
	for _, eng := range []Engine{EngineBatched, EngineSlow} {
		t.Run(eng.String(), func(t *testing.T) {
			s := New(Config{Engine: eng})
			stream := s.CreateFiber("stream")
			hostInfo := &AccessInfo{Site: "host loop", Object: "send buffer"}
			streamInfo := &AccessInfo{Site: "kernel step", Object: "arg 0"}
			hostKey := MakeKey(1, 1)
			streamKey := MakeKey(1, 2)
			hostBuf := base
			streamBuf := base + 4<<20
			// Warm up: allocate the windows, sync vars, clock capacity,
			// and interned sites the steady state will reuse.
			for i := 0; i < 3; i++ {
				cleanCycle(s, stream, hostInfo, streamInfo,
					hostKey, streamKey, hostBuf, streamBuf, rangeBytes)
			}
			avg := testing.AllocsPerRun(50, func() {
				cleanCycle(s, stream, hostInfo, streamInfo,
					hostKey, streamKey, hostBuf, streamBuf, rangeBytes)
			})
			if avg != 0 {
				t.Fatalf("engine %s: clean path allocates %.2f objects/op, want 0", eng, avg)
			}
			if got := s.RaceCount(); got != 0 {
				t.Fatalf("clean cycle reported %d races", got)
			}
		})
	}
}
