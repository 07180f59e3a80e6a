package tsan

import "testing"

// The launch program's access sites, shared by both engines of a twin:
// shadow comparison goes by site pointer.
var (
	wA  = &AccessInfo{Site: "kernel init", Object: "arg 0 (A)"}
	wB  = &AccessInfo{Site: "kernel init", Object: "arg 1 (B)"}
	rC  = &AccessInfo{Site: "kernel init", Object: "arg 2 (C)"}
	k1W = &AccessInfo{Site: "kernel step1", Object: "arg 0 (A)"}
	k1R = &AccessInfo{Site: "kernel step1", Object: "arg 2 (C)"}
	k2W = &AccessInfo{Site: "kernel step2", Object: "arg 1 (B)"}
	k2R = &AccessInfo{Site: "kernel step2", Object: "arg 0 (A)"}
)

// launchProgram drives a fixed mixed workload through a sanitizer in
// the shape of kernel launches annotating their pointer arguments: one
// range call per argument from three fibers, partial sync, overlapping
// racy ranges, unaligned edges, and a duplicated argument.
func launchProgram(s *Sanitizer) {
	host := s.HostFiber()
	k1 := s.CreateFiber("stream 1")
	k2 := s.CreateFiber("stream 2")
	bufA := base
	bufB := base + 9<<20
	bufC := base + 31<<20
	key := MakeKey(3, 1)

	// Host initializes everything in one launch (includes a duplicate
	// argument and unaligned partial-granule edges).
	s.WriteRange(bufA, 256<<10, wA)
	s.WriteRange(bufB+3, 100<<10+5, wB)
	s.ReadRange(bufC, 64<<10, rC)
	s.WriteRange(bufA, 256<<10, wA) // duplicate
	s.HappensBefore(key)

	// Stream 1 synchronizes with the host: its overlap with A is
	// ordered, no race.
	s.SwitchFiber(k1)
	s.HappensAfter(key)
	s.WriteRange(bufA+16<<10, 32<<10, k1W)
	s.ReadRange(bufC+7, 8<<10, k1R)

	// Stream 2 does NOT synchronize: its writes race with the host's
	// init of B and with stream 1's writes into A.
	s.SwitchFiber(k2)
	s.WriteRange(bufB, 48<<10, k2W)
	s.ReadRange(bufA+20<<10, 4<<10, k2R)

	// Back to the host for a second round over A (races with stream 1
	// and stream 2's unsynchronized accesses).
	s.SwitchFiber(host)
	s.WriteRange(bufA, 64<<10, wA)
}

// TestDifferentialLaunchShaped runs the launch program on both engines:
// the run engine's reports, counters and shadow post-state must equal
// the slow reference engine's. CI repeats it at several GOMAXPROCS
// settings.
func TestDifferentialLaunchShaped(t *testing.T) {
	tw := newTwin(defaultCells)
	tw.both(func(s *Sanitizer, _ []*Fiber) { launchProgram(s) })
	if tw.slow.RaceCount() == 0 {
		t.Fatal("launch program reported no races; the differential test needs a racy workload")
	}
	tw.check(t)
}
