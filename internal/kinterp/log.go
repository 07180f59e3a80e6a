package kinterp

import (
	"fmt"

	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// AccessKind classifies one logged device memory access.
type AccessKind uint8

// Access kinds. AccessAtomic is an atomic read-modify-write: two atomics
// to the same address never race with each other, but an atomic against a
// plain access does.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessAtomic
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "atomic"
	}
}

// AccessEvent is one per-thread memory access recorded by LaunchLogged:
// which thread (linear id) of which block touched which address, in which
// barrier interval (the number of syncthreads the thread had executed),
// and how. This is the raw material of the dynamic race oracle that
// audits the static checker (internal/kstatic).
type AccessEvent struct {
	// Thread is the linear thread id over the whole launch.
	Thread int32
	// Block is the linear block id (by*gridDim.x + bx).
	Block int32
	// Interval is the count of barriers the thread passed before the
	// access; same-block accesses in different intervals are ordered.
	Interval int32
	// Addr is the absolute byte address.
	Addr memspace.Addr
	// Size is the access width in bytes.
	Size int8
	// Kind is read/write/atomic.
	Kind AccessKind
}

// AccessLog collects the events of one logged launch in deterministic
// order: threads execute serially in ascending linear id, and each
// thread's events appear in program order.
type AccessLog struct {
	Events []AccessEvent
	// Totals[lin] is the number of barriers thread lin executed in total.
	// The oracle's ordering rule needs it: an interval-i access of one
	// thread happens before an interval-j access of a same-block thread
	// (i < j) only if the first thread went on to execute barrier i+1.
	Totals []int32
}

// LaunchLogged executes the kernel like Launch but serially (one thread
// at a time, ascending linear id) while recording every load, store and
// atomic into the returned log. Serial execution makes the log — and any
// data the kernel computes — a pure function of the module, geometry and
// arguments, which is what the differential oracle needs. Float atomic
// adds follow Launch's segment order, so the data also matches a Launch
// bit for bit. Native kernel registrations are ignored here: logging
// requires interpretation.
func (e *Engine) LaunchLogged(name string, grid, block Dim3, args []Arg, mem *memspace.Memory) (*AccessLog, error) {
	f := e.mod.Func(name)
	if f == nil {
		return nil, fmt.Errorf("kinterp: unknown kernel %q", name)
	}
	if !f.Kernel {
		return nil, fmt.Errorf("kinterp: %q is a device function, not a kernel", name)
	}
	if err := checkArgs(f, args); err != nil {
		return nil, err
	}
	grid, block = grid.norm(), block.norm()
	total := grid.Count() * block.Count()
	log := &AccessLog{}
	if total == 0 {
		return log, nil
	}
	geom := geometry{grid: grid, block: block}
	err := e.run(total, 1, e.atomic[name], mem.NewView(), func(v *memspace.View, lo, hi int, red *Reduction) error {
		w := newWorker(e, v, geom, f, args, red)
		w.log = log
		return w.runRange(lo, hi)
	})
	return log, err
}

// record appends one access event for the currently executing thread.
func (w *worker) record(addr memspace.Addr, size int64, kind AccessKind) {
	ctx := w.ctxFor(w.lin)
	blk := ctx.by*int64(w.geom.grid.X) + ctx.bx
	w.log.Events = append(w.log.Events, AccessEvent{
		Thread:   int32(w.lin),
		Block:    int32(blk),
		Interval: w.interval,
		Addr:     addr,
		Size:     int8(size),
		Kind:     kind,
	})
}

// CountBarriers returns the number of syncthreads instructions that
// appear textually in the function (not the dynamic count).
func CountBarriers(f *kir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == kir.OpSyncthreads {
				n++
			}
		}
	}
	return n
}
