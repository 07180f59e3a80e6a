package kinterp

import (
	"fmt"

	"cusango/internal/memspace"
)

// Native kernel execution.
//
// Clang compiles device code to machine code; this reproduction's
// interpreter stands in for the GPU, but interpretation inflates kernel
// cost by an order of magnitude relative to the tool's shadow-memory
// work, which would invert the paper's vanilla-versus-tool cost ratio.
// A kernel may therefore register a *native* implementation — a Go
// function executing a contiguous range of device threads — which the
// engine uses for execution while the kir.Function remains the input to
// verification and to the kaccess compiler analysis (exactly as the real
// toolchain analyzes IR but runs machine code).
//
// A native kernel resolves each buffer once per call as a typed view of
// simulated memory (memspace.View.Float64s, a []float64 aliasing the
// allocation's bytes) and walks its threads one row run at a time
// (Geometry.Row, Geometry.InteriorRow), so its inner loop is plain slice
// indexing. Equivalence between a kernel's IR and native implementations
// is a testable property; the apps' tests compare both modes bit for bit.

// ThreadRange executes device threads [lo, hi) of a launch natively.
// Implementations derive per-thread geometry from the linear id exactly
// like the interpreter: gx = lin % (grid.X*block.X), gy = lin / ...
//
// If the kernel's IR contains an atomic add, [lo, hi) never spans a
// segment boundary (see SegmentSize) and the implementation reduces
// through red; otherwise red is nil.
type ThreadRange func(g Geometry, lo, hi int, args []Arg, view *memspace.View, red *Reduction) error

// Geometry describes one launch for native kernels. It stays within four
// words so that the compiler keeps it in registers in native loops.
type Geometry struct {
	Grid, Block Dim3
}

// GlobalWidth returns the launch width in threads.
func (g Geometry) GlobalWidth() int { return g.Grid.X * g.Block.X }

// Thread decomposes a linear thread id into (globalX, globalY).
func (g Geometry) Thread(lin int) (gx, gy int) {
	w := g.GlobalWidth()
	return lin % w, lin / w
}

// Row decomposes thread lin and returns the end of its row run in
// [lin, hi): threads lin..end-1 lie in global row gy at consecutive
// global x from gx. Native kernels walk their range one row run at a
// time, which costs one decomposition per row instead of one per thread
// and leaves an inner loop of plain slice indexing.
func (g Geometry) Row(lin, hi int) (gx, gy, end int) {
	w := g.GlobalWidth()
	gx, gy = lin%w, lin/w
	return gx, gy, min(hi, lin+w-gx)
}

// InteriorRow is Row clamped to the interior of an nx × rows grid whose
// outermost cells are boundary, the domain of the stencil kernels: the
// threads of the row run that start at lin and map to interior cells
// are n cells from linear index idx (n is 0 if there are none). The
// next run starts at end.
func (g Geometry) InteriorRow(lin, hi int, nx, rows int64) (idx, n int64, end int) {
	gx, gy, end := g.Row(lin, hi)
	iy := int64(gy)
	if iy < 1 || iy > rows-2 {
		return 0, 0, end
	}
	x0 := max(int64(gx), 1)
	x1 := min(int64(gx+end-lin), nx-1)
	if x0 >= x1 {
		return 0, 0, end
	}
	return iy*nx + x0, x1 - x0, end
}

// RegisterNative installs a native implementation for kernel name. The
// kernel must exist in the module and be a launchable entry.
func (e *Engine) RegisterNative(name string, fn ThreadRange) error {
	f := e.mod.Func(name)
	if f == nil || !f.Kernel {
		return fmt.Errorf("kinterp: RegisterNative: no kernel %q", name)
	}
	if fn == nil {
		return fmt.Errorf("kinterp: RegisterNative(%q): nil implementation", name)
	}
	if e.natives == nil {
		e.natives = make(map[string]ThreadRange)
	}
	e.natives[name] = fn
	return nil
}

// HasNative reports whether the kernel has a native implementation.
func (e *Engine) HasNative(name string) bool {
	_, ok := e.natives[name]
	return ok
}

// AtomicAddF64 is atomicAdd for native kernels: it folds x into the
// partial for addr of the segment the current call covers, which the
// engine adds to memory when the launch ends (see Launch). Folding a
// call's per-thread values from zero in ascending thread order and
// publishing the result once gives the same bits as the IR kernel's
// per-thread atomics. On the nil Reduction of a kernel whose IR has no
// atomic add it fails.
func (r *Reduction) AtomicAddF64(view *memspace.View, addr memspace.Addr, x float64) error {
	if r == nil {
		return fmt.Errorf("kinterp: native atomic add at 0x%x in a kernel whose IR has none", uint64(addr))
	}
	b, err := view.Bytes(addr, 8)
	if err != nil {
		return err
	}
	r.add(b, x)
	return nil
}
