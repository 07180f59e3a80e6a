package kinterp

import (
	"fmt"
	"sync"

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
// Equivalence between a kernel's IR and native implementations is a
// testable property; the apps' tests compare both modes bit for bit.

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

// VecF64 is a helper for native kernels: a float64 view over simulated
// memory, resolved once per kernel range instead of per access.
type VecF64 struct {
	b []byte
}

// NewVecF64 resolves count float64 elements at addr.
func NewVecF64(view *memspace.View, addr memspace.Addr, count int64) (VecF64, error) {
	b, err := view.Bytes(addr, count*8)
	if err != nil {
		return VecF64{}, err
	}
	return VecF64{b: b}, nil
}

// Len returns the element count.
func (v VecF64) Len() int { return len(v.b) / 8 }

// At loads element i.
func (v VecF64) At(i int64) float64 {
	return lef64(v.b[i*8 : i*8+8])
}

// Set stores element i.
func (v VecF64) Set(i int64, x float64) {
	pef64(v.b[i*8:i*8+8], x)
}

// Add adds x to element i (single-threaded callers only; reductions
// across threads go through Reduction.AtomicAddF64).
func (v VecF64) Add(i int64, x float64) {
	pef64(v.b[i*8:i*8+8], lef64(v.b[i*8:i*8+8])+x)
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

// globalAtomicMu serializes GlobalAtomicAddF64.
var globalAtomicMu sync.Mutex

// GlobalAtomicAddF64 adds x at addr under a process-wide lock. Concurrent
// callers are applied in whatever order they take the lock, so it is not
// for use inside a launch: native kernels reduce through
// Reduction.AtomicAddF64, which fixes the summation order.
func GlobalAtomicAddF64(view *memspace.View, addr memspace.Addr, x float64) error {
	b, err := view.Bytes(addr, 8)
	if err != nil {
		return err
	}
	globalAtomicMu.Lock()
	pef64(b, lef64(b)+x)
	globalAtomicMu.Unlock()
	return nil
}
