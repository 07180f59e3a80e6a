// Package kinterp executes kir kernels over a CUDA-style launch grid
// against the simulated address space. It is the "GPU" of this
// reproduction: device threads are interpreted, optionally in parallel
// across a worker pool (the SM analog), while the host goroutine is the
// only party talking to the race detector — device-side work never
// touches TSan state, exactly as DMA and device execution bypass TSan's
// instrumentation in the real system (paper §II-B).
package kinterp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// Dim3 is a CUDA dim3 with the z dimension fixed at 1.
type Dim3 struct {
	X, Y int
}

// Dim returns a 1D dimension.
func Dim(x int) Dim3 { return Dim3{X: x, Y: 1} }

// Dim2 returns a 2D dimension.
func Dim2(x, y int) Dim3 { return Dim3{X: x, Y: y} }

// Count returns the number of threads/blocks the dimension describes.
func (d Dim3) Count() int {
	x, y := d.X, d.Y
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	return x * y
}

func (d Dim3) norm() Dim3 {
	if d.X <= 0 {
		d.X = 1
	}
	if d.Y <= 0 {
		d.Y = 1
	}
	return d
}

// ArgKind discriminates launch argument kinds.
type ArgKind uint8

// Launch argument kinds.
const (
	ArgFloat ArgKind = iota
	ArgInt
	ArgPtr
)

// Arg is one kernel launch argument.
type Arg struct {
	Kind ArgKind
	F    float64
	I    int64
	Ptr  memspace.Addr
}

// F64 constructs a float argument.
func F64(x float64) Arg { return Arg{Kind: ArgFloat, F: x} }

// Int constructs an int argument.
func Int(x int64) Arg { return Arg{Kind: ArgInt, I: x} }

// Ptr constructs a pointer argument.
func Ptr(a memspace.Addr) Arg { return Arg{Kind: ArgPtr, Ptr: a} }

// Config tunes the engine.
type Config struct {
	// Workers is the size of the execution pool; 0 means GOMAXPROCS.
	Workers int
	// SerialThreshold: launches with at most this many threads run on the
	// calling goroutine (avoids pool overhead for tiny kernels).
	SerialThreshold int
	// MaxStepsPerThread bounds interpretation steps per device thread to
	// catch runaway kernels; 0 means the default of 50M.
	MaxStepsPerThread int64
}

// Engine executes kernels of one module, interpreting them or running
// registered native implementations (see native.go).
type Engine struct {
	mod     *kir.Module
	cfg     Config
	natives map[string]ThreadRange
	// atomic holds the kernels whose IR can execute OpAtomicAddF; only
	// their launches are split on segment boundaries.
	atomic map[string]bool
	// atomicMu makes the publication of a launch's float atomic partials
	// (publish) atomic with respect to other launches running at the
	// same time on asynchronous streams.
	atomicMu sync.Mutex
}

// DefaultSerialThreshold is the launch size up to which kernels run
// inline on the calling goroutine.
const DefaultSerialThreshold = 2048

// SegmentSize is the number of consecutive linear thread ids whose float
// atomic adds fold into one partial. It fixes the summation order of
// OpAtomicAddF (see Launch) and is deliberately independent of Workers,
// SerialThreshold and GOMAXPROCS.
const SegmentSize = 256

const defaultMaxSteps = 50_000_000

// New creates an engine for the verified module.
func New(mod *kir.Module, cfg Config) (*Engine, error) {
	if err := kir.Verify(mod); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SerialThreshold <= 0 {
		cfg.SerialThreshold = DefaultSerialThreshold
	}
	if cfg.MaxStepsPerThread <= 0 {
		cfg.MaxStepsPerThread = defaultMaxSteps
	}
	atomic := make(map[string]bool)
	for _, f := range mod.Kernels() {
		atomic[f.Name] = hasAtomicAdd(mod, f, map[string]bool{})
	}
	return &Engine{mod: mod, cfg: cfg, atomic: atomic}, nil
}

// hasAtomicAdd reports whether f, or a device function it calls, contains
// OpAtomicAddF.
func hasAtomicAdd(mod *kir.Module, f *kir.Function, seen map[string]bool) bool {
	seen[f.Name] = true
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == kir.OpAtomicAddF:
				return true
			case in.Op == kir.OpCall && !seen[in.Callee]:
				if hasAtomicAdd(mod, mod.Func(in.Callee), seen) {
					return true
				}
			}
		}
	}
	return false
}

// Module returns the engine's module.
func (e *Engine) Module() *kir.Module { return e.mod }

// KernelError wraps an execution failure with kernel context.
type KernelError struct {
	Kernel string
	Thread int
	Err    error
}

func (e *KernelError) Error() string {
	return fmt.Sprintf("kinterp: kernel %q, thread %d: %v", e.Kernel, e.Thread, e.Err)
}

func (e *KernelError) Unwrap() error { return e.Err }

var (
	errMaxSteps   = errors.New("step limit exceeded (runaway kernel?)")
	errNilPtr     = errors.New("null or out-of-bounds pointer dereference")
	errDepth      = errors.New("device call stack too deep")
	errDivByZero  = errors.New("integer division by zero")
	errBadBuiltin = errors.New("unknown builtin")
)

// Launch executes kernel name over grid×block threads. Arguments must
// match the kernel signature (checked). mem must not be mutated
// structurally (alloc/free) during the launch.
//
// Float atomic adds (OpAtomicAddF, Reduction.AtomicAddF64) follow one
// summation order whatever the worker count or execution mode: the
// launch's linear thread ids are cut into segments of SegmentSize; within
// a segment the adds to one address fold from zero in ascending thread
// order; after the last thread, the segment partials are added to memory
// in segment order. Atomic results therefore become visible when the
// launch ends. A launch that faults publishes none of them.
func (e *Engine) Launch(name string, grid, block Dim3, args []Arg, mem *memspace.Memory) error {
	return e.LaunchView(name, grid, block, args, mem.NewView())
}

// LaunchView is Launch against a pre-built memory snapshot; the
// asynchronous device executor uses it so views are taken on the host
// goroutine at enqueue time.
func (e *Engine) LaunchView(name string, grid, block Dim3, args []Arg, view *memspace.View) error {
	f := e.mod.Func(name)
	if f == nil {
		return fmt.Errorf("kinterp: unknown kernel %q", name)
	}
	if !f.Kernel {
		return fmt.Errorf("kinterp: %q is a device function, not a kernel", name)
	}
	if err := checkArgs(f, args); err != nil {
		return err
	}
	grid, block = grid.norm(), block.norm()
	total := grid.Count() * block.Count()
	if total == 0 {
		return nil
	}
	workers := e.cfg.Workers
	if total <= e.cfg.SerialThreshold {
		workers = 1
	}

	if native, ok := e.natives[name]; ok {
		return e.launchNative(name, native, grid, block, total, workers, args, view)
	}

	geom := geometry{grid: grid, block: block}
	return e.run(total, workers, e.atomic[name], view, func(v *memspace.View, lo, hi int, red *Reduction) error {
		return newWorker(e, v, geom, f, args, red).runRange(lo, hi)
	})
}

// run executes threads [0, total) of one launch through body and then
// publishes the launch's float atomic partials. One worker runs body on
// the calling goroutine; more split the launch into contiguous ranges,
// each with its own view clone. The ranges of a kernel with atomics
// (ordered) consist of whole segments; each of its workers allocates its
// own Reduction, so that workers never write to a shared cache line.
// Other kernels get nil Reductions.
func (e *Engine) run(total, workers int, ordered bool, view *memspace.View,
	body func(v *memspace.View, lo, hi int, red *Reduction) error) error {
	unit := 1
	if ordered {
		unit = SegmentSize
	}
	units := (total + unit - 1) / unit
	workers = min(workers, units)
	reds := make([]*Reduction, workers)
	exec := func(wi int, v *memspace.View, lo, hi int) error {
		if ordered {
			reds[wi] = &Reduction{parts: make([]partial, 0, (hi-lo+unit-1)/unit)}
		}
		return body(v, lo, hi, reds[wi])
	}
	if workers == 1 {
		if err := exec(0, view, 0, total); err != nil {
			return err
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for wi := range workers {
			lo, hi := wi*units/workers*unit, min((wi+1)*units/workers*unit, total)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[wi] = exec(wi, view.Clone(), lo, hi)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if ordered {
		e.publish(reds)
	}
	return nil
}

// Reduction is one launch worker's share of the launch's float atomic
// adds, kept as segment partials in ascending segment order (see
// Launch). The engine hands it to the native kernels whose IR adds
// atomically, and nil to the others.
type Reduction struct {
	parts []partial
	// parts[start:] belong to segment seg, the one being executed.
	seg, start int
}

// partial is one segment's fold for the float64 at p.
type partial struct {
	p *[8]byte
	v float64
}

// enter makes seg the segment being executed. A worker runs its threads
// in ascending order, so it enters segments in ascending order.
func (r *Reduction) enter(seg int) {
	if seg != r.seg {
		r.seg, r.start = seg, len(r.parts)
	}
}

// add folds x into the current segment's partial for the float64 at b.
func (r *Reduction) add(b []byte, x float64) {
	p := (*[8]byte)(b)
	for i := r.start; i < len(r.parts); i++ {
		if r.parts[i].p == p {
			r.parts[i].v += x
			return
		}
	}
	r.parts = append(r.parts, partial{p: p})
	r.parts[len(r.parts)-1].v += x
}

// publish adds the partials of one launch to memory in segment order:
// reds[wi] belongs to worker wi, and workers hold ascending ranges.
func (e *Engine) publish(reds []*Reduction) {
	e.atomicMu.Lock()
	defer e.atomicMu.Unlock()
	for _, red := range reds {
		for _, p := range red.parts {
			pef64(p.p[:], lef64(p.p[:])+p.v)
		}
	}
}

func checkArgs(f *kir.Function, args []Arg) error {
	if len(args) != len(f.Params) {
		return fmt.Errorf("kinterp: kernel %q: %d args, want %d", f.Name, len(args), len(f.Params))
	}
	for i, a := range args {
		p := f.Params[i]
		switch {
		case p.Type == kir.TFloat && a.Kind != ArgFloat:
			return fmt.Errorf("kinterp: kernel %q arg %d (%s): want float", f.Name, i, p.Name)
		case p.Type == kir.TInt && a.Kind != ArgInt:
			return fmt.Errorf("kinterp: kernel %q arg %d (%s): want int", f.Name, i, p.Name)
		case p.Type.IsPtr() && a.Kind != ArgPtr:
			return fmt.Errorf("kinterp: kernel %q arg %d (%s): want pointer", f.Name, i, p.Name)
		}
	}
	return nil
}

type geometry struct {
	grid, block Dim3
}

// frame is one interpreted activation record: parallel float/int register
// banks (pointers live in the int bank as raw addresses).
type frame struct {
	fregs []float64
	iregs []int64
}

type worker struct {
	eng   *Engine
	view  *memspace.View
	geom  geometry
	entry *kir.Function
	args  []Arg
	// frames are pooled by call depth.
	pool  []*frame
	steps int64
	// lin is the linear id of the thread currently executing; interval
	// counts the barriers it has passed. log, when non-nil (LaunchLogged),
	// receives every memory access.
	lin      int
	interval int32
	log      *AccessLog
	// red collects the worker's float atomic adds.
	red *Reduction
}

func newWorker(e *Engine, v *memspace.View, g geometry, f *kir.Function, args []Arg, red *Reduction) *worker {
	return &worker{eng: e, view: v, geom: g, entry: f, args: args, red: red}
}

func (w *worker) frameAt(depth, size int) *frame {
	for depth >= len(w.pool) {
		w.pool = append(w.pool, &frame{})
	}
	fr := w.pool[depth]
	if cap(fr.fregs) < size {
		fr.fregs = make([]float64, size)
		fr.iregs = make([]int64, size)
	}
	fr.fregs = fr.fregs[:size]
	fr.iregs = fr.iregs[:size]
	return fr
}

// thread geometry for one linear thread id.
type threadCtx struct {
	tx, ty, bx, by int64
	bdx, bdy       int64
	gdx, gdy       int64
}

func (w *worker) ctxFor(lin int) threadCtx {
	gw := w.geom.grid.X * w.geom.block.X // global width in threads
	gx := int64(lin % gw)
	gy := int64(lin / gw)
	bdx, bdy := int64(w.geom.block.X), int64(w.geom.block.Y)
	return threadCtx{
		tx: gx % bdx, bx: gx / bdx,
		ty: gy % bdy, by: gy / bdy,
		bdx: bdx, bdy: bdy,
		gdx: int64(w.geom.grid.X), gdy: int64(w.geom.grid.Y),
	}
}

func (w *worker) runRange(lo, hi int) error {
	maxSteps := w.eng.cfg.MaxStepsPerThread
	for lin := lo; lin < hi; lin++ {
		ctx := w.ctxFor(lin)
		w.steps = 0
		w.lin = lin
		w.interval = 0
		fr := w.frameAt(0, len(w.entry.LocalTypes))
		for i, a := range w.args {
			switch a.Kind {
			case ArgFloat:
				fr.fregs[i] = a.F
			case ArgInt:
				fr.iregs[i] = a.I
			case ArgPtr:
				fr.iregs[i] = int64(a.Ptr)
			}
		}
		if _, _, err := w.exec(w.entry, fr, ctx, 0, maxSteps); err != nil {
			return &KernelError{Kernel: w.entry.Name, Thread: lin, Err: err}
		}
		if w.log != nil {
			w.log.Totals = append(w.log.Totals, w.interval)
		}
	}
	return nil
}

const maxCallDepth = 64

// exec interprets one function activation; returns (retF, retI, err).
func (w *worker) exec(f *kir.Function, fr *frame, ctx threadCtx, depth int, maxSteps int64) (float64, int64, error) {
	if depth > maxCallDepth {
		return 0, 0, errDepth
	}
	bi := 0
	for {
		b := f.Blocks[bi]
		// Count the block transition itself so an empty infinite loop
		// still trips the step limit.
		w.steps++
		if w.steps > maxSteps {
			return 0, 0, errMaxSteps
		}
		for ii := range b.Instrs {
			w.steps++
			if w.steps > maxSteps {
				return 0, 0, errMaxSteps
			}
			in := &b.Instrs[ii]
			switch in.Op {
			case kir.OpConstF:
				fr.fregs[in.Dst] = in.FImm
			case kir.OpConstI:
				fr.iregs[in.Dst] = in.IImm
			case kir.OpMov:
				fr.fregs[in.Dst] = fr.fregs[in.A]
				fr.iregs[in.Dst] = fr.iregs[in.A]
			case kir.OpBinF:
				a, bb := fr.fregs[in.A], fr.fregs[in.B]
				var r float64
				switch in.Bin {
				case kir.Add:
					r = a + bb
				case kir.Sub:
					r = a - bb
				case kir.Mul:
					r = a * bb
				case kir.Div:
					r = a / bb
				case kir.Min:
					r = math.Min(a, bb)
				case kir.Max:
					r = math.Max(a, bb)
				}
				fr.fregs[in.Dst] = r
			case kir.OpBinI:
				a, bb := fr.iregs[in.A], fr.iregs[in.B]
				var r int64
				switch in.Bin {
				case kir.Add:
					r = a + bb
				case kir.Sub:
					r = a - bb
				case kir.Mul:
					r = a * bb
				case kir.Div:
					if bb == 0 {
						return 0, 0, errDivByZero
					}
					r = a / bb
				case kir.Rem:
					if bb == 0 {
						return 0, 0, errDivByZero
					}
					r = a % bb
				case kir.Min:
					r = a
					if bb < a {
						r = bb
					}
				case kir.Max:
					r = a
					if bb > a {
						r = bb
					}
				case kir.And:
					r = a & bb
				case kir.Or:
					r = a | bb
				case kir.Shl:
					r = a << uint(bb&63)
				case kir.Shr:
					r = a >> uint(bb&63)
				}
				fr.iregs[in.Dst] = r
			case kir.OpCmpF:
				fr.iregs[in.Dst] = b2i(cmpF(in.Pred, fr.fregs[in.A], fr.fregs[in.B]))
			case kir.OpCmpI:
				fr.iregs[in.Dst] = b2i(cmpI(in.Pred, fr.iregs[in.A], fr.iregs[in.B]))
			case kir.OpI2F:
				fr.fregs[in.Dst] = float64(fr.iregs[in.A])
			case kir.OpF2I:
				fr.iregs[in.Dst] = int64(fr.fregs[in.A])
			case kir.OpBuiltin:
				v, err := builtinVal(in.Builtin, ctx)
				if err != nil {
					return 0, 0, err
				}
				fr.iregs[in.Dst] = v
			case kir.OpGEP:
				es := f.LocalTypes[in.A].ElemSize()
				fr.iregs[in.Dst] = fr.iregs[in.A] + fr.iregs[in.B]*es
			case kir.OpLoad:
				pt := f.LocalTypes[in.A]
				addr := memspace.Addr(fr.iregs[in.A])
				bs, err := w.view.Bytes(addr, pt.ElemSize())
				if err != nil {
					return 0, 0, fmt.Errorf("%w: load at 0x%x", errNilPtr, uint64(addr))
				}
				if w.log != nil {
					w.record(addr, pt.ElemSize(), AccessRead)
				}
				switch pt {
				case kir.TPtrF64:
					fr.fregs[in.Dst] = math.Float64frombits(binary.LittleEndian.Uint64(bs))
				case kir.TPtrI64:
					fr.iregs[in.Dst] = int64(binary.LittleEndian.Uint64(bs))
				case kir.TPtrI32:
					fr.iregs[in.Dst] = int64(int32(binary.LittleEndian.Uint32(bs)))
				case kir.TPtrU8:
					fr.iregs[in.Dst] = int64(bs[0])
				}
			case kir.OpStore:
				pt := f.LocalTypes[in.A]
				addr := memspace.Addr(fr.iregs[in.A])
				bs, err := w.view.Bytes(addr, pt.ElemSize())
				if err != nil {
					return 0, 0, fmt.Errorf("%w: store at 0x%x", errNilPtr, uint64(addr))
				}
				if w.log != nil {
					w.record(addr, pt.ElemSize(), AccessWrite)
				}
				switch pt {
				case kir.TPtrF64:
					binary.LittleEndian.PutUint64(bs, math.Float64bits(fr.fregs[in.B]))
				case kir.TPtrI64:
					binary.LittleEndian.PutUint64(bs, uint64(fr.iregs[in.B]))
				case kir.TPtrI32:
					binary.LittleEndian.PutUint32(bs, uint32(fr.iregs[in.B]))
				case kir.TPtrU8:
					bs[0] = byte(fr.iregs[in.B])
				}
			case kir.OpAtomicAddF:
				addr := memspace.Addr(fr.iregs[in.A])
				bs, err := w.view.Bytes(addr, 8)
				if err != nil {
					return 0, 0, fmt.Errorf("%w: atomic add at 0x%x", errNilPtr, uint64(addr))
				}
				if w.log != nil {
					w.record(addr, 8, AccessAtomic)
				}
				w.red.enter(w.lin / SegmentSize)
				w.red.add(bs, fr.fregs[in.B])
			case kir.OpSyncthreads:
				// The interpreter runs each thread to completion
				// independently, so the barrier is a pure interval marker:
				// it partitions the thread's accesses into barrier
				// intervals for the race oracle. This is faithful for
				// kernels whose behavior does not depend on cross-thread
				// data flow within a launch (the serial oracle runs
				// threads in a fixed order either way).
				w.interval++
			case kir.OpCall:
				callee := w.eng.mod.Func(in.Callee)
				cfr := w.frameAt(depth+1, len(callee.LocalTypes))
				for ai, a := range in.Args {
					cfr.fregs[ai] = fr.fregs[a]
					cfr.iregs[ai] = fr.iregs[a]
				}
				rf, ri, err := w.exec(callee, cfr, ctx, depth+1, maxSteps)
				if err != nil {
					return 0, 0, err
				}
				if in.Dst >= 0 {
					fr.fregs[in.Dst] = rf
					fr.iregs[in.Dst] = ri
				}
			}
		}
		switch b.Term.Kind {
		case kir.TermBr:
			bi = b.Term.Target
		case kir.TermCondBr:
			if fr.iregs[b.Term.Cond] != 0 {
				bi = b.Term.Target
			} else {
				bi = b.Term.Else
			}
		case kir.TermRet:
			if b.Term.HasVal {
				return fr.fregs[b.Term.Val], fr.iregs[b.Term.Val], nil
			}
			return 0, 0, nil
		}
	}
}

// launchNative runs a registered native kernel over the same worker
// split as the interpreter. A kernel whose IR adds atomically is called
// once per segment, so that its partial is the segment's.
func (e *Engine) launchNative(name string, fn ThreadRange, grid, block Dim3,
	total, workers int, args []Arg, view *memspace.View) error {
	ordered := e.atomic[name]
	g := Geometry{Grid: grid, Block: block}
	err := e.run(total, workers, ordered, view, func(v *memspace.View, lo, hi int, red *Reduction) error {
		if !ordered {
			return fn(g, lo, hi, args, v, nil)
		}
		for s := lo; s < hi; s += SegmentSize {
			red.enter(s / SegmentSize)
			if err := fn(g, s, min(s+SegmentSize, hi), args, v, red); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return &KernelError{Kernel: name, Err: err}
	}
	return nil
}

func lef64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func pef64(b []byte, x float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(x))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpF(p kir.Pred, a, b float64) bool {
	switch p {
	case kir.Eq:
		return a == b
	case kir.Ne:
		return a != b
	case kir.Lt:
		return a < b
	case kir.Le:
		return a <= b
	case kir.Gt:
		return a > b
	default:
		return a >= b
	}
}

func cmpI(p kir.Pred, a, b int64) bool {
	switch p {
	case kir.Eq:
		return a == b
	case kir.Ne:
		return a != b
	case kir.Lt:
		return a < b
	case kir.Le:
		return a <= b
	case kir.Gt:
		return a > b
	default:
		return a >= b
	}
}

func builtinVal(b kir.Builtin, c threadCtx) (int64, error) {
	switch b {
	case kir.ThreadIdxX:
		return c.tx, nil
	case kir.ThreadIdxY:
		return c.ty, nil
	case kir.BlockIdxX:
		return c.bx, nil
	case kir.BlockIdxY:
		return c.by, nil
	case kir.BlockDimX:
		return c.bdx, nil
	case kir.BlockDimY:
		return c.bdy, nil
	case kir.GridDimX:
		return c.gdx, nil
	case kir.GridDimY:
		return c.gdy, nil
	case kir.GlobalIdX:
		return c.bx*c.bdx + c.tx, nil
	case kir.GlobalIdY:
		return c.by*c.bdy + c.ty, nil
	default:
		return 0, errBadBuiltin
	}
}
