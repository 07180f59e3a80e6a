// Package kir defines the kernel intermediate representation that stands
// in for LLVM IR device code in this reproduction.
//
// Kernels are functions over typed local slots organized into basic
// blocks, with explicit loads/stores through pointers, pointer arithmetic
// (GEP), calls to device functions (nested kernels, paper Fig. 8), and
// CUDA-style thread/block builtins. Two consumers share the IR:
//
//   - kaccess runs the compiler pass of the paper: an interprocedural
//     forward dataflow analysis that derives, per kernel pointer argument,
//     whether the kernel may read and/or write through it.
//   - kinterp executes kernels over a launch grid against the simulated
//     address space (the "GPU").
package kir

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Type is the static type of a parameter or local slot.
type Type uint8

const (
	// TInvalid is the zero Type.
	TInvalid Type = iota
	// TFloat is a 64-bit floating point scalar.
	TFloat
	// TInt is a 64-bit signed integer scalar.
	TInt
	// TPtrF64 points to float64 elements.
	TPtrF64
	// TPtrI64 points to int64 elements.
	TPtrI64
	// TPtrI32 points to int32 elements.
	TPtrI32
	// TPtrU8 points to byte elements.
	TPtrU8
)

// IsPtr reports whether t is a pointer type.
func (t Type) IsPtr() bool { return t >= TPtrF64 }

// ElemSize returns the pointee size in bytes for pointer types, 0 otherwise.
func (t Type) ElemSize() int64 {
	switch t {
	case TPtrF64, TPtrI64:
		return 8
	case TPtrI32:
		return 4
	case TPtrU8:
		return 1
	default:
		return 0
	}
}

// ElemFloat reports whether the pointee is floating point.
func (t Type) ElemFloat() bool { return t == TPtrF64 }

func (t Type) String() string {
	switch t {
	case TFloat:
		return "f64"
	case TInt:
		return "i64"
	case TPtrF64:
		return "f64*"
	case TPtrI64:
		return "i64*"
	case TPtrI32:
		return "i32*"
	case TPtrU8:
		return "u8*"
	default:
		return "invalid"
	}
}

// Local identifies a local slot within a function.
type Local int

// Param declares one function parameter.
type Param struct {
	Name string
	Type Type
}

// Opcode enumerates instruction kinds.
type Opcode uint8

const (
	// OpConstF : dst <- float constant.
	OpConstF Opcode = iota
	// OpConstI : dst <- int constant.
	OpConstI
	// OpMov : dst <- src (same type).
	OpMov
	// OpBinF : dst <- a <fop> b on floats.
	OpBinF
	// OpBinI : dst <- a <iop> b on ints.
	OpBinI
	// OpCmpF : int dst <- a <pred> b on floats (0/1).
	OpCmpF
	// OpCmpI : int dst <- a <pred> b on ints (0/1).
	OpCmpI
	// OpI2F : float dst <- int src.
	OpI2F
	// OpF2I : int dst <- float src (truncating).
	OpF2I
	// OpBuiltin : int dst <- thread/block builtin.
	OpBuiltin
	// OpGEP : ptr dst <- ptr a + b*elemsize (b is an int local).
	OpGEP
	// OpLoad : dst <- *a (dst type matches pointee).
	OpLoad
	// OpStore : *a <- b.
	OpStore
	// OpCall : [dst <-] call Callee(Args...).
	OpCall
	// OpAtomicAddF : atomically *a += b (float pointee); used by
	// reduction kernels.
	OpAtomicAddF
	// OpSyncthreads : __syncthreads() block-level barrier. All threads of
	// one block reach the barrier before any proceeds; accesses of the
	// same block separated by a barrier are ordered (no race), while
	// threads of different blocks are never ordered by it. It has no
	// operands.
	OpSyncthreads
)

// BinOp enumerates arithmetic operators (meaning depends on OpBinF/OpBinI).
type BinOp uint8

// Arithmetic operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem // ints only
	Min
	Max
	And // ints only
	Or  // ints only
	Shl // ints only
	Shr // ints only
)

func (o BinOp) String() string {
	return [...]string{"add", "sub", "mul", "div", "rem", "min", "max", "and", "or", "shl", "shr"}[o]
}

// Pred enumerates comparison predicates.
type Pred uint8

// Comparison predicates.
const (
	Eq Pred = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (p Pred) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[p]
}

// Builtin enumerates CUDA thread-geometry builtins.
type Builtin uint8

// Thread-geometry builtins (x/y dimensions).
const (
	ThreadIdxX Builtin = iota
	ThreadIdxY
	BlockIdxX
	BlockIdxY
	BlockDimX
	BlockDimY
	GridDimX
	GridDimY
	// GlobalIdX is blockIdx.x*blockDim.x + threadIdx.x, precomputed for
	// convenience.
	GlobalIdX
	// GlobalIdY is the y analog.
	GlobalIdY
)

func (b Builtin) String() string {
	return [...]string{
		"threadIdx.x", "threadIdx.y", "blockIdx.x", "blockIdx.y",
		"blockDim.x", "blockDim.y", "gridDim.x", "gridDim.y",
		"globalId.x", "globalId.y",
	}[b]
}

// Instr is one non-terminator instruction.
type Instr struct {
	Op      Opcode
	Dst     Local
	A, B    Local
	FImm    float64
	IImm    int64
	Bin     BinOp
	Pred    Pred
	Builtin Builtin
	Callee  string
	Args    []Local
}

// TermKind enumerates block terminators.
type TermKind uint8

const (
	// TermBr jumps unconditionally to Target.
	TermBr TermKind = iota
	// TermCondBr jumps to Target if Cond != 0, else to Else.
	TermCondBr
	// TermRet returns, optionally with value Val (if HasVal).
	TermRet
)

// Terminator ends a basic block.
type Terminator struct {
	Kind   TermKind
	Cond   Local
	Target int
	Else   int
	Val    Local
	HasVal bool
}

// Block is a basic block: straight-line instructions plus one terminator.
type Block struct {
	Name   string
	Instrs []Instr
	Term   Terminator
}

// Function is a device function or kernel entry.
type Function struct {
	Name string
	// Params occupy locals [0, len(Params)).
	Params []Param
	// LocalTypes types every local slot, including parameters.
	LocalTypes []Type
	// RetType is TInvalid for void functions.
	RetType Type
	Blocks  []*Block
	// Kernel marks launchable entry points (as opposed to device-only
	// functions callable from other kernels).
	Kernel bool
}

// NumParams returns the parameter count.
func (f *Function) NumParams() int { return len(f.Params) }

// ParamIndex returns the index of the named parameter, or -1.
func (f *Function) ParamIndex(name string) int {
	for i, p := range f.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Module is a set of functions compiled together ("fat binary" analog).
// It is built with Add, then sealed by its first consumer (Seal); from
// then on it is immutable and may be shared by any number of goroutines.
type Module struct {
	funcs map[string]*Function
	order []string

	sealed    atomic.Bool
	seal      sync.Once
	verifyErr error
	memo      sync.Once
	memoVal   any
	memoErr   error
}

// NewModule creates an empty module.
func NewModule() *Module {
	return &Module{funcs: make(map[string]*Function)}
}

// Add registers a function. Duplicate names panic: the toolchain builds
// modules programmatically and a duplicate is a build bug.
func (m *Module) Add(f *Function) {
	if m.sealed.Load() {
		panic(fmt.Sprintf("kir: Add(%q) on a sealed module", f.Name))
	}
	if _, dup := m.funcs[f.Name]; dup {
		panic(fmt.Sprintf("kir: duplicate function %q", f.Name))
	}
	m.funcs[f.Name] = f
	m.order = append(m.order, f.Name)
}

// Seal freezes m and verifies it, once: Add panics from then on, so
// nothing computed from m can go stale, and later calls return the first
// verdict without verifying again. Everything that derives facts from a
// module (kaccess.Analyze, kinterp.Compile) seals it first. Safe for
// concurrent use.
func (m *Module) Seal() error {
	m.seal.Do(func() {
		m.sealed.Store(true)
		m.verifyErr = Verify(m)
	})
	return m.verifyErr
}

// Memo returns what build(m) returned, calling build on the first call
// only; later calls, from any goroutine, return that first result
// whatever build they pass. It is the one slot where the toolchain keeps
// its compiled form of m (cuda.Compile): the value lives exactly as long
// as m, so no process-wide table keeps dropped modules alive. build must
// seal m.
func (m *Module) Memo(build func(*Module) (any, error)) (any, error) {
	m.memo.Do(func() { m.memoVal, m.memoErr = build(m) })
	return m.memoVal, m.memoErr
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Function { return m.funcs[name] }

// Functions returns all functions in insertion order.
func (m *Module) Functions() []*Function {
	out := make([]*Function, 0, len(m.order))
	for _, n := range m.order {
		out = append(out, m.funcs[n])
	}
	return out
}

// Kernels returns the launchable entry points in insertion order.
func (m *Module) Kernels() []*Function {
	var out []*Function
	for _, f := range m.Functions() {
		if f.Kernel {
			out = append(out, f)
		}
	}
	return out
}
