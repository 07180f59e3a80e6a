// Package kaccess implements the device-code compiler analysis of the
// paper (§IV-B1): a conservative interprocedural forward dataflow analysis
// that determines, for every pointer argument of every kernel, whether the
// kernel may read and/or write through it.
//
// Pointer flow is tracked through moves, pointer arithmetic (GEP), and
// calls to nested device functions: each local carries the set of formal
// pointer parameters it may alias (a bitmask), states are joined at
// control-flow merges, and function summaries are iterated to a fixpoint
// over the (possibly cyclic) call graph. This reproduces the paper's
// Fig. 8 behaviour, including the aliasing case: a pointer passed to a
// callee parameter inherits exactly the accesses the callee performs
// through that parameter.
//
// The resulting per-kernel access attributes are the "kernel analysis
// data" handed from device compilation to host instrumentation
// (paper Fig. 7), which CuSan's runtime uses to annotate kernel argument
// memory ranges with TSan.
package kaccess

import (
	"fmt"
	"strings"

	"cusango/internal/kir"
)

// Access is a read/write attribute bitset.
type Access uint8

// Access attributes per kernel argument.
const (
	// None: the argument is never dereferenced.
	None Access = 0
	// Read: the kernel may load through the argument.
	Read Access = 1 << iota
	// Write: the kernel may store through the argument.
	Write
	// ReadWrite: both.
	ReadWrite = Read | Write
)

// MayRead reports whether the attribute includes reads.
func (a Access) MayRead() bool { return a&Read != 0 }

// MayWrite reports whether the attribute includes writes.
func (a Access) MayWrite() bool { return a&Write != 0 }

func (a Access) String() string {
	switch a {
	case None:
		return "none"
	case Read:
		return "r"
	case Write:
		return "w"
	case ReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("access(%d)", uint8(a))
	}
}

// Summary holds the per-parameter attributes of one function.
type Summary struct {
	Func   string
	Params []Access
}

func (s *Summary) String() string {
	parts := make([]string, len(s.Params))
	for i, a := range s.Params {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", s.Func, strings.Join(parts, ", "))
}

func (s *Summary) clone() *Summary {
	c := &Summary{Func: s.Func, Params: make([]Access, len(s.Params))}
	copy(c.Params, s.Params)
	return c
}

func (s *Summary) equal(o *Summary) bool {
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// Result maps function names to summaries. It is read-only once
// Analyze returns, so one Result can serve every device and goroutine
// that runs the module.
type Result struct {
	summaries map[string]*Summary
}

// Summary returns the named function's summary, or nil.
func (r *Result) Summary(name string) *Summary { return r.summaries[name] }

// KernelArgs returns the access attributes of the named kernel's
// arguments, or nil for a name the module does not define. Analyze
// summarizes every function, so a launch that passed the runtime's
// kernel lookup always finds one. The slice is shared: callers must not
// modify it.
func (r *Result) KernelArgs(name string) []Access {
	if s := r.summaries[name]; s != nil {
		return s.Params
	}
	return nil
}

// String renders all summaries, one per line, in sorted order — the
// serialized "kernel analysis data" artifact.
func (r *Result) String() string {
	names := make([]string, 0, len(r.summaries))
	for n := range r.summaries {
		names = append(names, n)
	}
	// insertion-independent deterministic order
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	var b strings.Builder
	for _, n := range names {
		b.WriteString(r.summaries[n].String())
		b.WriteByte('\n')
	}
	return b.String()
}

const maxParams = 64

// Analyze seals and verifies the module (kir.Module.Seal) and computes
// access summaries for every function to a fixpoint over the call graph.
func Analyze(m *kir.Module) (*Result, error) {
	if err := m.Seal(); err != nil {
		return nil, err
	}
	res := &Result{summaries: make(map[string]*Summary)}
	funcs := m.Functions()
	for _, f := range funcs {
		if len(f.Params) > maxParams {
			return nil, fmt.Errorf("kaccess: function %q has %d params, max %d", f.Name, len(f.Params), maxParams)
		}
		res.summaries[f.Name] = &Summary{Func: f.Name, Params: make([]Access, len(f.Params))}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			ns := analyzeFunc(f, res)
			if !ns.equal(res.summaries[f.Name]) {
				res.summaries[f.Name] = ns
				changed = true
			}
		}
	}
	return res, nil
}

// paramMask is the set of formal pointer parameters a local may alias.
type paramMask uint64

// analyzeFunc runs the intraprocedural forward dataflow for one function
// given the current callee summaries, and returns its (possibly improved)
// summary.
func analyzeFunc(f *kir.Function, res *Result) *Summary {
	nLocals := len(f.LocalTypes)
	nBlocks := len(f.Blocks)

	// entry state: pointer params alias themselves.
	entry := make([]paramMask, nLocals)
	for i, p := range f.Params {
		if p.Type.IsPtr() {
			entry[i] = 1 << uint(i)
		}
	}

	in := make([][]paramMask, nBlocks)
	in[0] = entry
	worklist := []int{0}
	inList := make([]bool, nBlocks)
	inList[0] = true

	join := func(dst, src []paramMask) bool {
		changed := false
		for i, m := range src {
			if dst[i]|m != dst[i] {
				dst[i] |= m
				changed = true
			}
		}
		return changed
	}

	// transfer applies block b to state, optionally recording accesses
	// into sum.
	transfer := func(b *kir.Block, state []paramMask, sum *Summary) {
		record := func(mask paramMask, acc Access) {
			if sum == nil || mask == 0 {
				return
			}
			for i := 0; mask != 0; i++ {
				if mask&1 != 0 {
					sum.Params[i] |= acc
				}
				mask >>= 1
			}
		}
		for _, ins := range b.Instrs {
			switch ins.Op {
			case kir.OpMov, kir.OpGEP:
				state[ins.Dst] = state[ins.A]
			case kir.OpLoad:
				record(state[ins.A], Read)
				state[ins.Dst] = 0
			case kir.OpStore:
				record(state[ins.A], Write)
			case kir.OpAtomicAddF:
				record(state[ins.A], ReadWrite)
			case kir.OpSyncthreads:
				// Barrier: no dataflow effect. (It must not fall through to
				// the default: its zero-valued Dst would clobber local 0.)
			case kir.OpCall:
				callee := res.summaries[ins.Callee]
				var argUnion paramMask
				for ai, a := range ins.Args {
					if callee != nil && ai < len(callee.Params) {
						record(state[a], callee.Params[ai])
					}
					argUnion |= state[a]
				}
				if ins.Dst >= 0 {
					// Conservative: a pointer-returning callee may return
					// any pointer it was passed.
					if f.LocalTypes[ins.Dst].IsPtr() {
						state[ins.Dst] = argUnion
					} else {
						state[ins.Dst] = 0
					}
				}
			default:
				if ins.Dst >= 0 && ins.Op != kir.OpStore {
					state[ins.Dst] = 0
				}
			}
		}
	}

	succ := func(b *kir.Block) []int {
		switch b.Term.Kind {
		case kir.TermBr:
			return []int{b.Term.Target}
		case kir.TermCondBr:
			return []int{b.Term.Target, b.Term.Else}
		default:
			return nil
		}
	}

	scratch := make([]paramMask, nLocals)
	for len(worklist) > 0 {
		bi := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		inList[bi] = false
		copy(scratch, in[bi])
		transfer(f.Blocks[bi], scratch, nil)
		for _, si := range succ(f.Blocks[bi]) {
			if in[si] == nil {
				in[si] = make([]paramMask, nLocals)
				copy(in[si], scratch)
				if !inList[si] {
					worklist = append(worklist, si)
					inList[si] = true
				}
				continue
			}
			if join(in[si], scratch) && !inList[si] {
				worklist = append(worklist, si)
				inList[si] = true
			}
		}
	}

	// Final pass: collect accesses with converged in-states.
	sum := res.summaries[f.Name].clone()
	for bi, b := range f.Blocks {
		if in[bi] == nil {
			continue // unreachable block
		}
		copy(scratch, in[bi])
		transfer(b, scratch, sum)
	}
	return sum
}
