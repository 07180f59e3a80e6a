package kir

import (
	"strings"
	"testing"
)

// buildCopyKernel returns kernel out[i] = in[i] for i < n.
func buildCopyKernel() *Function {
	return KernelFunc("copy", []Param{
		{Name: "out", Type: TPtrF64},
		{Name: "in", Type: TPtrF64},
		{Name: "n", Type: TInt},
	}, func(e *Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.StoreIdx(e.Arg("out"), i, e.LoadIdx(e.Arg("in"), i))
		})
	})
}

func TestModuleAddAndLookup(t *testing.T) {
	m := NewModule()
	f := buildCopyKernel()
	m.Add(f)
	if m.Func("copy") != f {
		t.Fatal("lookup failed")
	}
	if m.Func("nope") != nil {
		t.Fatal("unknown function not nil")
	}
	if len(m.Kernels()) != 1 || len(m.Functions()) != 1 {
		t.Fatal("listing wrong")
	}
}

func TestModuleDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate add")
		}
	}()
	m := NewModule()
	m.Add(buildCopyKernel())
	m.Add(buildCopyKernel())
}

func TestSealedModuleRefusesAdd(t *testing.T) {
	m := NewModule()
	m.Add(buildCopyKernel())
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Add to a sealed module")
		}
	}()
	m.Add(KernelFunc("other", nil, func(*Emitter) {}))
}

func TestSealVerifiesOnce(t *testing.T) {
	m := NewModule()
	m.Add(KernelFunc("k", []Param{{Name: "p", Type: TPtrF64}}, func(e *Emitter) {
		e.Store(e.Arg("p"), e.ConstI(1)) // int stored through a float pointer
	}))
	first := m.Seal()
	if first == nil {
		t.Fatal("Seal accepted an ill-typed module")
	}
	if again := m.Seal(); again != first {
		t.Fatalf("second Seal = %v, want the first verdict %v", again, first)
	}
	calls := 0
	for i := 0; i < 2; i++ {
		if got, _ := m.Memo(func(*Module) (any, error) { calls++; return calls, nil }); got != 1 {
			t.Fatalf("Memo = %v, want the first value 1", got)
		}
	}
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	m := NewModule()
	m.Add(buildCopyKernel())
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyRejectsTypeMismatch(t *testing.T) {
	fb := NewFunction("bad", []Param{{Name: "p", Type: TPtrF64}}, TInvalid)
	i := fb.NewLocal(TInt)
	fb.ConstI(i, 1)
	fb.Load(i, fb.Param("p")) // loading f64 into an int local
	m := NewModule()
	m.Add(fb.Func())
	if err := Verify(m); err == nil {
		t.Fatal("expected verify error for load type mismatch")
	}
}

func TestVerifyRejectsUnknownCallee(t *testing.T) {
	fb := NewFunction("caller", nil, TInvalid)
	fb.Call("missing")
	m := NewModule()
	m.Add(fb.Func())
	if err := Verify(m); err == nil {
		t.Fatal("expected verify error for unknown callee")
	}
}

func TestVerifyRejectsArityMismatch(t *testing.T) {
	m := NewModule()
	callee := NewFunction("callee", []Param{{Name: "x", Type: TInt}}, TInvalid)
	m.Add(callee.Func())
	fb := NewFunction("caller", nil, TInvalid)
	fb.Call("callee")
	m.Add(fb.Func())
	if err := Verify(m); err == nil {
		t.Fatal("expected verify error for arity mismatch")
	}
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	fb := NewFunction("bad", nil, TInvalid)
	fb.Br(7)
	m := NewModule()
	m.Add(fb.Func())
	if err := Verify(m); err == nil {
		t.Fatal("expected verify error for branch target")
	}
}

func TestVerifyRejectsGEPOnScalar(t *testing.T) {
	fb := NewFunction("bad", []Param{{Name: "x", Type: TInt}}, TInvalid)
	d := fb.NewLocal(TInt)
	fb.GEP(d, fb.Param("x"), fb.Param("x"))
	m := NewModule()
	m.Add(fb.Func())
	if err := Verify(m); err == nil {
		t.Fatal("expected verify error for GEP on scalar")
	}
}

func TestVerifyRejectsMissingReturnValue(t *testing.T) {
	fb := NewFunction("bad", nil, TInt)
	fb.Ret()
	m := NewModule()
	m.Add(fb.Func())
	if err := Verify(m); err == nil {
		t.Fatal("expected verify error for missing return value")
	}
}

func TestVerifyRejectsAtomicOnIntPtr(t *testing.T) {
	fb := NewFunction("bad", []Param{{Name: "p", Type: TPtrI64}}, TInvalid)
	v := fb.NewLocal(TFloat)
	fb.ConstF(v, 1)
	fb.AtomicAddF(fb.Param("p"), v)
	m := NewModule()
	m.Add(fb.Func())
	if err := Verify(m); err == nil {
		t.Fatal("expected verify error for atomicAddF on i64*")
	}
}

func TestTypeHelpers(t *testing.T) {
	if !TPtrF64.IsPtr() || TInt.IsPtr() {
		t.Error("IsPtr wrong")
	}
	if TPtrF64.ElemSize() != 8 || TPtrI32.ElemSize() != 4 || TPtrU8.ElemSize() != 1 {
		t.Error("ElemSize wrong")
	}
	if TFloat.ElemSize() != 0 {
		t.Error("scalar ElemSize must be 0")
	}
	if !TPtrF64.ElemFloat() || TPtrI64.ElemFloat() {
		t.Error("ElemFloat wrong")
	}
}

func TestPrinterOutput(t *testing.T) {
	f := buildCopyKernel()
	s := f.String()
	for _, want := range []string{"kernel copy", "f64* out", "load", "store", "condbr", "globalId.x"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
}

func TestEmitterForLoopStructure(t *testing.T) {
	f := KernelFunc("loop", []Param{
		{Name: "out", Type: TPtrF64},
		{Name: "n", Type: TInt},
	}, func(e *Emitter) {
		e.For(e.ConstI(0), e.Arg("n"), e.ConstI(1), func(i Value) {
			e.StoreIdx(e.Arg("out"), i, e.ToFloat(i))
		})
	})
	m := NewModule()
	m.Add(f)
	if err := Verify(m); err != nil {
		t.Fatalf("loop kernel does not verify: %v", err)
	}
	if len(f.Blocks) < 4 {
		t.Fatalf("expected >=4 blocks for a loop, got %d", len(f.Blocks))
	}
}

func TestEmitterIfElse(t *testing.T) {
	f := KernelFunc("sel", []Param{
		{Name: "out", Type: TPtrF64},
		{Name: "x", Type: TInt},
	}, func(e *Emitter) {
		zero := e.ConstI(0)
		e.IfElse(e.Gt(e.Arg("x"), zero),
			func() { e.StoreIdx(e.Arg("out"), zero, e.ConstF(1)) },
			func() { e.StoreIdx(e.Arg("out"), zero, e.ConstF(-1)) },
		)
	})
	m := NewModule()
	m.Add(f)
	if err := Verify(m); err != nil {
		t.Fatalf("if/else kernel does not verify: %v", err)
	}
}

func TestEmitterTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic mixing float and int operands")
		}
	}()
	KernelFunc("bad", []Param{{Name: "n", Type: TInt}}, func(e *Emitter) {
		e.Add(e.Arg("n"), e.ConstF(1))
	})
}

func TestParamIndex(t *testing.T) {
	f := buildCopyKernel()
	if f.ParamIndex("in") != 1 || f.ParamIndex("nope") != -1 {
		t.Fatal("ParamIndex wrong")
	}
}
