package kaccess

import (
	"strings"
	"testing"

	"cusango/internal/kir"
)

func analyze(t *testing.T, m *kir.Module) *Result {
	t.Helper()
	r, err := Analyze(m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return r
}

func TestSimpleReadWrite(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("copy", []kir.Param{
		{Name: "out", Type: kir.TPtrF64},
		{Name: "in", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.StoreIdx(e.Arg("out"), i, e.LoadIdx(e.Arg("in"), i))
		})
	}))
	r := analyze(t, m)
	args := r.KernelArgs("copy")
	if args[0] != Write {
		t.Errorf("out = %v, want w", args[0])
	}
	if args[1] != Read {
		t.Errorf("in = %v, want r", args[1])
	}
	if args[2] != None {
		t.Errorf("n = %v, want none", args[2])
	}
}

// TestPaperFig8 reproduces the paper's Fig. 8: kernel passes (d_a, d_b)
// to kernel_nested(y, x, tid) which does y[tid] = x[tid]. The analysis
// must follow the pointer flow into the callee: d_a/y are write, d_b/x
// are read.
func TestPaperFig8(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.DeviceFunc("kernel_nested", []kir.Param{
		{Name: "y", Type: kir.TPtrF64},
		{Name: "x", Type: kir.TPtrF64},
		{Name: "tid", Type: kir.TInt},
	}, kir.TInvalid, func(e *kir.Emitter) {
		tid := e.Arg("tid")
		e.StoreIdx(e.Arg("y"), tid, e.LoadIdx(e.Arg("x"), tid))
	}))
	m.Add(kir.KernelFunc("kernel", []kir.Param{
		{Name: "d_a", Type: kir.TPtrF64},
		{Name: "d_b", Type: kir.TPtrF64},
	}, func(e *kir.Emitter) {
		tid := e.GlobalIDX()
		e.Call("kernel_nested", e.Arg("d_a"), e.Arg("d_b"), tid)
	}))
	r := analyze(t, m)

	nested := r.Summary("kernel_nested")
	if nested.Params[0] != Write || nested.Params[1] != Read {
		t.Fatalf("kernel_nested summary wrong: %v", nested)
	}
	outer := r.KernelArgs("kernel")
	if outer[0] != Write {
		t.Errorf("d_a = %v, want w (flows to written param y)", outer[0])
	}
	if outer[1] != Read {
		t.Errorf("d_b = %v, want r (aliasing pointer x only read)", outer[1])
	}
}

func TestAliasThroughGEPAndMov(t *testing.T) {
	m := kir.NewModule()
	fb := kir.NewFunction("k", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
	}, kir.TInvalid)
	fb.Kernel()
	idx := fb.NewLocal(kir.TInt)
	fb.ConstI(idx, 3)
	derived := fb.NewLocal(kir.TPtrF64)
	fb.GEP(derived, fb.Param("p"), idx)
	alias := fb.NewLocal(kir.TPtrF64)
	fb.Mov(alias, derived)
	val := fb.NewLocal(kir.TFloat)
	fb.ConstF(val, 1)
	fb.Store(alias, val)
	m.Add(fb.Func())
	r := analyze(t, m)
	if got := r.KernelArgs("k")[0]; got != Write {
		t.Fatalf("p = %v, want w via gep+mov chain", got)
	}
}

func TestReadWriteSameParam(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("inc", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		ptr := e.GEP(e.Arg("p"), i)
		e.Store(ptr, e.Add(e.Load(ptr), e.ConstF(1)))
	}))
	r := analyze(t, m)
	if got := r.KernelArgs("inc")[0]; got != ReadWrite {
		t.Fatalf("p = %v, want rw", got)
	}
}

func TestUnusedPointerIsNone(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("noop", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
		{Name: "q", Type: kir.TPtrI32},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		_ = e.GEP(e.Arg("p"), i) // address computed but never dereferenced
	}))
	r := analyze(t, m)
	args := r.KernelArgs("noop")
	if args[0] != None || args[1] != None {
		t.Fatalf("args = %v, want none/none", args)
	}
}

func TestBranchDependentAccessJoins(t *testing.T) {
	// p is written on one branch only: must still be Write (may-analysis).
	m := kir.NewModule()
	m.Add(kir.KernelFunc("branchy", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
		{Name: "c", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		zero := e.ConstI(0)
		e.If(e.Gt(e.Arg("c"), zero), func() {
			e.StoreIdx(e.Arg("p"), zero, e.ConstF(1))
		})
	}))
	r := analyze(t, m)
	if got := r.KernelArgs("branchy")[0]; got != Write {
		t.Fatalf("p = %v, want w", got)
	}
}

func TestPointerSelectJoinsBothParams(t *testing.T) {
	// A local may alias p on one path and q on the other: a store through
	// it must mark BOTH as written.
	m := kir.NewModule()
	fb := kir.NewFunction("sel", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
		{Name: "q", Type: kir.TPtrF64},
		{Name: "c", Type: kir.TInt},
	}, kir.TInvalid)
	fb.Kernel()
	ptr := fb.NewLocal(kir.TPtrF64)
	thenB := fb.NewBlock("then")
	elseB := fb.NewBlock("else")
	joinB := fb.NewBlock("join")
	fb.SetBlock(0)
	fb.CondBr(fb.Param("c"), thenB, elseB)
	fb.SetBlock(thenB)
	fb.Mov(ptr, fb.Param("p"))
	fb.Br(joinB)
	fb.SetBlock(elseB)
	fb.Mov(ptr, fb.Param("q"))
	fb.Br(joinB)
	fb.SetBlock(joinB)
	v := fb.NewLocal(kir.TFloat)
	fb.ConstF(v, 2)
	fb.Store(ptr, v)
	fb.Ret()
	m.Add(fb.Func())
	r := analyze(t, m)
	args := r.KernelArgs("sel")
	if args[0] != Write || args[1] != Write {
		t.Fatalf("args = %v, want w/w", args)
	}
}

func TestLoopBodyAccess(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("fill", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		e.For(e.ConstI(0), e.Arg("n"), e.ConstI(1), func(i kir.Value) {
			e.StoreIdx(e.Arg("p"), i, e.ToFloat(i))
		})
	}))
	r := analyze(t, m)
	if got := r.KernelArgs("fill")[0]; got != Write {
		t.Fatalf("p = %v, want w (store inside loop)", got)
	}
}

func TestTransitiveCallChain(t *testing.T) {
	// a -> b -> c, pointer flows all the way down, c writes.
	m := kir.NewModule()
	m.Add(kir.DeviceFunc("c", []kir.Param{{Name: "z", Type: kir.TPtrF64}}, kir.TInvalid,
		func(e *kir.Emitter) {
			e.StoreIdx(e.Arg("z"), e.ConstI(0), e.ConstF(9))
		}))
	m.Add(kir.DeviceFunc("b", []kir.Param{{Name: "y", Type: kir.TPtrF64}}, kir.TInvalid,
		func(e *kir.Emitter) {
			e.Call("c", e.Arg("y"))
		}))
	m.Add(kir.KernelFunc("a", []kir.Param{{Name: "x", Type: kir.TPtrF64}},
		func(e *kir.Emitter) {
			e.Call("b", e.Arg("x"))
		}))
	r := analyze(t, m)
	if got := r.KernelArgs("a")[0]; got != Write {
		t.Fatalf("x = %v, want w through 2-deep call chain", got)
	}
}

func TestRecursionConverges(t *testing.T) {
	// rec(p, n): if n > 0 { p[0] = 1; rec(p, n-1) } — self-recursive.
	m := kir.NewModule()
	fb := kir.NewFunction("rec", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, kir.TInvalid)
	e := kir.NewEmitter(fb)
	e.If(e.Gt(e.Arg("n"), e.ConstI(0)), func() {
		e.StoreIdx(e.Arg("p"), e.ConstI(0), e.ConstF(1))
		e.Call("rec", e.Arg("p"), e.Sub(e.Arg("n"), e.ConstI(1)))
	})
	m.Add(fb.Func())
	r := analyze(t, m)
	if got := r.Summary("rec").Params[0]; got != Write {
		t.Fatalf("p = %v, want w under recursion", got)
	}
}

func TestMutualRecursionConverges(t *testing.T) {
	m := kir.NewModule()
	// even(p,n) reads p then calls odd; odd(p,n) writes p then calls even.
	fbE := kir.NewFunction("even", []kir.Param{
		{Name: "p", Type: kir.TPtrF64}, {Name: "n", Type: kir.TInt},
	}, kir.TInvalid)
	eE := kir.NewEmitter(fbE)
	eE.If(eE.Gt(eE.Arg("n"), eE.ConstI(0)), func() {
		_ = eE.LoadIdx(eE.Arg("p"), eE.ConstI(0))
		eE.Call("odd", eE.Arg("p"), eE.Sub(eE.Arg("n"), eE.ConstI(1)))
	})
	m.Add(fbE.Func())
	fbO := kir.NewFunction("odd", []kir.Param{
		{Name: "p", Type: kir.TPtrF64}, {Name: "n", Type: kir.TInt},
	}, kir.TInvalid)
	eO := kir.NewEmitter(fbO)
	eO.If(eO.Gt(eO.Arg("n"), eO.ConstI(0)), func() {
		eO.StoreIdx(eO.Arg("p"), eO.ConstI(0), eO.ConstF(1))
		eO.Call("even", eO.Arg("p"), eO.Sub(eO.Arg("n"), eO.ConstI(1)))
	})
	m.Add(fbO.Func())
	r := analyze(t, m)
	if got := r.Summary("even").Params[0]; got != ReadWrite {
		t.Fatalf("even.p = %v, want rw (read locally, write via odd)", got)
	}
	if got := r.Summary("odd").Params[0]; got != ReadWrite {
		t.Fatalf("odd.p = %v, want rw", got)
	}
}

func TestAtomicAddIsReadWrite(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("reduce", []kir.Param{
		{Name: "acc", Type: kir.TPtrF64},
		{Name: "in", Type: kir.TPtrF64},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.AtomicAddF(e.Arg("acc"), e.LoadIdx(e.Arg("in"), i))
	}))
	r := analyze(t, m)
	args := r.KernelArgs("reduce")
	if args[0] != ReadWrite {
		t.Errorf("acc = %v, want rw", args[0])
	}
	if args[1] != Read {
		t.Errorf("in = %v, want r", args[1])
	}
}

func TestKernelArgsUnknownIsNil(t *testing.T) {
	// Every function is summarized, so only a name the module does not
	// define has no attributes; the runtime rejects such a launch before
	// it asks.
	r := analyze(t, kir.NewModule())
	if args := r.KernelArgs("ghost"); args != nil {
		t.Fatalf("KernelArgs(ghost) = %v, want nil", args)
	}
}

func TestResultString(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("z", []kir.Param{{Name: "p", Type: kir.TPtrF64}},
		func(e *kir.Emitter) {
			e.StoreIdx(e.Arg("p"), e.ConstI(0), e.ConstF(1))
		}))
	m.Add(kir.KernelFunc("a", []kir.Param{{Name: "q", Type: kir.TPtrF64}},
		func(e *kir.Emitter) {
			_ = e.LoadIdx(e.Arg("q"), e.ConstI(0))
		}))
	r := analyze(t, m)
	s := r.String()
	if !strings.Contains(s, "a(r)") || !strings.Contains(s, "z(w)") {
		t.Fatalf("String() = %q", s)
	}
	if strings.Index(s, "a(") > strings.Index(s, "z(") {
		t.Fatal("summaries not sorted")
	}
}

func TestAccessStringAndPredicates(t *testing.T) {
	if None.String() != "none" || Read.String() != "r" || Write.String() != "w" || ReadWrite.String() != "rw" {
		t.Fatal("Access strings wrong")
	}
	if !ReadWrite.MayRead() || !ReadWrite.MayWrite() || Read.MayWrite() || Write.MayRead() {
		t.Fatal("Access predicates wrong")
	}
}
