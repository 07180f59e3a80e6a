package kinterp

import (
	"errors"
	"strings"
	"testing"

	"cusango/internal/kir"
	"cusango/internal/memspace"
)

func engine(t testing.TB, m *kir.Module, cfg Config) *Engine {
	t.Helper()
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return New(p, cfg)
}

func copyModule() *kir.Module {
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
	return m
}

func TestCopyKernel(t *testing.T) {
	mem := memspace.New()
	const n = 1000
	in := mem.Alloc(n*8, memspace.KindDevice)
	out := mem.Alloc(n*8, memspace.KindDevice)
	for i := int64(0); i < n; i++ {
		mem.SetFloat64(in+memspace.Addr(i*8), float64(i)*1.5)
	}
	eng := engine(t, copyModule(), Config{})
	err := eng.Launch("copy", Dim(4), Dim(256), []Arg{Ptr(out), Ptr(in), Int(n)}, mem)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	for i := int64(0); i < n; i++ {
		if got := mem.Float64(out + memspace.Addr(i*8)); got != float64(i)*1.5 {
			t.Fatalf("out[%d] = %v", i, got)
		}
	}
}

func TestCopyKernelParallel(t *testing.T) {
	mem := memspace.New()
	const n = 100_000
	in := mem.Alloc(n*8, memspace.KindDevice)
	out := mem.Alloc(n*8, memspace.KindDevice)
	for i := int64(0); i < n; i++ {
		mem.SetFloat64(in+memspace.Addr(i*8), float64(i))
	}
	eng := engine(t, copyModule(), Config{Workers: 8, SerialThreshold: 1})
	err := eng.Launch("copy", Dim((n+255)/256), Dim(256), []Arg{Ptr(out), Ptr(in), Int(n)}, mem)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	for i := int64(0); i < n; i += 997 {
		if got := mem.Float64(out + memspace.Addr(i*8)); got != float64(i) {
			t.Fatalf("out[%d] = %v", i, got)
		}
	}
}

func Test2DGrid(t *testing.T) {
	// out[y*w+x] = x*1000 + y over a 2D grid.
	m := kir.NewModule()
	m.Add(kir.KernelFunc("grid2d", []kir.Param{
		{Name: "out", Type: kir.TPtrI64},
		{Name: "w", Type: kir.TInt},
		{Name: "h", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		x := e.GlobalIDX()
		y := e.GlobalIDY()
		inX := e.Lt(x, e.Arg("w"))
		inY := e.Lt(y, e.Arg("h"))
		e.If(e.AndI(inX, inY), func() {
			idx := e.Add(e.Mul(y, e.Arg("w")), x)
			e.StoreIdx(e.Arg("out"), idx, e.Add(e.Mul(x, e.ConstI(1000)), y))
		})
	}))
	mem := memspace.New()
	const w, h = 37, 23
	out := mem.Alloc(w*h*8, memspace.KindDevice)
	eng := engine(t, m, Config{})
	err := eng.Launch("grid2d", Dim2(5, 4), Dim2(8, 8), []Arg{Ptr(out), Int(w), Int(h)}, mem)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	for y := int64(0); y < h; y++ {
		for x := int64(0); x < w; x++ {
			if got := mem.Int64(out + memspace.Addr((y*w+x)*8)); got != x*1000+y {
				t.Fatalf("out[%d,%d] = %d", x, y, got)
			}
		}
	}
}

func TestBuiltins(t *testing.T) {
	// Record every builtin for thread (tx=1, bx=2) of block dim 4, grid 3.
	m := kir.NewModule()
	m.Add(kir.KernelFunc("builtins", []kir.Param{
		{Name: "out", Type: kir.TPtrI64},
	}, func(e *kir.Emitter) {
		gid := e.GlobalIDX()
		isTarget := e.Eq(gid, e.ConstI(9)) // bx=2,tx=1 with bdx=4
		e.If(isTarget, func() {
			vals := []kir.Builtin{
				kir.ThreadIdxX, kir.BlockIdxX, kir.BlockDimX, kir.GridDimX,
				kir.ThreadIdxY, kir.BlockIdxY, kir.BlockDimY, kir.GridDimY,
			}
			for i, b := range vals {
				e.StoreIdx(e.Arg("out"), e.ConstI(int64(i)), e.Builtin(b))
			}
		})
	}))
	mem := memspace.New()
	out := mem.Alloc(8*8, memspace.KindDevice)
	eng := engine(t, m, Config{})
	if err := eng.Launch("builtins", Dim(3), Dim(4), []Arg{Ptr(out)}, mem); err != nil {
		t.Fatalf("launch: %v", err)
	}
	want := []int64{1, 2, 4, 3, 0, 0, 1, 1}
	for i, w := range want {
		if got := mem.Int64(out + memspace.Addr(i*8)); got != w {
			t.Errorf("builtin %d = %d, want %d", i, got, w)
		}
	}
}

func TestNestedCallWithReturn(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.DeviceFunc("square", []kir.Param{{Name: "x", Type: kir.TFloat}}, kir.TFloat,
		func(e *kir.Emitter) {
			e.ReturnVal(e.Mul(e.Arg("x"), e.Arg("x")))
		}))
	m.Add(kir.KernelFunc("sq", []kir.Param{
		{Name: "out", Type: kir.TPtrF64},
		{Name: "in", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			v := e.CallRet("square", kir.TFloat, e.LoadIdx(e.Arg("in"), i))
			e.StoreIdx(e.Arg("out"), i, v)
		})
	}))
	mem := memspace.New()
	in := mem.Alloc(80, memspace.KindDevice)
	out := mem.Alloc(80, memspace.KindDevice)
	for i := int64(0); i < 10; i++ {
		mem.SetFloat64(in+memspace.Addr(i*8), float64(i))
	}
	eng := engine(t, m, Config{})
	if err := eng.Launch("sq", Dim(1), Dim(16), []Arg{Ptr(out), Ptr(in), Int(10)}, mem); err != nil {
		t.Fatalf("launch: %v", err)
	}
	for i := int64(0); i < 10; i++ {
		if got := mem.Float64(out + memspace.Addr(i*8)); got != float64(i*i) {
			t.Fatalf("out[%d] = %v", i, got)
		}
	}
}

func TestAtomicAddReduction(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.KernelFunc("sum", []kir.Param{
		{Name: "acc", Type: kir.TPtrF64},
		{Name: "in", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			e.AtomicAddF(e.Arg("acc"), e.LoadIdx(e.Arg("in"), i))
		})
	}))
	mem := memspace.New()
	const n = 10_000
	in := mem.Alloc(n*8, memspace.KindDevice)
	acc := mem.Alloc(8, memspace.KindDevice)
	for i := int64(0); i < n; i++ {
		mem.SetFloat64(in+memspace.Addr(i*8), 1.0)
	}
	eng := engine(t, m, Config{Workers: 8, SerialThreshold: 1})
	if err := eng.Launch("sum", Dim((n+127)/128), Dim(128), []Arg{Ptr(acc), Ptr(in), Int(n)}, mem); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if got := mem.Float64(acc); got != n {
		t.Fatalf("sum = %v, want %d", got, n)
	}
}

func TestLoopKernel(t *testing.T) {
	// Each thread sums its row of a matrix with a For loop.
	m := kir.NewModule()
	m.Add(kir.KernelFunc("rowsum", []kir.Param{
		{Name: "out", Type: kir.TPtrF64},
		{Name: "mat", Type: kir.TPtrF64},
		{Name: "w", Type: kir.TInt},
		{Name: "h", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		row := e.GlobalIDX()
		e.If(e.Lt(row, e.Arg("h")), func() {
			acc := e.Var(kir.TFloat)
			e.Assign(acc, e.ConstF(0))
			base := e.Mul(row, e.Arg("w"))
			e.For(e.ConstI(0), e.Arg("w"), e.ConstI(1), func(j kir.Value) {
				e.Assign(acc, e.Add(acc, e.LoadIdx(e.Arg("mat"), e.Add(base, j))))
			})
			e.StoreIdx(e.Arg("out"), row, acc)
		})
	}))
	mem := memspace.New()
	const w, h = 16, 8
	mat := mem.Alloc(w*h*8, memspace.KindDevice)
	out := mem.Alloc(h*8, memspace.KindDevice)
	for i := int64(0); i < w*h; i++ {
		mem.SetFloat64(mat+memspace.Addr(i*8), 2.0)
	}
	eng := engine(t, m, Config{})
	if err := eng.Launch("rowsum", Dim(1), Dim(8), []Arg{Ptr(out), Ptr(mat), Int(w), Int(h)}, mem); err != nil {
		t.Fatalf("launch: %v", err)
	}
	for i := int64(0); i < h; i++ {
		if got := mem.Float64(out + memspace.Addr(i*8)); got != 32.0 {
			t.Fatalf("out[%d] = %v", i, got)
		}
	}
}

func TestOutOfBoundsReported(t *testing.T) {
	mem := memspace.New()
	in := mem.Alloc(8, memspace.KindDevice)
	out := mem.Alloc(8, memspace.KindDevice)
	eng := engine(t, copyModule(), Config{})
	// n=100 but buffers hold one element: device-side OOB.
	err := eng.Launch("copy", Dim(1), Dim(128), []Arg{Ptr(out), Ptr(in), Int(100)}, mem)
	if err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(err.Error(), "copy") {
		t.Fatalf("error lacks kernel name: %v", err)
	}
}

func TestRunawayKernelAborts(t *testing.T) {
	m := kir.NewModule()
	fb := kir.NewFunction("spin", nil, kir.TInvalid)
	fb.Kernel()
	fb.Br(0) // infinite loop
	m.Add(fb.Func())
	eng := engine(t, m, Config{MaxStepsPerThread: 1000})
	err := eng.Launch("spin", Dim(1), Dim(1), nil, memspace.New())
	if err == nil {
		t.Fatal("expected step-limit error")
	}
	// The spin loop has no instructions, only terminators; ensure SOME
	// guard fired (step limit counts instructions, so an empty infinite
	// loop must still abort — guard against hangs).
	if !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestArgCheckErrors(t *testing.T) {
	eng := engine(t, copyModule(), Config{})
	mem := memspace.New()
	d := mem.Alloc(8, memspace.KindDevice)
	if err := eng.Launch("copy", Dim(1), Dim(1), []Arg{Ptr(d)}, mem); err == nil {
		t.Error("expected arity error")
	}
	if err := eng.Launch("copy", Dim(1), Dim(1), []Arg{Ptr(d), Int(1), Int(1)}, mem); err == nil {
		t.Error("expected type error")
	}
	if err := eng.Launch("ghost", Dim(1), Dim(1), nil, mem); err == nil {
		t.Error("expected unknown-kernel error")
	}
}

func TestLaunchDeviceFunctionRejected(t *testing.T) {
	m := kir.NewModule()
	m.Add(kir.DeviceFunc("helper", nil, kir.TInvalid, func(e *kir.Emitter) {}))
	eng := engine(t, m, Config{})
	if err := eng.Launch("helper", Dim(1), Dim(1), nil, memspace.New()); err == nil {
		t.Fatal("expected rejection of device-function launch")
	}
}

func TestZeroSizeLaunch(t *testing.T) {
	eng := engine(t, copyModule(), Config{})
	mem := memspace.New()
	d := mem.Alloc(8, memspace.KindDevice)
	if err := eng.Launch("copy", Dim(0), Dim(0), []Arg{Ptr(d), Ptr(d), Int(0)}, mem); err != nil {
		t.Fatalf("zero launch: %v", err)
	}
}

func TestDimHelpers(t *testing.T) {
	if Dim(8).Count() != 8 || Dim2(4, 3).Count() != 12 {
		t.Fatal("Count wrong")
	}
	if (Dim3{X: 0, Y: 0}).Count() != 1 {
		t.Fatal("zero dims normalize to 1")
	}
}

func BenchmarkCopyKernelSerial(b *testing.B) {
	mem := memspace.New()
	const n = 1 << 16
	in := mem.Alloc(n*8, memspace.KindDevice)
	out := mem.Alloc(n*8, memspace.KindDevice)
	eng := engine(b, copyModule(), Config{Workers: 1})
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Launch("copy", Dim(n/256), Dim(256), []Arg{Ptr(out), Ptr(in), Int(n)}, mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCopyKernelParallel(b *testing.B) {
	mem := memspace.New()
	const n = 1 << 16
	in := mem.Alloc(n*8, memspace.KindDevice)
	out := mem.Alloc(n*8, memspace.KindDevice)
	eng := engine(b, copyModule(), Config{})
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Launch("copy", Dim(n/256), Dim(256), []Arg{Ptr(out), Ptr(in), Int(n)}, mem); err != nil {
			b.Fatal(err)
		}
	}
}
