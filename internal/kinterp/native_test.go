package kinterp

import (
	"errors"
	"testing"

	"cusango/internal/memspace"
)

// nativeCopy mirrors the IR copy kernel of copyModule.
func nativeCopy(g Geometry, lo, hi int, args []Arg, view *memspace.View, _ *Reduction) error {
	n := args[2].I
	out, err := NewVecF64(view, args[0].Ptr, n)
	if err != nil {
		return err
	}
	in, err := NewVecF64(view, args[1].Ptr, n)
	if err != nil {
		return err
	}
	for lin := lo; lin < hi; lin++ {
		gx, _ := g.Thread(lin)
		if int64(gx) < n {
			out.Set(int64(gx), in.At(int64(gx)))
		}
	}
	return nil
}

func TestNativeRegistration(t *testing.T) {
	eng := engine(t, copyModule(), Config{})
	if eng.HasNative("copy") {
		t.Fatal("fresh engine should have no natives")
	}
	if err := eng.RegisterNative("ghost", nativeCopy); err == nil {
		t.Fatal("registering for unknown kernel must fail")
	}
	if err := eng.RegisterNative("copy", nil); err == nil {
		t.Fatal("nil implementation must fail")
	}
	if err := eng.RegisterNative("copy", nativeCopy); err != nil {
		t.Fatal(err)
	}
	if !eng.HasNative("copy") {
		t.Fatal("registration not visible")
	}
}

func TestNativeMatchesInterpretedOutput(t *testing.T) {
	const n = 1000
	runMode := func(native bool) []float64 {
		mem := memspace.New()
		in := mem.Alloc(n*8, memspace.KindDevice)
		out := mem.Alloc(n*8, memspace.KindDevice)
		for i := int64(0); i < n; i++ {
			mem.SetFloat64(in+memspace.Addr(i*8), float64(i)*1.25)
		}
		eng := engine(t, copyModule(), Config{})
		if native {
			if err := eng.RegisterNative("copy", nativeCopy); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Launch("copy", Dim(4), Dim(256), []Arg{Ptr(out), Ptr(in), Int(n)}, mem); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		for i := int64(0); i < n; i++ {
			got[i] = mem.Float64(out + memspace.Addr(i*8))
		}
		return got
	}
	interp := runMode(false)
	native := runMode(true)
	for i := range interp {
		if interp[i] != native[i] {
			t.Fatalf("element %d: interpreted %v, native %v", i, interp[i], native[i])
		}
	}
}

func TestNativeParallelExecution(t *testing.T) {
	const n = 100_000
	mem := memspace.New()
	in := mem.Alloc(n*8, memspace.KindDevice)
	out := mem.Alloc(n*8, memspace.KindDevice)
	for i := int64(0); i < n; i++ {
		mem.SetFloat64(in+memspace.Addr(i*8), float64(i))
	}
	eng := engine(t, copyModule(), Config{Workers: 4, SerialThreshold: 1})
	if err := eng.RegisterNative("copy", nativeCopy); err != nil {
		t.Fatal(err)
	}
	if err := eng.Launch("copy", Dim((n+255)/256), Dim(256), []Arg{Ptr(out), Ptr(in), Int(n)}, mem); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i += 9973 {
		if got := mem.Float64(out + memspace.Addr(i*8)); got != float64(i) {
			t.Fatalf("out[%d] = %v", i, got)
		}
	}
}

func TestNativeErrorWrapped(t *testing.T) {
	eng := engine(t, copyModule(), Config{})
	bad := func(g Geometry, lo, hi int, args []Arg, view *memspace.View, _ *Reduction) error {
		return errors.New("device fault")
	}
	if err := eng.RegisterNative("copy", bad); err != nil {
		t.Fatal(err)
	}
	mem := memspace.New()
	d := mem.Alloc(8, memspace.KindDevice)
	err := eng.Launch("copy", Dim(1), Dim(1), []Arg{Ptr(d), Ptr(d), Int(1)}, mem)
	var ke *KernelError
	if !errors.As(err, &ke) || ke.Kernel != "copy" {
		t.Fatalf("error = %v, want KernelError for copy", err)
	}
}

func TestVecF64Accessors(t *testing.T) {
	mem := memspace.New()
	a := mem.Alloc(32, memspace.KindDevice)
	view := mem.NewView()
	v, err := NewVecF64(view, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 {
		t.Fatalf("len = %d", v.Len())
	}
	v.Set(2, 6.5)
	if v.At(2) != 6.5 || mem.Float64(a+16) != 6.5 {
		t.Fatal("Set/At not aliasing memory")
	}
	v.Add(2, 1.5)
	if v.At(2) != 8.0 {
		t.Fatal("Add wrong")
	}
	if _, err := NewVecF64(view, a, 5); err == nil {
		t.Fatal("oversized view must fail")
	}
}

func TestGlobalAtomicAdd(t *testing.T) {
	mem := memspace.New()
	a := mem.Alloc(8, memspace.KindDevice)
	view := mem.NewView()
	for i := 0; i < 10; i++ {
		if err := GlobalAtomicAddF64(view, a, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := mem.Float64(a); got != 25 {
		t.Fatalf("sum = %v", got)
	}
	if err := GlobalAtomicAddF64(view, memspace.Addr(1), 1); err == nil {
		t.Fatal("bad address must fail")
	}
}

func TestGeometryThread(t *testing.T) {
	g := Geometry{Grid: Dim2(4, 3), Block: Dim2(8, 2)}
	if g.GlobalWidth() != 32 {
		t.Fatalf("width = %d", g.GlobalWidth())
	}
	gx, gy := g.Thread(0)
	if gx != 0 || gy != 0 {
		t.Fatal("thread 0 wrong")
	}
	gx, gy = g.Thread(33)
	if gx != 1 || gy != 1 {
		t.Fatalf("thread 33 = (%d,%d)", gx, gy)
	}
}

func BenchmarkNativeCopy(b *testing.B) {
	const n = 1 << 16
	mem := memspace.New()
	in := mem.Alloc(n*8, memspace.KindDevice)
	out := mem.Alloc(n*8, memspace.KindDevice)
	eng, _ := New(copyModule(), Config{Workers: 1})
	if err := eng.RegisterNative("copy", nativeCopy); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Launch("copy", Dim(n/256), Dim(256), []Arg{Ptr(out), Ptr(in), Int(n)}, mem); err != nil {
			b.Fatal(err)
		}
	}
}
