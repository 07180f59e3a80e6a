package kinterp

import (
	"fmt"
	"math"
	"testing"

	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// reduceModule: thread i < n adds in[i] to acc[i%2] through a device
// function, so the atomic is visible to the engine only transitively.
func reduceModule() *kir.Module {
	m := kir.NewModule()
	m.Add(kir.DeviceFunc("add_to", []kir.Param{
		{Name: "p", Type: kir.TPtrF64},
		{Name: "x", Type: kir.TFloat},
	}, kir.TInvalid, func(e *kir.Emitter) {
		e.AtomicAddF(e.Arg("p"), e.Arg("x"))
	}))
	m.Add(kir.KernelFunc("reduce", []kir.Param{
		{Name: "acc", Type: kir.TPtrF64},
		{Name: "in", Type: kir.TPtrF64},
		{Name: "n", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.Lt(i, e.Arg("n")), func() {
			slot := e.GEP(e.Arg("acc"), e.Rem(i, e.ConstI(2)))
			e.Call("add_to", slot, e.LoadIdx(e.Arg("in"), i))
		})
	}))
	return m
}

// nativeReduce mirrors reduceModule: it folds each slot's values from
// zero in ascending thread order and publishes each fold once.
func nativeReduce(g Geometry, lo, hi int, args []Arg, view *memspace.View, red *Reduction) error {
	n := args[2].I
	in, err := view.Float64s(args[1].Ptr, n)
	if err != nil {
		return err
	}
	var local [2]float64
	var added [2]bool
	for lin := lo; lin < hi; lin++ {
		if gx, _ := g.Thread(lin); int64(gx) < n {
			local[gx%2] += in[gx]
			added[gx%2] = true
		}
	}
	for s := range local {
		if added[s] {
			if err := red.AtomicAddF64(view, args[0].Ptr+memspace.Addr(8*s), local[s]); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestOrderedReduction pins the summation order of float atomics (see
// Launch): partials per SegmentSize threads folded in thread order, then
// added to memory in segment order. The inputs are chosen so that any
// other grouping gives other bits; the result must not
// depend on the worker count, the serial threshold or the execution mode.
func TestOrderedReduction(t *testing.T) {
	const n = 5000 // above DefaultSerialThreshold; the last segment is partial
	// Mixed signs over sixty binary orders of magnitude: every grouping
	// rounds differently.
	in := func(i int) float64 {
		x := math.Ldexp(1+float64(i*7919%1000)/1000, i*31%60-10)
		if i*13%3 == 0 {
			return -x
		}
		return x
	}
	start := [2]float64{0.5, -2}

	want := start
	for lo := 0; lo < n; lo += SegmentSize {
		var part [2]float64
		for i := lo; i < min(lo+SegmentSize, n); i++ {
			part[i%2] += in(i)
		}
		want[0] += part[0]
		want[1] += part[1]
	}
	seq := start
	for i := 0; i < n; i++ {
		seq[i%2] += in(i)
	}
	if seq == want {
		t.Fatal("inputs do not depend on summation order; the test cannot see a wrong order")
	}

	args := func() (*memspace.Memory, []Arg) {
		mem := memspace.New()
		inBuf := mem.Alloc(n*8, memspace.KindDevice)
		acc := mem.Alloc(16, memspace.KindDevice)
		for i := 0; i < n; i++ {
			mem.SetFloat64(inBuf+memspace.Addr(i*8), in(i))
		}
		mem.SetFloat64(acc, start[0])
		mem.SetFloat64(acc+8, start[1])
		return mem, []Arg{Ptr(acc), Ptr(inBuf), Int(n)}
	}
	check := func(name string, mem *memspace.Memory, args []Arg) {
		t.Helper()
		for s := range want {
			got := mem.Float64(args[0].Ptr + memspace.Addr(8*s))
			if math.Float64bits(got) != math.Float64bits(want[s]) {
				t.Errorf("%s: acc[%d] = %v, want %v", name, s, got, want[s])
			}
		}
	}

	// 128-thread blocks: a segment spans two blocks.
	grid, block := Dim((n+127)/128), Dim(128)
	for _, native := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 8} {
			for _, threshold := range []int{1, DefaultSerialThreshold} {
				name := fmt.Sprintf("native=%v/workers=%d/threshold=%d", native, workers, threshold)
				mem, a := args()
				eng := engine(t, reduceModule(), Config{Workers: workers, SerialThreshold: threshold})
				if native {
					if err := eng.RegisterNative("reduce", nativeReduce); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.Launch("reduce", grid, block, a, mem); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(name, mem, a)
			}
		}
	}

	// LaunchLogged follows the same order.
	mem, a := args()
	eng := engine(t, reduceModule(), Config{Workers: 4})
	if _, err := eng.LaunchLogged("reduce", grid, block, a, mem); err != nil {
		t.Fatal(err)
	}
	check("logged", mem, a)
}

// TestNativeAtomicNeedsIRAtomic: a native implementation may only reduce
// if its IR kernel does; otherwise the order it would need is not set up.
func TestNativeAtomicNeedsIRAtomic(t *testing.T) {
	eng := engine(t, copyModule(), Config{})
	stray := func(g Geometry, lo, hi int, args []Arg, view *memspace.View, red *Reduction) error {
		return red.AtomicAddF64(view, args[0].Ptr, 1)
	}
	if err := eng.RegisterNative("copy", stray); err != nil {
		t.Fatal(err)
	}
	mem := memspace.New()
	d := mem.Alloc(8, memspace.KindDevice)
	if err := eng.Launch("copy", Dim(1), Dim(1), []Arg{Ptr(d), Ptr(d), Int(1)}, mem); err == nil {
		t.Fatal("atomic add from the native of an atomic-free kernel must fail")
	}
}
