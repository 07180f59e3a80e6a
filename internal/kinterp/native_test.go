package kinterp

import (
	"errors"
	"slices"
	"testing"

	"cusango/internal/memspace"
)

// nativeCopy mirrors the IR copy kernel of copyModule.
func nativeCopy(g Geometry, lo, hi int, args []Arg, view *memspace.View, _ *Reduction) error {
	n := args[2].I
	out, err := view.Float64s(args[0].Ptr, n)
	if err != nil {
		return err
	}
	in, err := view.Float64s(args[1].Ptr, n)
	if err != nil {
		return err
	}
	for lin := lo; lin < hi; lin++ {
		gx, _ := g.Thread(lin)
		if int64(gx) < n {
			out[gx] = in[gx]
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

// TestGeometryRowWalk: walking a thread range by Row and InteriorRow
// visits exactly the threads, and in the same ascending order, as
// decomposing each thread with Thread, for launches narrower than,
// as wide as and wider than the grid, from ranges that start and end
// mid-row.
func TestGeometryRowWalk(t *testing.T) {
	const nx, rows = 13, 7
	for _, g := range []Geometry{
		{Grid: Dim2(1, rows), Block: Dim2(nx, 1)},
		{Grid: Dim2(2, rows), Block: Dim2(8, 1)},
		{Grid: Dim2(3, 4), Block: Dim2(4, 2)},
		{Grid: Dim(1), Block: Dim(5)},
	} {
		total := g.Grid.Count() * g.Block.Count()
		for _, r := range [][2]int{{0, total}, {3, total - 2}, {17, 18}, {5, 5}, {20, 61}} {
			lo, hi := r[0], min(r[1], total)
			var wantAll, wantIn, gotAll, gotIn []int64
			for lin := lo; lin < hi; lin++ {
				gx, gy := g.Thread(lin)
				x, y := int64(gx), int64(gy)
				wantAll = append(wantAll, y*1000+x)
				if x >= 1 && x <= nx-2 && y >= 1 && y <= rows-2 {
					wantIn = append(wantIn, y*nx+x)
				}
			}
			for lin := lo; lin < hi; {
				gx, gy, end := g.Row(lin, hi)
				if end <= lin || end > hi {
					t.Fatalf("%+v [%d,%d): Row(%d) ends at %d", g, lo, hi, lin, end)
				}
				for x := gx; x < gx+end-lin; x++ {
					gotAll = append(gotAll, int64(gy)*1000+int64(x))
				}
				var idx, n int64
				idx, n, lin = g.InteriorRow(lin, hi, nx, rows)
				if lin != end {
					t.Fatalf("%+v: InteriorRow ends at %d, Row at %d", g, lin, end)
				}
				for i := int64(0); i < n; i++ {
					gotIn = append(gotIn, idx+i)
				}
			}
			if !slices.Equal(gotAll, wantAll) || !slices.Equal(gotIn, wantIn) {
				t.Fatalf("%+v [%d,%d):\nrows %v\nwant %v\ninterior %v\nwant     %v",
					g, lo, hi, gotAll, wantAll, gotIn, wantIn)
			}
		}
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
