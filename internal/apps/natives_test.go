package apps

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"cusango/internal/apps/jacobi"
	"cusango/internal/apps/tealeaf"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
)

// TestNativeKernelsMatchIR launches every native Jacobi and TeaLeaf
// kernel and its IR definition on identical memory and requires every
// buffer to come out bit for bit the same. Unlike the solver-level
// residual checks it compares whole fields, on grids whose width is not
// a multiple of the block width (so launches have threads past the
// grid), with ranges split mid-row across workers.
func TestNativeKernelsMatchIR(t *testing.T) {
	for _, app := range []struct {
		name     string
		mod      func() *kir.Module
		register func(nativeRegistry) error
	}{
		{"jacobi", jacobi.Module, jacobi.RegisterNatives},
		{"tealeaf", tealeaf.Module, tealeaf.RegisterNatives},
	} {
		for _, geo := range []struct{ nx, rows, blockX, workers int }{
			{37, 9, 16, 3},
			{64, 6, 64, 2},
			{5, 40, 8, 4},
		} {
			for _, f := range app.mod().Kernels() {
				name := fmt.Sprintf("%s/%s/%dx%d/b%d/w%d",
					app.name, f.Name, geo.nx, geo.rows, geo.blockX, geo.workers)
				interp := launchFresh(t, app.mod(), nil, f, geo.nx, geo.rows, geo.blockX, geo.workers)
				native := launchFresh(t, app.mod(), app.register, f, geo.nx, geo.rows, geo.blockX, geo.workers)
				for i := range interp {
					if !bytes.Equal(interp[i], native[i]) {
						t.Errorf("%s: buffer %d differs between IR and native execution", name, i)
					}
				}
			}
		}
	}
}

// nativeRegistry is what the apps' RegisterNatives install on.
type nativeRegistry = interface {
	RegisterNative(name string, fn kinterp.ThreadRange) error
}

// launchFresh runs kernel f once over an nx × rows grid on a fresh
// memory, natively if register is non-nil, and returns the bytes of its
// pointer arguments. Every pointer argument is an nx × rows field of
// mixed-sign values of varied magnitude; integer arguments are taken
// from the parameter names.
func launchFresh(t *testing.T, mod *kir.Module, register func(nativeRegistry) error,
	f *kir.Function, nx, rows, blockX, workers int) [][]byte {
	t.Helper()
	prog, err := kinterp.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	eng := kinterp.New(prog, kinterp.Config{Workers: workers, SerialThreshold: 1})
	if register != nil {
		if err := register(eng); err != nil {
			t.Fatal(err)
		}
	}
	mem := memspace.New()
	n := int64(nx * rows)
	var args []kinterp.Arg
	var bufs []memspace.Addr
	for pi, p := range f.Params {
		switch {
		case p.Type.IsPtr():
			a := mem.Alloc(8*n, memspace.KindDevice)
			for i := int64(0); i < n; i++ {
				k := i + int64(97*pi)
				x := math.Ldexp(1+float64(k*7919%1000)/1000, int(k*31%20)-10)
				if k%3 == 0 {
					x = -x
				}
				mem.SetFloat64(a+memspace.Addr(8*i), x)
			}
			bufs = append(bufs, a)
			args = append(args, kinterp.Ptr(a))
		case p.Type == kir.TFloat:
			args = append(args, kinterp.F64(0.375))
		default:
			v := map[string]int64{"nx": int64(nx), "rows": int64(rows), "slot": 1, "topWall": 1}[p.Name]
			args = append(args, kinterp.Int(v))
		}
	}
	grid, block := kinterp.Dim2((nx+blockX-1)/blockX, rows), kinterp.Dim2(blockX, 1)
	if err := eng.Launch(f.Name, grid, block, args, mem); err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	out := make([][]byte, len(bufs))
	for i, a := range bufs {
		b, err := mem.Bytes(a, 8*n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bytes.Clone(b)
	}
	return out
}
