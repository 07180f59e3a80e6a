package tealeaf

import (
	"cusango/internal/kinterp"
	"cusango/internal/memspace"
)

// Native ("compiled") implementations of the TeaLeaf kernels; the IR
// versions in Module() drive the compiler analysis. Equivalence is
// pinned by TestNativeMatchesInterpreter. The explicit float64
// conversions round each product as the interpreter does, so that
// architectures with fused multiply-add cannot fuse it into a sum.

// RegisterNatives installs the native kernels on a device, or directly
// on a kernel engine.
func RegisterNatives(dev interface {
	RegisterNative(name string, fn kinterp.ThreadRange) error
}) error {
	for name, fn := range map[string]kinterp.ThreadRange{
		"tl_init":       nativeInit,
		"tl_matvec":     nativeMatvec,
		"tl_dot":        nativeDot,
		"tl_axpy":       nativeAxpy,
		"tl_p_update":   nativePUpdate,
		"tl_reset_dots": nativeResetDots,
	} {
		if err := dev.RegisterNative(name, fn); err != nil {
			return err
		}
	}
	return nil
}

// dims unpacks the trailing (nx, rows) arguments every kernel carries.
func dims(args []kinterp.Arg) (nx, rows int64) {
	return args[len(args)-2].I, args[len(args)-1].I
}

func nativeInit(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	b, err := view.Float64s(args[0].Ptr, n)
	if err != nil {
		return err
	}
	r, err := view.Float64s(args[1].Ptr, n)
	if err != nil {
		return err
	}
	p, err := view.Float64s(args[2].Ptr, n)
	if err != nil {
		return err
	}
	loX, hiX := nx/4, nx-nx/4
	loY, hiY := rows/4, rows-rows/4
	for lin := lo; lin < hi; {
		var idx, m int64
		idx, m, lin = g.InteriorRow(lin, hi, nx, rows)
		if m == 0 {
			continue
		}
		iy := idx / nx
		x0 := idx - iy*nx
		hot := iy >= loY && iy < hiY
		for i, x := int64(0), x0; i < m; i, x = i+1, x+1 {
			v := 0.0
			if hot && x >= loX && x < hiX {
				v = 10.0
			}
			b[idx+i] = v
			r[idx+i] = v
			p[idx+i] = v
		}
	}
	return nil
}

func nativeMatvec(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	w, err := view.Float64s(args[0].Ptr, n)
	if err != nil {
		return err
	}
	p, err := view.Float64s(args[1].Ptr, n)
	if err != nil {
		return err
	}
	k := args[2].F
	diag := 1 + float64(4*k)
	for lin := lo; lin < hi; {
		var idx, m int64
		idx, m, lin = g.InteriorRow(lin, hi, nx, rows)
		if m == 0 {
			continue
		}
		// cur[i+1] is the cell out[i] updates; cur[i], cur[i+2], up[i]
		// and dn[i] are its west, east, north and south neighbours.
		cur := p[idx-1 : idx+m+1]
		up := p[idx-nx : idx-nx+m]
		dn := p[idx+nx : idx+nx+m]
		out := w[idx : idx+m]
		for i := range out {
			sum := (cur[i] + cur[i+2]) + (up[i] + dn[i])
			out[i] = float64(diag*cur[i+1]) - float64(k*sum)
		}
	}
	return nil
}

func nativeDot(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, red *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	slot := args[1].I
	a, err := view.Float64s(args[2].Ptr, n)
	if err != nil {
		return err
	}
	b, err := view.Float64s(args[3].Ptr, n)
	if err != nil {
		return err
	}
	// One call per segment: the fold from zero in ascending thread order
	// is the segment partial of the IR kernel's per-thread atomics.
	var local float64
	added := false
	for lin := lo; lin < hi; {
		var idx, m int64
		idx, m, lin = g.InteriorRow(lin, hi, nx, rows)
		if m == 0 {
			continue
		}
		ar, br := a[idx:idx+m], b[idx:idx+m]
		for i := range ar {
			local += float64(ar[i] * br[i])
		}
		added = true
	}
	if added {
		return red.AtomicAddF64(view, args[0].Ptr+memspace.Addr(slot*8), local)
	}
	return nil
}

func nativeAxpy(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	y, err := view.Float64s(args[0].Ptr, n)
	if err != nil {
		return err
	}
	x, err := view.Float64s(args[1].Ptr, n)
	if err != nil {
		return err
	}
	alpha := args[2].F
	for lin := lo; lin < hi; {
		var idx, m int64
		idx, m, lin = g.InteriorRow(lin, hi, nx, rows)
		if m == 0 {
			continue
		}
		yr, xr := y[idx:idx+m], x[idx:idx+m]
		for i := range yr {
			yr[i] += float64(alpha * xr[i])
		}
	}
	return nil
}

func nativePUpdate(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	p, err := view.Float64s(args[0].Ptr, n)
	if err != nil {
		return err
	}
	r, err := view.Float64s(args[1].Ptr, n)
	if err != nil {
		return err
	}
	beta := args[2].F
	for lin := lo; lin < hi; {
		var idx, m int64
		idx, m, lin = g.InteriorRow(lin, hi, nx, rows)
		if m == 0 {
			continue
		}
		pr, rr := p[idx:idx+m], r[idx:idx+m]
		for i := range pr {
			pr[i] = rr[i] + float64(beta*pr[i])
		}
	}
	return nil
}

func nativeResetDots(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	acc, err := view.Float64s(args[0].Ptr, 2)
	if err != nil {
		return err
	}
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		if gy == 0 && gx < 2 {
			acc[gx] = 0
		}
	}
	return nil
}
