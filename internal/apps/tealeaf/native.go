package tealeaf

import (
	"cusango/internal/core"
	"cusango/internal/kinterp"
	"cusango/internal/memspace"
)

// Native ("compiled") implementations of the TeaLeaf kernels; the IR
// versions in Module() drive the compiler analysis. Equivalence is
// pinned by TestNativeMatchesInterpreter. The explicit float64
// conversions round each product as the interpreter does, so that
// architectures with fused multiply-add cannot fuse it into a sum.

// RegisterNatives installs the native kernels on the session's device.
func RegisterNatives(s *core.Session) error {
	for name, fn := range map[string]kinterp.ThreadRange{
		"tl_init":       nativeInit,
		"tl_matvec":     nativeMatvec,
		"tl_dot":        nativeDot,
		"tl_axpy":       nativeAxpy,
		"tl_p_update":   nativePUpdate,
		"tl_reset_dots": nativeResetDots,
	} {
		if err := s.Dev.RegisterNative(name, fn); err != nil {
			return err
		}
	}
	return nil
}

// dims unpacks the trailing (nx, rows) arguments every kernel carries.
func dims(args []kinterp.Arg) (nx, rows int64) {
	return args[len(args)-2].I, args[len(args)-1].I
}

// interior reports whether (ix, iy) is an interior point and returns its
// linear index.
func interior(ix, iy, nx, rows int64) (int64, bool) {
	if ix < 1 || ix > nx-2 || iy < 1 || iy > rows-2 {
		return 0, false
	}
	return iy*nx + ix, true
}

func nativeInit(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	b, err := kinterp.NewVecF64(view, args[0].Ptr, n)
	if err != nil {
		return err
	}
	r, err := kinterp.NewVecF64(view, args[1].Ptr, n)
	if err != nil {
		return err
	}
	p, err := kinterp.NewVecF64(view, args[2].Ptr, n)
	if err != nil {
		return err
	}
	loX, hiX := nx/4, nx-nx/4
	loY, hiY := rows/4, rows-rows/4
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		idx, ok := interior(int64(gx), int64(gy), nx, rows)
		if !ok {
			continue
		}
		v := 0.0
		if int64(gx) >= loX && int64(gx) < hiX && int64(gy) >= loY && int64(gy) < hiY {
			v = 10.0
		}
		b.Set(idx, v)
		r.Set(idx, v)
		p.Set(idx, v)
	}
	return nil
}

func nativeMatvec(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	w, err := kinterp.NewVecF64(view, args[0].Ptr, n)
	if err != nil {
		return err
	}
	p, err := kinterp.NewVecF64(view, args[1].Ptr, n)
	if err != nil {
		return err
	}
	k := args[2].F
	diag := 1 + float64(4*k)
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		idx, ok := interior(int64(gx), int64(gy), nx, rows)
		if !ok {
			continue
		}
		sum := (p.At(idx-1) + p.At(idx+1)) + (p.At(idx-nx) + p.At(idx+nx))
		w.Set(idx, float64(diag*p.At(idx))-float64(k*sum))
	}
	return nil
}

func nativeDot(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, red *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	slot := args[1].I
	a, err := kinterp.NewVecF64(view, args[2].Ptr, n)
	if err != nil {
		return err
	}
	b, err := kinterp.NewVecF64(view, args[3].Ptr, n)
	if err != nil {
		return err
	}
	// One call per segment: the fold from zero in ascending thread order
	// is the segment partial of the IR kernel's per-thread atomics.
	var local float64
	added := false
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		idx, ok := interior(int64(gx), int64(gy), nx, rows)
		if !ok {
			continue
		}
		local += float64(a.At(idx) * b.At(idx))
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
	y, err := kinterp.NewVecF64(view, args[0].Ptr, n)
	if err != nil {
		return err
	}
	x, err := kinterp.NewVecF64(view, args[1].Ptr, n)
	if err != nil {
		return err
	}
	alpha := args[2].F
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		idx, ok := interior(int64(gx), int64(gy), nx, rows)
		if !ok {
			continue
		}
		y.Set(idx, y.At(idx)+float64(alpha*x.At(idx)))
	}
	return nil
}

func nativePUpdate(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	nx, rows := dims(args)
	n := nx * rows
	p, err := kinterp.NewVecF64(view, args[0].Ptr, n)
	if err != nil {
		return err
	}
	r, err := kinterp.NewVecF64(view, args[1].Ptr, n)
	if err != nil {
		return err
	}
	beta := args[2].F
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		idx, ok := interior(int64(gx), int64(gy), nx, rows)
		if !ok {
			continue
		}
		p.Set(idx, r.At(idx)+float64(beta*p.At(idx)))
	}
	return nil
}

func nativeResetDots(g kinterp.Geometry, lo, hi int, args []kinterp.Arg, view *memspace.View, _ *kinterp.Reduction) error {
	acc, err := kinterp.NewVecF64(view, args[0].Ptr, 2)
	if err != nil {
		return err
	}
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		if gy == 0 && gx < 2 {
			acc.Set(int64(gx), 0)
		}
	}
	return nil
}
