package jacobi

import (
	"cusango/internal/core"
	"cusango/internal/kinterp"
	"cusango/internal/memspace"
)

// Native ("compiled") implementations of the Jacobi kernels. The IR
// versions in Module() remain the input to the compiler access analysis;
// these execute. Equivalence of the two is pinned by
// TestNativeMatchesInterpreter.

// RegisterNatives installs the native kernels on the session's device.
func RegisterNatives(s *core.Session) error {
	for name, fn := range map[string]kinterp.ThreadRange{
		"jacobi_step": nativeJacobiStep,
		"init_field":  nativeInitField,
		"reset_norm":  nativeResetNorm,
	} {
		if err := s.Dev.RegisterNative(name, fn); err != nil {
			return err
		}
	}
	return nil
}

func nativeJacobiStep(g kinterp.Geometry, lo, hi int, args []kinterp.Arg,
	view *memspace.View, red *kinterp.Reduction) error {
	nx := args[3].I
	rows := args[4].I
	n := nx * rows
	out, err := kinterp.NewVecF64(view, args[0].Ptr, n)
	if err != nil {
		return err
	}
	in, err := kinterp.NewVecF64(view, args[1].Ptr, n)
	if err != nil {
		return err
	}
	// The engine calls this once per segment (the IR kernel adds
	// atomically), so folding the range's residuals from zero in
	// ascending thread order yields the segment partial that the IR
	// kernel's per-thread atomics produce.
	var localNorm float64
	added := false
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		ix, iy := int64(gx), int64(gy)
		if ix < 1 || ix > nx-2 || iy < 1 || iy > rows-2 {
			continue
		}
		idx := iy*nx + ix
		v := 0.25 * ((in.At(idx-1) + in.At(idx+1)) + (in.At(idx-nx) + in.At(idx+nx)))
		out.Set(idx, v)
		// absdiff(v, in[idx]) = max(v-in, in-v), matching the IR helper.
		d := v - in.At(idx)
		nd := in.At(idx) - v
		if nd > d {
			d = nd
		}
		localNorm += d
		added = true
	}
	if added {
		return red.AtomicAddF64(view, args[2].Ptr, localNorm)
	}
	return nil
}

func nativeInitField(g kinterp.Geometry, lo, hi int, args []kinterp.Arg,
	view *memspace.View, _ *kinterp.Reduction) error {
	nx := args[1].I
	rows := args[2].I
	topWall := args[3].I != 0
	botWall := args[4].I != 0
	buf, err := kinterp.NewVecF64(view, args[0].Ptr, nx*rows)
	if err != nil {
		return err
	}
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		ix, iy := int64(gx), int64(gy)
		if ix >= nx || iy >= rows {
			continue
		}
		v := 0.0
		if ix == 0 || ix == nx-1 ||
			(topWall && iy == 0) || (botWall && iy == rows-1) {
			v = 1.0
		}
		buf.Set(iy*nx+ix, v)
	}
	return nil
}

func nativeResetNorm(g kinterp.Geometry, lo, hi int, args []kinterp.Arg,
	view *memspace.View, _ *kinterp.Reduction) error {
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		if gx == 0 && gy == 0 {
			norm, err := kinterp.NewVecF64(view, args[0].Ptr, 1)
			if err != nil {
				return err
			}
			norm.Set(0, 0)
		}
	}
	return nil
}
