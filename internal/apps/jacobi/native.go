package jacobi

import (
	"cusango/internal/kinterp"
	"cusango/internal/memspace"
)

// Native ("compiled") implementations of the Jacobi kernels. The IR
// versions in Module() remain the input to the compiler access analysis;
// these execute. Equivalence of the two is pinned by
// TestNativeMatchesInterpreter.

// RegisterNatives installs the native kernels on a device, or directly
// on a kernel engine.
func RegisterNatives(dev interface {
	RegisterNative(name string, fn kinterp.ThreadRange) error
}) error {
	for name, fn := range map[string]kinterp.ThreadRange{
		"jacobi_step": nativeJacobiStep,
		"init_field":  nativeInitField,
		"reset_norm":  nativeResetNorm,
	} {
		if err := dev.RegisterNative(name, fn); err != nil {
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
	out, err := view.Float64s(args[0].Ptr, n)
	if err != nil {
		return err
	}
	in, err := view.Float64s(args[1].Ptr, n)
	if err != nil {
		return err
	}
	// The engine calls this once per segment (the IR kernel adds
	// atomically), so folding the range's residuals from zero in
	// ascending thread order yields the segment partial that the IR
	// kernel's per-thread atomics produce.
	var localNorm float64
	added := false
	for lin := lo; lin < hi; {
		var idx, m int64
		idx, m, lin = g.InteriorRow(lin, hi, nx, rows)
		if m == 0 {
			continue
		}
		// cur[i+1] is the cell out[i] updates; cur[i] and cur[i+2] are
		// its west and east neighbours, up[i] and dn[i] its north and
		// south ones.
		cur := in[idx-1 : idx+m+1]
		up := in[idx-nx : idx-nx+m]
		dn := in[idx+nx : idx+nx+m]
		o := out[idx : idx+m]
		for i := range o {
			c := cur[i+1]
			v := 0.25 * ((cur[i] + cur[i+2]) + (up[i] + dn[i]))
			o[i] = v
			// absdiff(v, c) = max(v-c, c-v), matching the IR helper.
			d := v - c
			if nd := c - v; nd > d {
				d = nd
			}
			localNorm += d
		}
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
	buf, err := view.Float64s(args[0].Ptr, nx*rows)
	if err != nil {
		return err
	}
	for lin := lo; lin < hi; {
		gx, gy, end := g.Row(lin, hi)
		x0, x1, iy := int64(gx), min(int64(gx+end-lin), nx), int64(gy)
		lin = end
		if iy >= rows || x0 >= x1 {
			continue
		}
		row := buf[iy*nx+x0 : iy*nx+x1]
		wall := (topWall && iy == 0) || (botWall && iy == rows-1)
		for i := range row {
			ix := x0 + int64(i)
			v := 0.0
			if ix == 0 || ix == nx-1 || wall {
				v = 1.0
			}
			row[i] = v
		}
	}
	return nil
}

func nativeResetNorm(g kinterp.Geometry, lo, hi int, args []kinterp.Arg,
	view *memspace.View, _ *kinterp.Reduction) error {
	for lin := lo; lin < hi; lin++ {
		gx, gy := g.Thread(lin)
		if gx == 0 && gy == 0 {
			norm, err := view.Float64s(args[0].Ptr, 1)
			if err != nil {
				return err
			}
			norm[0] = 0
		}
	}
	return nil
}
