package main

import "math"

// Independent reference computations. They share no code with the
// applications under test: each solves the same problem serially on the
// global grid, so a decomposition, halo or synchronization fault in the
// distributed run shows as a different result.

// jacobiRef is the serial Jacobi relaxation on the global (ny+2)×nx grid:
// the side columns and the top and bottom rows are walls fixed at 1.0,
// the interior starts at 0. Each sweep sets every interior cell to the
// mean of its four neighbours and accumulates |new-old|; the reported
// residual of a sweep is sqrt(sum)/(nx·ny), the jacobi app's definition.
// It returns the residuals of the first and the last sweep.
func jacobiRef(nx, ny, iters int) (first, last float64) {
	rows := ny + 2
	a := make([]float64, rows*nx)
	b := make([]float64, rows*nx)
	for _, buf := range [][]float64{a, b} {
		for y := 0; y < rows; y++ {
			for x := 0; x < nx; x++ {
				if x == 0 || x == nx-1 || y == 0 || y == rows-1 {
					buf[y*nx+x] = 1
				}
			}
		}
	}
	for it := 0; it < iters; it++ {
		var sum float64
		for y := 1; y < rows-1; y++ {
			for x := 1; x < nx-1; x++ {
				i := y*nx + x
				v := 0.25 * ((a[i-1] + a[i+1]) + (a[i-nx] + a[i+nx]))
				b[i] = v
				sum += math.Abs(v - a[i])
			}
		}
		norm := math.Sqrt(sum) / float64(nx*ny)
		if it == 0 {
			first = norm
		}
		last = norm
		a, b = b, a
	}
	return first, last
}

// hotCells counts the cells of the tealeaf right-hand side's hot square
// over all ranks: each rank marks the middle half of its own rows+2-row
// block in both dimensions (interior cells only).
func hotCells(nx, ny, ranks int) int {
	rows := ny/ranks + 2
	n := 0
	for y := 1; y <= rows-2; y++ {
		for x := 1; x <= nx-2; x++ {
			if x >= nx/4 && x < nx-nx/4 && y >= rows/4 && y < rows-rows/4 {
				n++
			}
		}
	}
	return n * ranks
}

// cgRef is the serial conjugate-gradient solve of (I - k·Δ)u = b on the
// global interior with zero Dirichlet boundaries: the 5-point operator
// w = (1+4k)p - k(p_l+p_r+p_u+p_d), and b = 10 on each rank's hot square
// (laid out as the ranks' row blocks stacked in rank order). It returns
// ‖r‖² before the first iteration and after iters iterations.
func cgRef(nx, ny, ranks, iters int, k float64) (first, last float64) {
	nyl := ny / ranks
	rows := nyl + 2
	g := ny + 2 // global rows including the two boundary rows
	idx := func(y, x int) int { return y*nx + x }
	b := make([]float64, g*nx)
	for r := 0; r < ranks; r++ {
		for ly := 1; ly <= nyl; ly++ {
			for x := 1; x <= nx-2; x++ {
				if x >= nx/4 && x < nx-nx/4 && ly >= rows/4 && ly < rows-rows/4 {
					b[idx(r*nyl+ly, x)] = 10
				}
			}
		}
	}
	x := make([]float64, g*nx)
	res := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	w := make([]float64, g*nx)
	interior := func(f func(i int)) {
		for y := 1; y <= ny; y++ {
			for c := 1; c <= nx-2; c++ {
				f(idx(y, c))
			}
		}
	}
	dot := func(u, v []float64) float64 {
		var s float64
		interior(func(i int) { s += u[i] * v[i] })
		return s
	}
	rr := dot(res, res)
	first, last = rr, rr
	for it := 0; it < iters; it++ {
		interior(func(i int) {
			w[i] = (1+4*k)*p[i] - k*((p[i-1]+p[i+1])+(p[i-nx]+p[i+nx]))
		})
		pAp := dot(p, w)
		alpha := rr / pAp
		interior(func(i int) {
			x[i] += alpha * p[i]
			res[i] -= alpha * w[i]
		})
		rrNew := dot(res, res)
		beta := rrNew / rr
		rr = rrNew
		interior(func(i int) { p[i] = res[i] + beta*p[i] })
		last = rr
	}
	return first, last
}

// Closed-form per-rank operation counts of the two apps, from their
// source: jacobi launches init_field twice, then jacobi_step and
// reset_norm per iteration, with one blocking residual copy per
// iteration; tealeaf launches tl_init, tl_reset_dots and the first tl_dot,
// then seven kernels per CG iteration (reset, matvec, dot, two axpy,
// dot, p-update) with one residual copy per dot.
func jacobiKernelCalls(iters int) int64  { return 2 + 2*int64(iters) }
func jacobiMemcpys(iters int) int64      { return int64(iters) }
func tealeafKernelCalls(iters int) int64 { return 3 + 7*int64(iters) }
func tealeafMemcpys(iters int) int64     { return 1 + 2*int64(iters) }
