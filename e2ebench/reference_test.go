package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-14*math.Max(1, math.Abs(b)) }

// Grids small enough to work out by hand.
func TestJacobiRefHandWorked(t *testing.T) {
	// 3×3 grid: one interior cell, all four neighbours are walls at 1.
	// Sweep 1 sets it to 1 (|1-0| = 1, residual sqrt(1)/(3·1)); sweep 2
	// changes nothing.
	if f, l := jacobiRef(3, 1, 1); !near(f, 1.0/3) || !near(l, 1.0/3) {
		t.Errorf("3x1, 1 sweep: got (%v, %v), want (1/3, 1/3)", f, l)
	}
	if f, l := jacobiRef(3, 1, 2); !near(f, 1.0/3) || l != 0 {
		t.Errorf("3x1, 2 sweeps: got (%v, %v), want (1/3, 0)", f, l)
	}
	// 4×(2+2) grid: a 2×2 interior, each cell with two wall neighbours.
	// Sweep 1: every cell becomes 0.5, sum 2, residual sqrt(2)/8.
	// Sweep 2: every cell becomes (1+1+0.5+0.5)/4 = 0.75, sum 1, 1/8.
	if f, l := jacobiRef(4, 2, 2); !near(f, math.Sqrt(2)/8) || !near(l, 1.0/8) {
		t.Errorf("4x2, 2 sweeps: got (%v, %v), want (sqrt(2)/8, 1/8)", f, l)
	}
}

func TestHotCells(t *testing.T) {
	// 8×4 on 2 ranks: each rank has rows = 4; hot rows 1..2 (rows/4 = 1,
	// rows - rows/4 = 3), hot columns 2..5 → 8 cells per rank.
	if got := hotCells(8, 4, 2); got != 16 {
		t.Errorf("hotCells(8,4,2) = %d, want 16", got)
	}
	// The tealeaf-cg grid: rows = 50, hot rows 12..37 (26), columns
	// 24..71 (48) → 1248 per rank.
	if got := hotCells(96, 96, 2); got != 2496 {
		t.Errorf("hotCells(96,96,2) = %d, want 2496", got)
	}
}

func TestCGRefHandWorked(t *testing.T) {
	// One row of three interior cells, all hot (b = 10), k = 1:
	// A = tridiag(-1, 5, -1), p = b, w = A·b = (40, 30, 40),
	// p·w = 1100, ‖r‖² = 300, α = 3/11, r = b - α·w = (-10, 20, -10)/11,
	// ‖r‖² = 600/121. b spans two eigenvectors of A, so the second
	// iteration solves exactly.
	f, l := cgRef(5, 1, 1, 1, 1)
	if f != 300 || !near(l, 600.0/121) {
		t.Errorf("1 iteration: got (%v, %v), want (300, 600/121)", f, l)
	}
	if _, l := cgRef(5, 1, 1, 2, 1); !(l < 1e-20) {
		t.Errorf("2 iterations: ||r||^2 = %v, want ~0", l)
	}
	// Two ranks: the right-hand side is the sum of both ranks' squares.
	if f, _ := cgRef(8, 4, 2, 0, 1); f != 100*16 {
		t.Errorf("8x4 on 2 ranks: first ||r||^2 = %v, want 1600", f)
	}
}

func TestClosedFormCounts(t *testing.T) {
	// Table I of the paper reports ~1200 kernel calls and 602 memcpys for
	// Jacobi at 600 iterations (its memcpys include two set-up copies
	// this port does as memsets).
	if got := jacobiKernelCalls(600); got != 1202 {
		t.Errorf("jacobi kernel calls = %d, want 1202", got)
	}
	if got := jacobiMemcpys(600); got != 600 {
		t.Errorf("jacobi memcpys = %d, want 600", got)
	}
	if got := tealeafKernelCalls(1000); got != 7003 {
		t.Errorf("tealeaf kernel calls = %d, want 7003", got)
	}
	if got := tealeafMemcpys(1000); got != 2001 {
		t.Errorf("tealeaf memcpys = %d, want 2001", got)
	}
}
