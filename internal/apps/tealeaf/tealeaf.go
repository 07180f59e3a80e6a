// Package tealeaf is the reproduction of the paper's second mini-app:
// TeaLeaf [39], a heat-conduction solver that advances an implicit
// diffusion step with a conjugate-gradient (CG) iteration and exchanges
// halos with *non-blocking* MPI on device pointers (paper §V, "TeaLeaf
// uses non-blocking calls").
//
// The linear system is (I - k·Δ)u = b on a row-decomposed 2D grid with
// Dirichlet boundaries; one CG iteration issues ~7 kernels on the
// *default stream only* (Table I: Stream = 1 for TeaLeaf), two
// synchronous D2H copies of the dot products, and one non-blocking halo
// exchange (MPI_Irecv/Isend/Waitall) of the search direction p.
//
// Two injectable bugs mirror the paper's §III-D cases:
//
//	SkipWait — the matvec kernel launches before MPI_Waitall: a
//	           non-blocking-MPI-to-CUDA race (case ii);
//	SkipSync — the halo send starts without synchronizing the device:
//	           a CUDA-to-MPI race (case i).
package tealeaf

import (
	"fmt"
	"math"
	"sync"

	"cusango/internal/core"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
	"cusango/internal/mpi"
)

// Config parameterizes a run.
type Config struct {
	// NX, NY are the global grid size (NY split across ranks).
	NX, NY int
	// Iters is the CG iteration limit. The solve stops earlier only on
	// exact convergence (p·Ap or ||r||^2 exactly zero); there is no
	// tolerance.
	Iters int
	// K is the diffusion coefficient (conditioning knob).
	K float64
	// SkipWait launches the matvec before completing the halo receives.
	SkipWait bool
	// SkipSync starts the halo sends without device synchronization.
	SkipSync bool
	// Interpreted forces IR interpretation of the kernels instead of the
	// registered native implementations.
	Interpreted bool
	// BlockX is the kernel block width (default 128).
	BlockX int
}

// DefaultConfig returns the benchmark default (a smaller model than
// Jacobi's, as in the paper: "Tealeaf's model ... is a smaller domain").
func DefaultConfig() Config {
	return Config{NX: 96, NY: 96, Iters: 50, K: 0.1}
}

// Result reports a rank's outcome.
type Result struct {
	Rank int
	// Iters counts the CG iterations performed (at most Config.Iters).
	Iters   int
	FirstRR float64
	LastRR  float64
}

// interiorGuard emits the bounds check shared by every kernel: ix in
// [1, nx-2], iy in [1, rows-2].
func interiorGuard(e *kir.Emitter, body func(idx kir.Value)) {
	ix := e.GlobalIDX()
	iy := e.GlobalIDY()
	one := e.ConstI(1)
	nx := e.Arg("nx")
	inX := e.AndI(e.Ge(ix, one), e.Le(ix, e.Sub(nx, e.ConstI(2))))
	inY := e.AndI(e.Ge(iy, one), e.Le(iy, e.Sub(e.Arg("rows"), e.ConstI(2))))
	e.If(e.AndI(inX, inY), func() {
		body(e.Add(e.Mul(iy, nx), ix))
	})
}

// Module returns the device code of the mini-app. It is built once per
// process and shared by every job; its first compile seals it, so
// callers must not Add to it.
func Module() *kir.Module { return module() }

var module = sync.OnceValue(buildModule)

// buildModule builds the device code of the mini-app.
func buildModule() *kir.Module {
	m := kir.NewModule()

	dims := []kir.Param{{Name: "nx", Type: kir.TInt}, {Name: "rows", Type: kir.TInt}}
	withDims := func(ps ...kir.Param) []kir.Param { return append(ps, dims...) }

	// tl_init: b gets a hot square in the rank-local interior; u starts
	// at zero (allocations are zeroed), r = b, p = r.
	m.Add(kir.KernelFunc("tl_init", withDims(
		kir.Param{Name: "b", Type: kir.TPtrF64},
		kir.Param{Name: "r", Type: kir.TPtrF64},
		kir.Param{Name: "p", Type: kir.TPtrF64},
	), func(e *kir.Emitter) {
		interiorGuard(e, func(idx kir.Value) {
			ix := e.GlobalIDX()
			iy := e.GlobalIDY()
			nx := e.Arg("nx")
			rows := e.Arg("rows")
			v := e.Var(kir.TFloat)
			e.Assign(v, e.ConstF(0))
			// Hot square: middle half in both dimensions.
			lo := e.Div(nx, e.ConstI(4))
			hi := e.Sub(nx, lo)
			loY := e.Div(rows, e.ConstI(4))
			hiY := e.Sub(rows, loY)
			hot := e.AndI(
				e.AndI(e.Ge(ix, lo), e.Lt(ix, hi)),
				e.AndI(e.Ge(iy, loY), e.Lt(iy, hiY)),
			)
			e.If(hot, func() { e.Assign(v, e.ConstF(10)) })
			e.StoreIdx(e.Arg("b"), idx, v)
			e.StoreIdx(e.Arg("r"), idx, v)
			e.StoreIdx(e.Arg("p"), idx, v)
		})
	}))

	// tl_matvec: w = (1+4k)p - k(p_l + p_r + p_u + p_d).
	m.Add(kir.KernelFunc("tl_matvec", withDims(
		kir.Param{Name: "w", Type: kir.TPtrF64},
		kir.Param{Name: "p", Type: kir.TPtrF64},
		kir.Param{Name: "k", Type: kir.TFloat},
	), func(e *kir.Emitter) {
		interiorGuard(e, func(idx kir.Value) {
			one := e.ConstI(1)
			nx := e.Arg("nx")
			p := e.Arg("p")
			k := e.Arg("k")
			center := e.LoadIdx(p, idx)
			sum := e.Add(
				e.Add(e.LoadIdx(p, e.Sub(idx, one)), e.LoadIdx(p, e.Add(idx, one))),
				e.Add(e.LoadIdx(p, e.Sub(idx, nx)), e.LoadIdx(p, e.Add(idx, nx))),
			)
			diag := e.Add(e.ConstF(1), e.Mul(e.ConstF(4), k))
			e.StoreIdx(e.Arg("w"), idx, e.Sub(e.Mul(diag, center), e.Mul(k, sum)))
		})
	}))

	// tl_dot: acc[slot] += a·b over the interior.
	m.Add(kir.KernelFunc("tl_dot", withDims(
		kir.Param{Name: "acc", Type: kir.TPtrF64},
		kir.Param{Name: "slot", Type: kir.TInt},
		kir.Param{Name: "a", Type: kir.TPtrF64},
		kir.Param{Name: "b", Type: kir.TPtrF64},
	), func(e *kir.Emitter) {
		interiorGuard(e, func(idx kir.Value) {
			prod := e.Mul(e.LoadIdx(e.Arg("a"), idx), e.LoadIdx(e.Arg("b"), idx))
			e.AtomicAddF(e.GEP(e.Arg("acc"), e.Arg("slot")), prod)
		})
	}))

	// tl_axpy: y += alpha * x.
	m.Add(kir.KernelFunc("tl_axpy", withDims(
		kir.Param{Name: "y", Type: kir.TPtrF64},
		kir.Param{Name: "x", Type: kir.TPtrF64},
		kir.Param{Name: "alpha", Type: kir.TFloat},
	), func(e *kir.Emitter) {
		interiorGuard(e, func(idx kir.Value) {
			y := e.Arg("y")
			v := e.Add(e.LoadIdx(y, idx), e.Mul(e.Arg("alpha"), e.LoadIdx(e.Arg("x"), idx)))
			e.StoreIdx(y, idx, v)
		})
	}))

	// tl_p_update: p = r + beta * p.
	m.Add(kir.KernelFunc("tl_p_update", withDims(
		kir.Param{Name: "p", Type: kir.TPtrF64},
		kir.Param{Name: "r", Type: kir.TPtrF64},
		kir.Param{Name: "beta", Type: kir.TFloat},
	), func(e *kir.Emitter) {
		interiorGuard(e, func(idx kir.Value) {
			p := e.Arg("p")
			v := e.Add(e.LoadIdx(e.Arg("r"), idx), e.Mul(e.Arg("beta"), e.LoadIdx(p, idx)))
			e.StoreIdx(p, idx, v)
		})
	}))

	// tl_reset_dots: threads x = 0, 1 of row 0 zero the two slots.
	m.Add(kir.KernelFunc("tl_reset_dots", []kir.Param{
		{Name: "acc", Type: kir.TPtrF64},
	}, func(e *kir.Emitter) {
		i := e.GlobalIDX()
		e.If(e.AndI(e.Lt(i, e.ConstI(2)), e.Eq(e.GlobalIDY(), e.ConstI(0))), func() {
			e.StoreIdx(e.Arg("acc"), i, e.ConstF(0))
		})
	}))

	return m
}

// solver bundles one rank's state.
type solver struct {
	s           *core.Session
	cfg         Config
	nx, rows    int64
	grid, block kinterp.Dim3
	x, r, p, w  memspace.Addr
	b           memspace.Addr
	dDots       memspace.Addr // 2 device doubles: [0]=p·w, [1]=r·r
	hDot        memspace.Addr // host staging
	hDotG       memspace.Addr // allreduce result
}

func (t *solver) launch(name string, args ...kinterp.Arg) error {
	full := append(args, kinterp.Int(t.nx), kinterp.Int(t.rows))
	return t.s.Dev.LaunchKernel(name, t.grid, t.block, full, nil)
}

// globalDot runs acc[slot] += a·b on the device, copies it to the host,
// and allreduces it.
func (t *solver) globalDot(slot int64, a, b memspace.Addr) (float64, error) {
	if err := t.launch("tl_dot",
		kinterp.Ptr(t.dDots), kinterp.Int(slot), kinterp.Ptr(a), kinterp.Ptr(b)); err != nil {
		return 0, err
	}
	// Synchronous D2H copy: implicit host synchronization with the
	// default stream (semantics table), no explicit sync call needed.
	if err := t.s.Dev.Memcpy(t.hDot, t.dDots+memspace.Addr(slot*8), 8); err != nil {
		return 0, err
	}
	if err := t.s.Comm.Allreduce(t.hDot, t.hDotG, 1, mpi.Float64, mpi.OpSum); err != nil {
		return 0, err
	}
	return t.s.LoadF64(t.hDotG), nil
}

// exchangeHalo posts the non-blocking halo exchange of p and (unless
// SkipWait) completes it.
func (t *solver) exchangeHalo() error {
	s := t.s
	rowAddr := func(row int64) memspace.Addr { return t.p + memspace.Addr(row*t.nx*8) }
	var reqs []*mpi.Request
	post := func(req *mpi.Request, err error) error {
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
		return nil
	}
	nxi := int(t.nx)
	if s.Rank() > 0 {
		if err := post(s.Comm.Irecv(rowAddr(0), nxi, mpi.Float64, s.Rank()-1, 1)); err != nil {
			return err
		}
		if err := post(s.Comm.Isend(rowAddr(1), nxi, mpi.Float64, s.Rank()-1, 0)); err != nil {
			return err
		}
	}
	if s.Rank() < s.Size()-1 {
		if err := post(s.Comm.Irecv(rowAddr(t.rows-1), nxi, mpi.Float64, s.Rank()+1, 0)); err != nil {
			return err
		}
		if err := post(s.Comm.Isend(rowAddr(t.rows-2), nxi, mpi.Float64, s.Rank()+1, 1)); err != nil {
			return err
		}
	}
	if t.cfg.SkipWait {
		// BUG: use the halo before the receives complete; Waitall runs
		// after the dependent kernel (paper §III-D case ii).
		if err := t.launch("tl_matvec",
			kinterp.Ptr(t.w), kinterp.Ptr(t.p), kinterp.F64(t.cfg.K)); err != nil {
			return err
		}
	}
	if err := s.Comm.WaitAll(reqs...); err != nil {
		return err
	}
	return nil
}

// Run executes the CG solve on one rank's session.
func Run(s *core.Session, cfg Config) (*Result, error) {
	if cfg.BlockX <= 0 {
		cfg.BlockX = 128
	}
	if cfg.K <= 0 {
		cfg.K = 0.1
	}
	nx := int64(cfg.NX)
	size := int64(s.Size())
	if int64(cfg.NY)%size != 0 {
		return nil, fmt.Errorf("tealeaf: NY=%d not divisible by %d ranks", cfg.NY, s.Size())
	}
	rows := int64(cfg.NY)/size + 2
	n := nx * rows

	if !cfg.Interpreted {
		if err := RegisterNatives(s.Dev); err != nil {
			return nil, err
		}
	}
	t := &solver{
		s: s, cfg: cfg, nx: nx, rows: rows,
		grid:  kinterp.Dim2(int(nx+int64(cfg.BlockX)-1)/cfg.BlockX, int(rows)),
		block: kinterp.Dim2(cfg.BlockX, 1),
	}
	var err error
	alloc := func(count int64) memspace.Addr {
		if err != nil {
			return 0
		}
		var a memspace.Addr
		a, err = s.CudaMallocF64(count)
		return a
	}
	t.x = alloc(n)
	t.r = alloc(n)
	t.p = alloc(n)
	t.w = alloc(n)
	t.b = alloc(n)
	t.dDots = alloc(2)
	if err != nil {
		return nil, err
	}
	t.hDot = s.HostAllocF64(1)
	t.hDotG = s.HostAllocF64(1)

	dev := s.Dev
	// Initialization: memsets mirror TeaLeaf's buffer clears, then the
	// field setup kernel. All on the default stream.
	for _, buf := range []memspace.Addr{t.x, t.w} {
		if err := dev.Memset(buf, 0, n*8); err != nil {
			return nil, err
		}
	}
	if err := t.launch("tl_init", kinterp.Ptr(t.b), kinterp.Ptr(t.r), kinterp.Ptr(t.p)); err != nil {
		return nil, err
	}
	if err := dev.LaunchKernel("tl_reset_dots", kinterp.Dim(1), kinterp.Dim(2),
		[]kinterp.Arg{kinterp.Ptr(t.dDots)}, nil); err != nil {
		return nil, err
	}

	res := &Result{Rank: s.Rank()}
	rr, err := t.globalDot(1, t.r, t.r)
	if err != nil {
		return nil, err
	}
	res.FirstRR = rr

	for it := 0; it < cfg.Iters; it++ {
		// CUDA-to-MPI synchronization: p was last written on the device.
		if !cfg.SkipSync {
			dev.DeviceSynchronize()
		}
		if err := t.exchangeHalo(); err != nil {
			return nil, err
		}
		if err := dev.LaunchKernel("tl_reset_dots", kinterp.Dim(1), kinterp.Dim(2),
			[]kinterp.Arg{kinterp.Ptr(t.dDots)}, nil); err != nil {
			return nil, err
		}
		if !cfg.SkipWait {
			if err := t.launch("tl_matvec",
				kinterp.Ptr(t.w), kinterp.Ptr(t.p), kinterp.F64(cfg.K)); err != nil {
				return nil, err
			}
		}
		pAp, err := t.globalDot(0, t.p, t.w)
		if err != nil {
			return nil, err
		}
		if pAp == 0 {
			break // p = 0: r is already exactly zero
		}
		alpha := rr / pAp
		if err := t.launch("tl_axpy", kinterp.Ptr(t.x), kinterp.Ptr(t.p), kinterp.F64(alpha)); err != nil {
			return nil, err
		}
		if err := t.launch("tl_axpy", kinterp.Ptr(t.r), kinterp.Ptr(t.w), kinterp.F64(-alpha)); err != nil {
			return nil, err
		}
		rrNew, err := t.globalDot(1, t.r, t.r)
		if err != nil {
			return nil, err
		}
		res.Iters++
		res.LastRR = rrNew
		if rrNew == 0 {
			break // exact convergence: beta would be 0/0
		}
		beta := rrNew / rr
		rr = rrNew
		if err := t.launch("tl_p_update", kinterp.Ptr(t.p), kinterp.Ptr(t.r), kinterp.F64(beta)); err != nil {
			return nil, err
		}
	}
	dev.DeviceSynchronize()
	if math.IsNaN(res.LastRR) {
		return nil, fmt.Errorf("tealeaf: diverged (rr = NaN)")
	}
	return res, nil
}
