// Package jacobi is the reproduction of the paper's first mini-app: the
// NVIDIA CUDA-aware MPI Jacobi solver [38] — a 2D Poisson/Laplace
// relaxation on a row-decomposed domain whose halo rows are exchanged
// with *blocking* MPI send-recv operations on device pointers (paper §V,
// "Jacobi uses blocking MPI send-recv operations").
//
// Structure per iteration (mirroring the sample):
//
//  1. jacobi_step kernel on a user compute stream: 5-point stencil into
//     the output buffer, accumulating the residual via atomic add;
//  2. reset kernel preparing the residual cell for the next iteration;
//  3. synchronous D2H memcpy of the residual (implicit host sync);
//  4. cudaDeviceSynchronize — the explicit CUDA-to-MPI synchronization
//     the paper's Fig. 4 is about;
//  5. halo exchange with MPI_Sendrecv on device pointers;
//  6. MPI_Allreduce of the residual; buffer swap.
//
// The racy variant (SkipSync) omits step 4 and makes step 3 asynchronous:
// the classic missing CUDA-to-MPI synchronization CuSan exists to catch.
package jacobi

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
	// NX and NY are the global domain size (NY is split across ranks).
	NX, NY int
	// Iters is the fixed iteration count (deterministic benchmark work).
	Iters int
	// SkipSync injects the missing-synchronization bug.
	SkipSync bool
	// Interpreted forces IR interpretation of the kernels instead of the
	// registered native implementations (equivalence testing and the
	// interpreter-cost ablation).
	Interpreted bool
	// BlockX is the kernel block width (default 128).
	BlockX int
}

// DefaultConfig returns the benchmark default: a scaled-down domain (the
// paper's model sizes target a V100; see DESIGN.md E1/E4) at the
// sample's iteration count, which reproduces the Table I counter values
// (602 memcpys, ~1200 kernel calls, ~1804 happens-before events).
func DefaultConfig() Config {
	return Config{NX: 512, NY: 256, Iters: 600}
}

// Result reports a rank's outcome.
type Result struct {
	Rank      int
	Iters     int
	FirstNorm float64
	LastNorm  float64
}

// Module returns the device code of the mini-app. It is built once per
// process and shared by every job; its first compile seals it, so
// callers must not Add to it.
func Module() *kir.Module { return module() }

var module = sync.OnceValue(buildModule)

// buildModule builds the device code of the mini-app.
func buildModule() *kir.Module {
	m := kir.NewModule()

	// absdiff(a, b) -> |a-b| without branches: max(a-b, b-a).
	m.Add(kir.DeviceFunc("absdiff", []kir.Param{
		{Name: "a", Type: kir.TFloat},
		{Name: "b", Type: kir.TFloat},
	}, kir.TFloat, func(e *kir.Emitter) {
		d := e.Sub(e.Arg("a"), e.Arg("b"))
		nd := e.Sub(e.Arg("b"), e.Arg("a"))
		e.ReturnVal(e.Max(d, nd))
	}))

	// jacobi_step: interior stencil update + residual accumulation.
	// Buffers hold rows*nx elements; rows = local interior + 2 halo rows.
	// Interior is iy in [1, rows-2], ix in [1, nx-2].
	m.Add(kir.KernelFunc("jacobi_step", []kir.Param{
		{Name: "out", Type: kir.TPtrF64},
		{Name: "in", Type: kir.TPtrF64},
		{Name: "norm", Type: kir.TPtrF64},
		{Name: "nx", Type: kir.TInt},
		{Name: "rows", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		ix := e.GlobalIDX()
		iy := e.GlobalIDY()
		one := e.ConstI(1)
		nx := e.Arg("nx")
		inX := e.AndI(e.Ge(ix, one), e.Le(ix, e.Sub(nx, e.ConstI(2))))
		inY := e.AndI(e.Ge(iy, one), e.Le(iy, e.Sub(e.Arg("rows"), e.ConstI(2))))
		e.If(e.AndI(inX, inY), func() {
			idx := e.Add(e.Mul(iy, nx), ix)
			in := e.Arg("in")
			l := e.LoadIdx(in, e.Sub(idx, one))
			r := e.LoadIdx(in, e.Add(idx, one))
			u := e.LoadIdx(in, e.Sub(idx, nx))
			d := e.LoadIdx(in, e.Add(idx, nx))
			v := e.Mul(e.ConstF(0.25), e.Add(e.Add(l, r), e.Add(u, d)))
			e.StoreIdx(e.Arg("out"), idx, v)
			diff := e.CallRet("absdiff", kir.TFloat, v, e.LoadIdx(in, idx))
			e.AtomicAddF(e.Arg("norm"), diff)
		})
	}))

	// init_field: walls fixed at 1.0, interior 0. topWall/botWall mark
	// global boundary rows (rank 0 / last rank).
	m.Add(kir.KernelFunc("init_field", []kir.Param{
		{Name: "buf", Type: kir.TPtrF64},
		{Name: "nx", Type: kir.TInt},
		{Name: "rows", Type: kir.TInt},
		{Name: "topWall", Type: kir.TInt},
		{Name: "botWall", Type: kir.TInt},
	}, func(e *kir.Emitter) {
		ix := e.GlobalIDX()
		iy := e.GlobalIDY()
		nx := e.Arg("nx")
		rows := e.Arg("rows")
		inDom := e.AndI(e.Lt(ix, nx), e.Lt(iy, rows))
		e.If(inDom, func() {
			zero := e.ConstI(0)
			v := e.Var(kir.TFloat)
			e.Assign(v, e.ConstF(0))
			wall := e.OrI(e.Eq(ix, zero), e.Eq(ix, e.Sub(nx, e.ConstI(1))))
			top := e.AndI(e.Ne(e.Arg("topWall"), zero), e.Eq(iy, zero))
			bot := e.AndI(e.Ne(e.Arg("botWall"), zero), e.Eq(iy, e.Sub(rows, e.ConstI(1))))
			e.If(e.OrI(wall, e.OrI(top, bot)), func() {
				e.Assign(v, e.ConstF(1))
			})
			e.StoreIdx(e.Arg("buf"), e.Add(e.Mul(iy, nx), ix), v)
		})
	}))

	// reset_norm: one thread, global (0, 0), zeroes the accumulator.
	m.Add(kir.KernelFunc("reset_norm", []kir.Param{
		{Name: "norm", Type: kir.TPtrF64},
	}, func(e *kir.Emitter) {
		zero := e.ConstI(0)
		e.If(e.AndI(e.Eq(e.GlobalIDX(), zero), e.Eq(e.GlobalIDY(), zero)), func() {
			e.StoreIdx(e.Arg("norm"), e.ConstI(0), e.ConstF(0))
		})
	}))

	return m
}

// Run executes the solver on one rank's session. The domain's NY rows
// are split evenly; each rank holds rows = NY/size + 2 halo rows.
func Run(s *core.Session, cfg Config) (*Result, error) {
	if cfg.BlockX <= 0 {
		cfg.BlockX = 128
	}
	nx := int64(cfg.NX)
	size := int64(s.Size())
	if int64(cfg.NY)%size != 0 {
		return nil, fmt.Errorf("jacobi: NY=%d not divisible by %d ranks", cfg.NY, s.Size())
	}
	nyl := int64(cfg.NY) / size
	rows := nyl + 2
	n := nx * rows

	dev := s.Dev
	if !cfg.Interpreted {
		if err := RegisterNatives(dev); err != nil {
			return nil, err
		}
	}
	a, err := s.CudaMallocF64(n)
	if err != nil {
		return nil, err
	}
	aNew, err := s.CudaMallocF64(n)
	if err != nil {
		return nil, err
	}
	dNorm, err := s.CudaMallocF64(1)
	if err != nil {
		return nil, err
	}
	hNorm := s.HostAllocF64(1)
	hNormGlobal := s.HostAllocF64(1)

	top := s.Rank() == 0
	bot := s.Rank() == s.Size()-1
	grid := kinterp.Dim2(int(nx+int64(cfg.BlockX)-1)/cfg.BlockX, int(rows))
	block := kinterp.Dim2(cfg.BlockX, 1)

	initArgs := func(buf memspace.Addr) []kinterp.Arg {
		return []kinterp.Arg{
			kinterp.Ptr(buf), kinterp.Int(nx), kinterp.Int(rows),
			kinterp.Int(b2i(top)), kinterp.Int(b2i(bot)),
		}
	}
	// Initialization on the default stream; the two memsets of the field
	// buffers mirror the sample (Table I: Memset = 2).
	if err := dev.Memset(a, 0, n*8); err != nil {
		return nil, err
	}
	if err := dev.Memset(aNew, 0, n*8); err != nil {
		return nil, err
	}
	if err := dev.LaunchKernel("init_field", grid, block, initArgs(a), nil); err != nil {
		return nil, err
	}
	if err := dev.LaunchKernel("init_field", grid, block, initArgs(aNew), nil); err != nil {
		return nil, err
	}
	s.StoreF64(hNormGlobal, 0)
	dev.DeviceSynchronize()

	// Compute stream: a non-blocking user stream — all stencil work runs
	// here, host-side residual copies on the default stream, explicit
	// cudaStreamSynchronize before touching device data from the host.
	// This reproduces the Table I counter algebra of the sample:
	// HB events = kernels + memcpys + memsets (one arc per operation),
	// HA events = synchronization calls + host-syncing memcpys.
	stream := dev.StreamCreate(true)

	res := &Result{Rank: s.Rank(), Iters: cfg.Iters}
	for it := 0; it < cfg.Iters; it++ {
		if err := dev.LaunchKernel("jacobi_step", grid, block, []kinterp.Arg{
			kinterp.Ptr(aNew), kinterp.Ptr(a), kinterp.Ptr(dNorm),
			kinterp.Int(nx), kinterp.Int(rows),
		}, stream); err != nil {
			return nil, err
		}

		// CUDA-to-host synchronization before the host (and MPI) touch
		// device data (paper Fig. 4 line 4). The racy variant omits it.
		if !cfg.SkipSync {
			if err := dev.StreamSynchronize(stream); err != nil {
				return nil, err
			}
		}

		// Residual to host. The synchronous D2H copy blocks the host;
		// the racy variant uses the async variant, which does not.
		if cfg.SkipSync {
			if err := dev.MemcpyAsync(hNorm, dNorm, 8, stream); err != nil {
				return nil, err
			}
		} else {
			if err := dev.Memcpy(hNorm, dNorm, 8); err != nil {
				return nil, err
			}
		}
		// Prepare the accumulator for the next iteration. The launch is
		// ordered after the (host-synchronous) copy by program order on
		// the host, carried onto the stream by the launch.
		if err := dev.LaunchKernel("reset_norm", kinterp.Dim(1), kinterp.Dim(1),
			[]kinterp.Arg{kinterp.Ptr(dNorm)}, stream); err != nil {
			return nil, err
		}

		// Halo exchange with blocking send-recv on device pointers:
		// first interior row up, last interior row down.
		rowAddr := func(buf memspace.Addr, row int64) memspace.Addr {
			return buf + memspace.Addr(row*nx*8)
		}
		if s.Rank() > 0 {
			if _, err := s.Comm.Sendrecv(
				rowAddr(aNew, 1), int(nx), mpi.Float64, s.Rank()-1, 0,
				rowAddr(aNew, 0), int(nx), mpi.Float64, s.Rank()-1, 1,
			); err != nil {
				return nil, err
			}
		}
		if s.Rank() < s.Size()-1 {
			if _, err := s.Comm.Sendrecv(
				rowAddr(aNew, rows-2), int(nx), mpi.Float64, s.Rank()+1, 1,
				rowAddr(aNew, rows-1), int(nx), mpi.Float64, s.Rank()+1, 0,
			); err != nil {
				return nil, err
			}
		}

		// Global residual.
		if err := s.Comm.Allreduce(hNorm, hNormGlobal, 1, mpi.Float64, mpi.OpSum); err != nil {
			return nil, err
		}
		norm := s.LoadF64(hNormGlobal)
		norm = math.Sqrt(norm) / float64(cfg.NX*cfg.NY)
		if it == 0 {
			res.FirstNorm = norm
		}
		res.LastNorm = norm

		a, aNew = aNew, a
	}
	dev.DeviceSynchronize()
	return res, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
