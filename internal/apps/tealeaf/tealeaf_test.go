package tealeaf

import (
	"math"
	"testing"

	"cusango/internal/core"
	"cusango/internal/kaccess"
	"cusango/internal/kinterp"
	"cusango/internal/kir"
	"cusango/internal/memspace"
)

func run(t *testing.T, flavor core.Flavor, cfg Config, ranks int) (*core.Result, []*Result) {
	t.Helper()
	results := make([]*Result, ranks)
	res, err := core.Run(core.Config{
		Flavor: flavor,
		Ranks:  ranks,
		Module: Module(),
	}, func(s *core.Session) error {
		r, err := Run(s, cfg)
		if err != nil {
			return err
		}
		results[s.Rank()] = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	return res, results
}

func smallCfg() Config {
	return Config{NX: 32, NY: 32, Iters: 15, K: 0.1}
}

func TestCGConverges(t *testing.T) {
	_, rs := run(t, core.Vanilla, smallCfg(), 2)
	for _, r := range rs {
		if math.IsNaN(r.LastRR) || r.LastRR <= 0 {
			t.Fatalf("rank %d: rr = %v", r.Rank, r.LastRR)
		}
		if r.LastRR >= r.FirstRR/10 {
			t.Fatalf("rank %d: CG barely converged: %v -> %v", r.Rank, r.FirstRR, r.LastRR)
		}
	}
	if rs[0].LastRR != rs[1].LastRR {
		t.Fatalf("ranks disagree on global rr: %v vs %v", rs[0].LastRR, rs[1].LastRR)
	}
}

func TestCorrectVersionIsRaceFree(t *testing.T) {
	res, _ := run(t, core.MUSTCuSan, smallCfg(), 2)
	if n := res.TotalRaces(); n != 0 {
		for _, rr := range res.Ranks {
			for _, rep := range rr.Reports {
				t.Logf("rank %d:\n%s", rr.Rank, rep)
			}
		}
		t.Fatalf("correct TeaLeaf flagged with %d races", n)
	}
	if n := res.TotalIssues(); n != 0 {
		t.Fatalf("correct TeaLeaf has %d MUST issues: %v", n, res.Ranks[0].Issues)
	}
}

func TestSkipWaitRaceDetected(t *testing.T) {
	// MPI-to-CUDA: kernel consumes the halo before MPI_Waitall.
	cfg := smallCfg()
	cfg.SkipWait = true
	res, _ := run(t, core.MUSTCuSan, cfg, 2)
	if res.TotalRaces() == 0 {
		t.Fatal("matvec-before-Waitall not flagged")
	}
}

func TestSkipSyncRaceDetected(t *testing.T) {
	// CUDA-to-MPI: halo send starts without device synchronization.
	cfg := smallCfg()
	cfg.SkipSync = true
	res, _ := run(t, core.MUSTCuSan, cfg, 2)
	if res.TotalRaces() == 0 {
		t.Fatal("missing deviceSynchronize before Isend not flagged")
	}
}

func TestSkipWaitNeedsBothTools(t *testing.T) {
	// The Irecv-vs-kernel race spans MPI and CUDA semantics: CuSan alone
	// (no MPI model) and MUST alone (no CUDA model) both miss it.
	cfg := smallCfg()
	cfg.SkipWait = true
	for _, flavor := range []core.Flavor{core.CuSan, core.MUST} {
		res, _ := run(t, flavor, cfg, 2)
		if res.TotalRaces() != 0 {
			t.Fatalf("%v alone unexpectedly flagged the hybrid race", flavor)
		}
	}
}

func TestNumericsUnchangedByInstrumentation(t *testing.T) {
	_, van := run(t, core.Vanilla, smallCfg(), 2)
	_, full := run(t, core.MUSTCuSan, smallCfg(), 2)
	if van[0].LastRR != full[0].LastRR {
		// These launches (2304 threads) exceed the serial threshold and
		// run on worker pools; kinterp's fixed atomic summation order
		// (segment partials, see kinterp.Launch) keeps them deterministic.
		t.Fatalf("flavors diverge: %v vs %v", van[0].LastRR, full[0].LastRR)
	}
}

func TestDefaultStreamOnlyCounters(t *testing.T) {
	res, _ := run(t, core.MUSTCuSan, smallCfg(), 2)
	c := res.Ranks[0].CudaCtrs
	if c.Streams != 1 {
		t.Errorf("streams = %d, want 1 (TeaLeaf uses only the default stream)", c.Streams)
	}
	iters := int64(smallCfg().Iters)
	// Per iteration: reset + matvec + dot + 2 axpy + dot + p_update = 7.
	wantKernels := 7*iters + 3 // init: tl_init + reset + first rr dot
	if c.KernelCalls != wantKernels {
		t.Errorf("kernels = %d, want %d", c.KernelCalls, wantKernels)
	}
	// Two dot copies per iteration + the initial rr copy.
	if c.Memcpys != 2*iters+1 {
		t.Errorf("memcpys = %d, want %d", c.Memcpys, 2*iters+1)
	}
	if c.Memsets != 2 {
		t.Errorf("memsets = %d, want 2", c.Memsets)
	}
	// TeaLeaf Table I signature, on CuSan's own counters: HA = memcpys +
	// sync calls exactly ("632 happens-after events which is the number
	// of Memcpy and Synchronization calls"), HB = one arc per device op.
	if c.HAAnnotations != c.Memcpys+c.SyncCalls {
		t.Errorf("CuSan HA = %d, want memcpys+syncs = %d", c.HAAnnotations, c.Memcpys+c.SyncCalls)
	}
	if c.HBAnnotations != c.KernelCalls+c.Memcpys+c.Memsets {
		t.Errorf("CuSan HB = %d, want kernels+memcpys+memsets = %d",
			c.HBAnnotations, c.KernelCalls+c.Memcpys+c.Memsets)
	}
	// Two fiber switches per device operation.
	if c.FiberSwitches != 2*(c.KernelCalls+c.Memcpys+c.Memsets) {
		t.Errorf("CuSan switches = %d, want 2x device ops", c.FiberSwitches)
	}
}

func TestMPIFibersCreatedForNonBlocking(t *testing.T) {
	// "fibers for both non-blocking MPI and CUDA are required" (paper
	// §V-A on TeaLeaf).
	res, _ := run(t, core.MUSTCuSan, smallCfg(), 2)
	ms := res.Ranks[0].MustStats
	if ms.NonBlockingCalls == 0 || ms.FibersCreated == 0 {
		t.Fatalf("non-blocking modeling missing: %+v", ms)
	}
	if ms.FibersCreated > 4 {
		t.Errorf("fiber pool not reusing: %d fibers created", ms.FibersCreated)
	}
	if ms.Completions != ms.NonBlockingCalls {
		t.Errorf("completions %d != non-blocking calls %d", ms.Completions, ms.NonBlockingCalls)
	}
}

func TestFourRanks(t *testing.T) {
	cfg := Config{NX: 32, NY: 64, Iters: 10, K: 0.1}
	res, rs := run(t, core.MUSTCuSan, cfg, 4)
	if res.TotalRaces() != 0 {
		t.Fatalf("4-rank run flagged: %d races", res.TotalRaces())
	}
	for _, r := range rs {
		if r.LastRR >= r.FirstRR {
			t.Fatalf("rank %d did not converge", r.Rank)
		}
	}
}

func TestIndivisibleDomainRejected(t *testing.T) {
	res, err := core.Run(core.Config{Flavor: core.Vanilla, Ranks: 2, Module: Module()},
		func(s *core.Session) error {
			_, err := Run(s, Config{NX: 16, NY: 17, Iters: 1})
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() == nil {
		t.Fatal("expected divisibility error")
	}
}

func BenchmarkTeaLeafVanilla(b *testing.B) {
	cfg := Config{NX: 48, NY: 48, Iters: 10, K: 0.1}
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{Flavor: core.Vanilla, Ranks: 2, Module: Module()},
			func(s *core.Session) error {
				_, err := Run(s, cfg)
				return err
			})
		if err != nil || res.FirstError() != nil {
			b.Fatal(err, res.FirstError())
		}
	}
}

func BenchmarkTeaLeafMustCusan(b *testing.B) {
	cfg := Config{NX: 48, NY: 48, Iters: 10, K: 0.1}
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{Flavor: core.MUSTCuSan, Ranks: 2, Module: Module()},
			func(s *core.Session) error {
				_, err := Run(s, cfg)
				return err
			})
		if err != nil || res.FirstError() != nil {
			b.Fatal(err, res.FirstError())
		}
	}
}

// BenchmarkNativeTeaLeafMatvec times the native tl_matvec kernel alone
// at one rank's share of the benchmark grid (96×96 over two ranks plus
// halo rows: 96×50), on one worker, and reports the cost per grid
// element.
func BenchmarkNativeTeaLeafMatvec(b *testing.B) {
	const nx, rows = 96, 50
	prog, err := kinterp.Compile(Module())
	if err != nil {
		b.Fatal(err)
	}
	eng := kinterp.New(prog, kinterp.Config{Workers: 1})
	if err := RegisterNatives(eng); err != nil {
		b.Fatal(err)
	}
	mem := memspace.New()
	w := mem.Alloc(8*nx*rows, memspace.KindDevice)
	p := mem.Alloc(8*nx*rows, memspace.KindDevice)
	for i := int64(0); i < nx*rows; i++ {
		mem.SetFloat64(p+memspace.Addr(8*i), float64(i%97)/97)
	}
	grid, block := kinterp.Dim2(1, rows), kinterp.Dim2(128, 1)
	args := []kinterp.Arg{kinterp.Ptr(w), kinterp.Ptr(p), kinterp.F64(100), kinterp.Int(nx), kinterp.Int(rows)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Launch("tl_matvec", grid, block, args, mem); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(nx*rows), "ns/element")
}

// TestNativeMatchesInterpreter pins the equivalence of the native
// kernels and their IR definitions end to end.
func TestNativeMatchesInterpreter(t *testing.T) {
	cfg := smallCfg()
	_, native := run(t, core.Vanilla, cfg, 2)
	cfg.Interpreted = true
	_, interp := run(t, core.Vanilla, cfg, 2)
	if native[0].LastRR != interp[0].LastRR || native[0].FirstRR != interp[0].FirstRR {
		t.Fatalf("native %v/%v vs interpreted %v/%v",
			native[0].FirstRR, native[0].LastRR,
			interp[0].FirstRR, interp[0].LastRR)
	}
}

// TestModuleTextRoundTrip mirrors the Jacobi round-trip guard for the
// TeaLeaf kernels.
func TestModuleTextRoundTrip(t *testing.T) {
	m := Module()
	parsed, err := kir.Parse(m.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if parsed.String() != m.String() {
		t.Fatal("reprint differs")
	}
	orig, _ := kaccess.Analyze(m)
	again, _ := kaccess.Analyze(parsed)
	if orig.String() != again.String() {
		t.Fatalf("analysis differs:\n%s\nvs\n%s", orig, again)
	}
}

// TestExactConvergenceStops: at K=1 on 96x96, ||r||^2 reaches exactly 0
// well before 1000 iterations. The solve must stop there, report the
// iterations it performed, and not fail on beta = 0/0.
func TestExactConvergenceStops(t *testing.T) {
	res, rs := run(t, core.MUSTCuSan, Config{NX: 96, NY: 96, Iters: 1000, K: 1}, 2)
	for _, r := range rs {
		if r.Iters <= 0 || r.Iters >= 1000 {
			t.Fatalf("rank %d: iters = %d, want early exact convergence", r.Rank, r.Iters)
		}
		if r.LastRR != 0 {
			t.Fatalf("rank %d: stopped at rr = %v, want exactly 0", r.Rank, r.LastRR)
		}
	}
	if rs[0].Iters != rs[1].Iters {
		t.Fatalf("ranks disagree on iterations: %d vs %d", rs[0].Iters, rs[1].Iters)
	}
	// 3 set-up launches, 7 per full iteration; the last iteration stops
	// before its p update.
	if got, want := res.Ranks[0].CudaCtrs.KernelCalls, int64(3+7*rs[0].Iters-1); got != want {
		t.Fatalf("kernel calls = %d, want %d for %d iterations", got, want, rs[0].Iters)
	}
}

// TestItersReportsPerformedCount: raising the iteration limit past the
// point of exact convergence changes neither the work done nor the
// reported count.
func TestItersReportsPerformedCount(t *testing.T) {
	iters := func(limit int) (int, int64) {
		res, rs := run(t, core.MUSTCuSan, Config{NX: 96, NY: 96, Iters: limit, K: 0.1}, 2)
		return rs[0].Iters, res.Ranks[0].CudaCtrs.KernelCalls
	}
	n1, k1 := iters(1000)
	n2, k2 := iters(2000)
	if n1 >= 1000 || n1 != n2 || k1 != k2 {
		t.Fatalf("limit 1000: %d iters, %d launches; limit 2000: %d iters, %d launches",
			n1, k1, n2, k2)
	}
}
