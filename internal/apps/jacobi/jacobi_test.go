package jacobi

import (
	"math"
	"testing"

	"cusango/internal/core"
	"cusango/internal/cuda"
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
	return Config{NX: 64, NY: 32, Iters: 30}
}

func TestConvergesVanilla(t *testing.T) {
	_, rs := run(t, core.Vanilla, smallCfg(), 2)
	for _, r := range rs {
		if r.LastNorm <= 0 || math.IsNaN(r.LastNorm) {
			t.Fatalf("rank %d: bad norm %v", r.Rank, r.LastNorm)
		}
		if r.LastNorm >= r.FirstNorm {
			t.Fatalf("rank %d: residual did not decrease: %v -> %v",
				r.Rank, r.FirstNorm, r.LastNorm)
		}
	}
	// Allreduce makes all ranks agree on the global norm.
	if rs[0].LastNorm != rs[1].LastNorm {
		t.Fatalf("ranks disagree: %v vs %v", rs[0].LastNorm, rs[1].LastNorm)
	}
}

func TestSameResultAcrossFlavors(t *testing.T) {
	// Instrumentation must not change the numerics.
	_, van := run(t, core.Vanilla, smallCfg(), 2)
	_, full := run(t, core.MUSTCuSan, smallCfg(), 2)
	if math.Abs(van[0].LastNorm-full[0].LastNorm) > 1e-12 {
		t.Fatalf("flavors diverge: vanilla %v vs must+cusan %v",
			van[0].LastNorm, full[0].LastNorm)
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
		t.Fatalf("correct Jacobi flagged with %d races", n)
	}
	if n := res.TotalIssues(); n != 0 {
		t.Fatalf("correct Jacobi has %d MUST issues: %v", n, res.Ranks[0].Issues)
	}
}

func TestRacyVersionIsDetected(t *testing.T) {
	cfg := smallCfg()
	cfg.SkipSync = true
	res, _ := run(t, core.MUSTCuSan, cfg, 2)
	if res.TotalRaces() == 0 {
		t.Fatal("missing-sync Jacobi not flagged")
	}
}

func TestRacyVersionInvisibleToMUSTAlone(t *testing.T) {
	// The CUDA-to-MPI race needs CuSan's CUDA model: MUST alone (blocking
	// MPI annotations only) cannot see the kernel side.
	cfg := smallCfg()
	cfg.SkipSync = true
	res, _ := run(t, core.MUST, cfg, 2)
	if res.TotalRaces() != 0 {
		t.Fatalf("MUST alone should miss the CUDA-side race, got %d", res.TotalRaces())
	}
}

func TestSingleRank(t *testing.T) {
	cfg := Config{NX: 32, NY: 16, Iters: 10}
	res, rs := run(t, core.MUSTCuSan, cfg, 1)
	if res.TotalRaces() != 0 {
		t.Fatalf("1-rank run flagged: %d", res.TotalRaces())
	}
	if rs[0].LastNorm >= rs[0].FirstNorm {
		t.Fatal("1-rank run did not converge")
	}
}

func TestFourRanks(t *testing.T) {
	cfg := Config{NX: 64, NY: 64, Iters: 20}
	res, rs := run(t, core.MUSTCuSan, cfg, 4)
	if res.TotalRaces() != 0 {
		t.Fatalf("4-rank run flagged: %d races\n%v", res.TotalRaces(), res.Ranks[1].Reports)
	}
	for _, r := range rs {
		if r.LastNorm >= r.FirstNorm {
			t.Fatalf("rank %d did not converge", r.Rank)
		}
	}
}

func TestIndivisibleDomainRejected(t *testing.T) {
	cfg := Config{NX: 32, NY: 31, Iters: 1}
	res, err := core.Run(core.Config{Flavor: core.Vanilla, Ranks: 2, Module: Module()},
		func(s *core.Session) error {
			_, err := Run(s, cfg)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestTableICounterShape(t *testing.T) {
	// Counter structure per rank: kernels = 2/iter + 2 init,
	// memcpys = 1/iter, memsets = 2, streams = 2 (default + compute),
	// syncs = deviceSync(1/iter + 2) + memcpy-induced? (memcpy sync is
	// counted under memcpys; SyncCalls counts explicit calls only).
	cfg := smallCfg()
	res, _ := run(t, core.MUSTCuSan, cfg, 2)
	c := res.Ranks[0].CudaCtrs
	iters := int64(cfg.Iters)
	if c.KernelCalls != 2*iters+2 {
		t.Errorf("kernels = %d, want %d", c.KernelCalls, 2*iters+2)
	}
	if c.Memcpys != iters {
		t.Errorf("memcpys = %d, want %d", c.Memcpys, iters)
	}
	if c.Memsets != 2 {
		t.Errorf("memsets = %d, want 2", c.Memsets)
	}
	if c.Streams != 2 {
		t.Errorf("streams = %d, want 2", c.Streams)
	}
	// streamSync per iteration + deviceSync at init and teardown.
	if c.SyncCalls != iters+2 {
		t.Errorf("syncs = %d, want %d", c.SyncCalls, iters+2)
	}
	// The paper's Table I algebra: one happens-before arc per device
	// operation (kernels + memcpys + memsets)...
	wantHB := c.KernelCalls + c.Memcpys + c.Memsets
	st0 := res.Ranks[0].TSanStats
	if st0.HappensBefore != wantHB {
		t.Errorf("HB = %d, want kernels+memcpys+memsets = %d", st0.HappensBefore, wantHB)
	}
	// ...and happens-after from synchronization calls (1 per stream
	// sync; the init deviceSync sees 1 stream, the final one 2) plus
	// host-syncing memcpys.
	wantHA := (c.SyncCalls - 2) + 1 + 2 + c.Memcpys
	if st0.HappensAfter != wantHA {
		t.Errorf("HA = %d, want syncs+memcpys = %d", st0.HappensAfter, wantHA)
	}
	st := res.Ranks[0].TSanStats
	if st.FiberSwitches == 0 || st.HappensBefore == 0 || st.HappensAfter == 0 {
		t.Errorf("tsan stats empty: %+v", st)
	}
	// The paper's Table I signature: more happens-before than
	// happens-after events (default-stream ops release to peers).
	if st.HappensBefore <= st.HappensAfter {
		t.Errorf("HB (%d) should exceed HA (%d)", st.HappensBefore, st.HappensAfter)
	}
}

func BenchmarkJacobiVanilla(b *testing.B) {
	cfg := Config{NX: 128, NY: 64, Iters: 20}
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

func BenchmarkJacobiMustCusan(b *testing.B) {
	cfg := Config{NX: 128, NY: 64, Iters: 20}
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

// BenchmarkNativeJacobiStep times the native jacobi_step kernel alone
// at one rank's share of the paper-default grid (512×256 over two ranks
// plus halo rows: 512×130), on one worker, and reports the cost per grid
// element. It locates a device-side change that the end-to-end app
// benchmarks are too noisy to resolve.
func BenchmarkNativeJacobiStep(b *testing.B) {
	const nx, rows = 512, 130
	prog, err := kinterp.Compile(Module())
	if err != nil {
		b.Fatal(err)
	}
	eng := kinterp.New(prog, kinterp.Config{Workers: 1})
	if err := RegisterNatives(eng); err != nil {
		b.Fatal(err)
	}
	mem := memspace.New()
	out := mem.Alloc(8*nx*rows, memspace.KindDevice)
	in := mem.Alloc(8*nx*rows, memspace.KindDevice)
	norm := mem.Alloc(8, memspace.KindDevice)
	for i := int64(0); i < nx*rows; i++ {
		mem.SetFloat64(in+memspace.Addr(8*i), float64(i%97)/97)
	}
	grid, block := kinterp.Dim2(nx/128, rows), kinterp.Dim2(128, 1)
	args := []kinterp.Arg{kinterp.Ptr(out), kinterp.Ptr(in), kinterp.Ptr(norm), kinterp.Int(nx), kinterp.Int(rows)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Launch("jacobi_step", grid, block, args, mem); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(nx*rows), "ns/element")
}

// TestNativeMatchesInterpreter pins the equivalence of the native
// ("compiled") kernels and their IR definitions: the solver must produce
// bit-identical residuals in both execution modes.
func TestNativeMatchesInterpreter(t *testing.T) {
	cfg := smallCfg()
	_, native := run(t, core.Vanilla, cfg, 2)
	cfg.Interpreted = true
	_, interp := run(t, core.Vanilla, cfg, 2)
	if native[0].LastNorm != interp[0].LastNorm || native[0].FirstNorm != interp[0].FirstNorm {
		t.Fatalf("native %v/%v vs interpreted %v/%v",
			native[0].FirstNorm, native[0].LastNorm,
			interp[0].FirstNorm, interp[0].LastNorm)
	}
}

// TestAsyncDeviceMode runs the solver with genuinely asynchronous stream
// execution (cuda.Config.AsyncStreams): a correctly synchronized program
// must produce the same residuals as the eager mode.
func TestAsyncDeviceMode(t *testing.T) {
	cfg := smallCfg()
	results := make([]*Result, 2)
	res, err := core.Run(core.Config{
		Flavor: core.MUSTCuSan,
		Ranks:  2,
		Module: Module(),
		Cuda:   cuda.Config{AsyncStreams: true},
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
	if res.TotalRaces() != 0 {
		t.Fatalf("correct program flagged under async mode: %d", res.TotalRaces())
	}
	_, eager := run(t, core.MUSTCuSan, cfg, 2)
	if results[0].LastNorm != eager[0].LastNorm {
		t.Fatalf("async %v != eager %v", results[0].LastNorm, eager[0].LastNorm)
	}
}

// TestModuleTextRoundTrip guards the IR text format against the real app
// kernels: parse(print(Module())) must preserve both the compiler
// analysis results and the printed form.
func TestModuleTextRoundTrip(t *testing.T) {
	m := Module()
	parsed, err := kir.Parse(m.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if parsed.String() != m.String() {
		t.Fatal("reprint differs")
	}
	orig, err := kaccess.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	again, err := kaccess.Analyze(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if orig.String() != again.String() {
		t.Fatalf("analysis differs:\n%s\nvs\n%s", orig, again)
	}
}
