package cusango_test

// Top-level benchmarks: one testing.B target per table/figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// benchmark executes the corresponding harness experiment once per
// iteration on reduced models; cmd/cusan-bench runs the full-size
// defaults and prints the formatted tables.

import (
	"testing"

	"cusango/internal/apps/jacobi"
	"cusango/internal/apps/tealeaf"
	"cusango/internal/bench"
	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/memspace"
	"cusango/internal/tsan"
)

func benchConfig() bench.Config {
	return bench.Config{
		Ranks:      2,
		Runs:       1,
		Warmup:     0,
		JacobiCfg:  jacobi.Config{NX: 128, NY: 64, Iters: 50},
		TeaLeafCfg: tealeaf.Config{NX: 48, NY: 48, Iters: 20, K: 0.1},
		Fig12Sizes: [][2]int{{32, 16}, {64, 32}, {128, 64}},
	}
}

// BenchmarkFig10RuntimeOverhead regenerates the Fig. 10 measurement.
func BenchmarkFig10RuntimeOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11MemoryOverhead regenerates the Fig. 11 measurement.
func BenchmarkFig11MemoryOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1EventCounters regenerates the Table I counters.
func BenchmarkTable1EventCounters(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12JacobiScaling regenerates the domain-size sweep.
func BenchmarkFig12JacobiScaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMemoryTracking regenerates the §V-B ablation.
func BenchmarkAblationMemoryTracking(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeEngine measures the shadow-range annotation hot path in
// isolation: a 64 KiB WriteRange (the Jacobi-scale kernel-argument
// annotation) against the batched run engine and the granule-at-a-time
// reference walk. The acceptance bar for the batched engine is >= 2x
// the reference throughput on this shape with the default K=2 cells.
func BenchmarkRangeEngine(b *testing.B) {
	const rangeBytes = 64 << 10
	variants := []struct {
		name string
		cfg  tsan.Config
	}{
		{"batched", tsan.Config{}},
		{"slow", tsan.Config{Engine: tsan.EngineSlow}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			s := tsan.New(v.cfg)
			info := &tsan.AccessInfo{Site: "kernel bench", Object: "arg 0"}
			addr := memspace.Addr(3 << 40)
			b.SetBytes(rangeBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WriteRange(addr, rangeBytes, info)
			}
		})
	}
}

// Per-flavor single-app benchmarks (the raw data points behind Fig. 10),
// useful for profiling the tool stack.

func benchmarkApp(b *testing.B, app bench.App, flavor core.Flavor) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Measure(app, flavor, cfg, cusan.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiVanilla(b *testing.B)   { benchmarkApp(b, bench.Jacobi, core.Vanilla) }
func BenchmarkJacobiTSan(b *testing.B)      { benchmarkApp(b, bench.Jacobi, core.TSan) }
func BenchmarkJacobiMUST(b *testing.B)      { benchmarkApp(b, bench.Jacobi, core.MUST) }
func BenchmarkJacobiCuSan(b *testing.B)     { benchmarkApp(b, bench.Jacobi, core.CuSan) }
func BenchmarkJacobiMUSTCuSan(b *testing.B) { benchmarkApp(b, bench.Jacobi, core.MUSTCuSan) }

func BenchmarkTeaLeafVanilla(b *testing.B)   { benchmarkApp(b, bench.TeaLeaf, core.Vanilla) }
func BenchmarkTeaLeafTSan(b *testing.B)      { benchmarkApp(b, bench.TeaLeaf, core.TSan) }
func BenchmarkTeaLeafMUST(b *testing.B)      { benchmarkApp(b, bench.TeaLeaf, core.MUST) }
func BenchmarkTeaLeafCuSan(b *testing.B)     { benchmarkApp(b, bench.TeaLeaf, core.CuSan) }
func BenchmarkTeaLeafMUSTCuSan(b *testing.B) { benchmarkApp(b, bench.TeaLeaf, core.MUSTCuSan) }
