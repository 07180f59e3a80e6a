package perf

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"cusango/internal/apps/halo2d"
	"cusango/internal/apps/jacobi"
	"cusango/internal/apps/tealeaf"
	"cusango/internal/bench"
	"cusango/internal/campaign"
	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/kir"
	"cusango/internal/kstatic"
	"cusango/internal/memspace"
	"cusango/internal/testsuite"
	"cusango/internal/trace"
	"cusango/internal/tsan"
)

// The scenario catalog. Workload sizes come from bench.ReducedConfig
// so one knob controls the perf harness and the top-level benchmarks;
// iteration counts below are fixed constants because adaptive looping
// would make the canonical counter snapshots nondeterministic.

// Range-engine sweep shape: a Jacobi-scale kernel-argument annotation,
// iterated per engine. Iteration counts differ per engine so each loop
// runs long enough to time while the deterministic counter snapshot
// (taken from the batched run only) stays fixed.
const (
	reRangeBytes   = 64 << 10
	reItersBatched = 8192
	reItersSlow    = 512
)

// Scenarios returns the full catalog in canonical order.
func Scenarios() []Scenario {
	scs := []Scenario{
		rangeEngineScenario(),
		campaignWorkersScenario(),
		traceThroughputScenario(),
		staticAnalysisScenario(),
	}
	for _, app := range []bench.App{bench.Jacobi, bench.TeaLeaf, bench.Halo2D} {
		scs = append(scs, fig10Scenario(app))
	}
	for _, app := range []bench.App{bench.Jacobi, bench.TeaLeaf, bench.Halo2D} {
		scs = append(scs, fig11Scenario(app))
	}
	scs = append(scs, fig12Scenario())
	for _, app := range []bench.App{bench.Jacobi, bench.TeaLeaf} {
		scs = append(scs, table1Scenario(app))
	}
	return scs
}

// Select resolves a comma-separated scenario list ("" or "all" = every
// scenario).
func Select(csv string) ([]Scenario, error) {
	all := Scenarios()
	if csv == "" || csv == "all" {
		return all, nil
	}
	var out []Scenario
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		sc, ok := lookupIn(all, name)
		if !ok {
			return nil, fmt.Errorf("perf: unknown scenario %q", name)
		}
		out = append(out, sc)
	}
	return out, nil
}

func appName(app bench.App) string { return strings.ToLower(app.String()) }

// --- range-engine ---------------------------------------------------------

func rangeEngineScenario() Scenario {
	return Scenario{
		Name: "range-engine",
		Doc:  "shadow-range annotation hot path: batched run walk vs reference walk",
		Params: fmt.Sprintf("range=%dB iters=%d/%d cells=default",
			reRangeBytes, reItersBatched, reItersSlow),
		Metrics: []MetricSpec{
			{Name: "batched_ns_op", Unit: "ns/op", Class: ClassTime, Better: BetterLower},
			{Name: "slow_ns_op", Unit: "ns/op", Class: ClassTime, Better: BetterLower},
			// The headline engine win: the run walk against the
			// granule-at-a-time reference walk.
			{Name: "walk_speedup_vs_slow", Unit: "x", Class: ClassRatio, Better: BetterHigher, RelTol: 0.30, MADMult: 4},
		},
		Run: func() (map[string]float64, *cusan.Counters, error) {
			run := func(cfg tsan.Config, iters int) (float64, tsan.Stats) {
				s := tsan.New(cfg)
				info := &tsan.AccessInfo{Site: "perf range-engine", Object: "arg 0"}
				addr := memspace.Addr(3 << 40)
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					s.WriteRange(addr, reRangeBytes, info)
				}
				return float64(time.Since(t0).Nanoseconds()) / float64(iters), s.Stats()
			}
			batched, bst := run(tsan.Config{}, reItersBatched)
			slow, _ := run(tsan.Config{Engine: tsan.EngineSlow}, reItersSlow)
			if batched <= 0 || slow <= 0 {
				return nil, nil, fmt.Errorf("non-positive timing sample")
			}
			ctrs := cusan.CountersFromStats(bst)
			return map[string]float64{
				"batched_ns_op":        batched,
				"slow_ns_op":           slow,
				"walk_speedup_vs_slow": slow / batched,
			}, &ctrs, nil
		},
	}
}

// --- campaign-workers -----------------------------------------------------

func campaignWorkersScenario() Scenario {
	const chaosSeeds = 2
	const chaosRate = 0.05
	parallel := runtime.NumCPU()
	if parallel > 8 {
		parallel = 8
	}
	if parallel < 2 {
		parallel = 2
	}
	return Scenario{
		Name: "campaign-workers",
		Doc:  "campaign scheduler: dispatch overhead at 1 worker, scaling at N",
		// parallel worker count is volatile (machine-dependent) so it
		// must NOT appear in Params; the gated metrics don't depend on it.
		Params: fmt.Sprintf("kind=chaos seeds=%d rate=%.2f engines=batched", chaosSeeds, chaosRate),
		Metrics: []MetricSpec{
			{Name: "serial_wall_s", Unit: "s", Class: ClassTime, Better: BetterLower},
			{Name: "parallel_wall_s", Unit: "s", Class: ClassTime, Better: BetterLower},
			// Scheduler cost: campaign.Run at 1 worker vs a bare loop
			// over the same jobs. ~1.0x when the dispatch layer is free.
			{Name: "dispatch_overhead", Unit: "x", Class: ClassRatio, Better: BetterLower, RelTol: 0.50, MADMult: 5},
			// Speedup tracks the runner's core count, not the code —
			// trend-only.
			{Name: "parallel_speedup", Unit: "x", Class: ClassRatio, Better: BetterHigher, Trend: true},
			{Name: "parallel_jobs_per_s", Unit: "jobs/s", Class: ClassRate, Better: BetterHigher},
		},
		Run: func() (map[string]float64, *cusan.Counters, error) {
			seeds := make([]uint64, chaosSeeds)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			jobs := testsuite.ChaosJobs(testsuite.Cases(), seeds, chaosRate,
				[]tsan.Engine{tsan.EngineBatched})
			t0 := time.Now()
			for _, j := range jobs {
				if r := testsuite.ExecuteJob(j); r == nil || r.Verdict != campaign.VerdictPass {
					return nil, nil, fmt.Errorf("chaos job %s not clean", j.Identity())
				}
			}
			plainWall := time.Since(t0)
			serial := campaign.Run(jobs, testsuite.ExecuteJob, campaign.Options{Workers: 1})
			par := campaign.Run(jobs, testsuite.ExecuteJob, campaign.Options{Workers: parallel})
			for _, rep := range []*campaign.Report{serial, par} {
				if pass, fail, errs := rep.Counts(); fail+errs > 0 {
					return nil, nil, fmt.Errorf("campaign workload not clean: pass=%d fail=%d error=%d",
						pass, fail, errs)
				}
			}
			return map[string]float64{
				"serial_wall_s":       serial.Wall.Seconds(),
				"parallel_wall_s":     par.Wall.Seconds(),
				"dispatch_overhead":   serial.Wall.Seconds() / plainWall.Seconds(),
				"parallel_speedup":    serial.Wall.Seconds() / par.Wall.Seconds(),
				"parallel_jobs_per_s": par.JobsPerSecond(),
			}, nil, nil
		},
	}
}

// --- trace-throughput -----------------------------------------------------

func traceThroughputScenario() Scenario {
	hcfg := bench.ReducedConfig().Halo2DCfg
	return Scenario{
		Name: "trace-throughput",
		Doc:  "event-trace record and offline replay throughput (halo2d under the full tool)",
		Params: fmt.Sprintf("app=halo2d nx=%d ny=%d iters=%d ranks=2 flavor=mustcusan",
			hcfg.NX, hcfg.NY, hcfg.Iters),
		Metrics: []MetricSpec{
			// Event totals are deterministic; byte totals wobble by a
			// few varint widths because event timestamps are wall-clock
			// deltas — hence the tolerance instead of exactness.
			{Name: "trace_events", Unit: "events", Class: ClassCount, Better: BetterLower},
			{Name: "trace_bytes", Unit: "B", Class: ClassBytes, Better: BetterLower, RelTol: 0.10, MADMult: 3},
			{Name: "bytes_per_event", Unit: "B/event", Class: ClassBytes, Better: BetterLower, RelTol: 0.10, MADMult: 3},
			{Name: "record_overhead", Unit: "x", Class: ClassRatio, Better: BetterLower},
			{Name: "record_events_per_s", Unit: "events/s", Class: ClassRate, Better: BetterHigher},
			{Name: "replay_events_per_s", Unit: "events/s", Class: ClassRate, Better: BetterHigher},
		},
		Run: func() (map[string]float64, *cusan.Counters, error) {
			run := func(traced bool) (time.Duration, [][]byte, *cusan.Counters, error) {
				const ranks = 2
				bufs := make([]*bytes.Buffer, ranks)
				ccfg := core.Config{
					Flavor: core.MUSTCuSan, Ranks: ranks, Module: halo2d.AppModule(),
				}
				if traced {
					ccfg.Trace = func(rank int) *trace.Writer {
						bufs[rank] = &bytes.Buffer{}
						return trace.NewWriter(bufs[rank], trace.Header{
							Rank: rank, WorldSize: ranks, Label: "perf trace-throughput",
						})
					}
				}
				t0 := time.Now()
				res, err := core.Run(ccfg, func(s *core.Session) error {
					_, err := halo2d.Run(s, hcfg)
					return err
				})
				wall := time.Since(t0)
				if err == nil {
					err = res.FirstError()
				}
				if err != nil {
					return 0, nil, nil, err
				}
				blobs := make([][]byte, ranks)
				for i, b := range bufs {
					if b != nil {
						blobs[i] = b.Bytes()
					}
				}
				ctrs := res.Ranks[0].CudaCtrs
				return wall, blobs, &ctrs, nil
			}
			plainWall, _, _, err := run(false)
			if err != nil {
				return nil, nil, err
			}
			tracedWall, blobs, ctrs, err := run(true)
			if err != nil {
				return nil, nil, err
			}
			var events, bytesTotal int64
			traces := make([]*trace.Trace, 0, len(blobs))
			for rank, blob := range blobs {
				tr, err := trace.Decode(blob)
				if err != nil {
					return nil, nil, fmt.Errorf("decode rank %d: %w", rank, err)
				}
				events += int64(len(tr.Events))
				bytesTotal += int64(len(blob))
				traces = append(traces, tr)
			}
			if events == 0 {
				return nil, nil, fmt.Errorf("recorded no events")
			}
			t0 := time.Now()
			for rank, tr := range traces {
				if _, err := trace.Replay(tr, trace.ReplayConfig{}); err != nil {
					return nil, nil, fmt.Errorf("replay rank %d: %w", rank, err)
				}
			}
			replayWall := time.Since(t0)
			return map[string]float64{
				"trace_events":        float64(events),
				"trace_bytes":         float64(bytesTotal),
				"bytes_per_event":     float64(bytesTotal) / float64(events),
				"record_overhead":     tracedWall.Seconds() / plainWall.Seconds(),
				"record_events_per_s": float64(events) / tracedWall.Seconds(),
				"replay_events_per_s": float64(events) / replayWall.Seconds(),
			}, ctrs, nil
		},
	}
}

// --- static-analysis ------------------------------------------------------

// Static race-checker workload: the four registered modules (suite +
// apps) plus a deterministic batch of generated kernels — the same
// population the differential tests sweep. Verdict counts are exact;
// the timing loop re-analyzes the whole population a fixed number of
// times so the per-kernel figure is a median over real work.
const (
	saGenModules  = 64
	saStaticIters = 16
)

func staticAnalysisScenario() Scenario {
	return Scenario{
		Name: "static-analysis",
		Doc:  "static intra-kernel race checker: per-kernel analysis cost vs the dynamic oracle",
		Params: fmt.Sprintf("modules=suite,jacobi,tealeaf,halo2d gen=%d iters=%d",
			saGenModules, saStaticIters),
		Metrics: []MetricSpec{
			// The verdict census over a fixed population is exact: any
			// drift is an analysis precision change, not noise.
			{Name: "kernels", Unit: "kernels", Class: ClassCount, Better: BetterHigher},
			{Name: "racefree", Unit: "kernels", Class: ClassCount, Better: BetterHigher},
			{Name: "races", Unit: "kernels", Class: ClassCount, Better: BetterLower},
			{Name: "unknown", Unit: "kernels", Class: ClassCount, Better: BetterLower},
			// Acceptance bar: sub-millisecond median per-kernel analysis.
			{Name: "static_us_per_kernel", Unit: "us/kernel", Class: ClassTime, Better: BetterLower},
			{Name: "oracle_us_per_kernel", Unit: "us/kernel", Class: ClassTime, Better: BetterLower},
			{Name: "static_speedup_vs_oracle", Unit: "x", Class: ClassRatio, Better: BetterHigher, RelTol: 0.80, MADMult: 5},
		},
		Run: func() (map[string]float64, *cusan.Counters, error) {
			mods := []*kir.Module{
				testsuite.Module(), jacobi.Module(), tealeaf.Module(), halo2d.AppModule(),
			}
			for seed := uint64(1); seed <= saGenModules; seed++ {
				mods = append(mods, kstatic.GenModule(seed))
			}
			var kernels, racefree, races, unknown int
			t0 := time.Now()
			for i := 0; i < saStaticIters; i++ {
				kernels, racefree, races, unknown = 0, 0, 0, 0
				for _, m := range mods {
					rep, err := kstatic.Analyze(m)
					if err != nil {
						return nil, nil, err
					}
					for _, kr := range rep.Kernels {
						kernels++
						switch kr.Verdict {
						case kstatic.VerdictRaceFree:
							racefree++
						case kstatic.VerdictRace:
							races++
						default:
							unknown++
						}
					}
				}
			}
			staticWall := time.Since(t0)
			if kernels == 0 {
				return nil, nil, fmt.Errorf("no kernels analyzed")
			}
			t0 = time.Now()
			for _, m := range mods {
				for _, f := range m.Kernels() {
					if _, err := kstatic.RunOracle(m, f.Name); err != nil {
						return nil, nil, fmt.Errorf("oracle %s: %w", f.Name, err)
					}
				}
			}
			oracleWall := time.Since(t0)
			staticUS := float64(staticWall.Microseconds()) / float64(saStaticIters*kernels)
			oracleUS := float64(oracleWall.Microseconds()) / float64(kernels)
			if staticUS <= 0 || oracleUS <= 0 {
				return nil, nil, fmt.Errorf("non-positive timing sample")
			}
			return map[string]float64{
				"kernels":                  float64(kernels),
				"racefree":                 float64(racefree),
				"races":                    float64(races),
				"unknown":                  float64(unknown),
				"static_us_per_kernel":     staticUS,
				"oracle_us_per_kernel":     oracleUS,
				"static_speedup_vs_oracle": oracleUS / staticUS,
			}, nil, nil
		},
	}
}

// --- fig10 (runtime overhead) ---------------------------------------------

var overheadFlavors = []core.Flavor{core.TSan, core.MUST, core.CuSan, core.MUSTCuSan}

func fig10Scenario(app bench.App) Scenario {
	cfg := bench.ReducedConfig()
	name := appName(app)
	specs := []MetricSpec{
		{Name: "vanilla_wall_s", Unit: "s", Class: ClassTime, Better: BetterLower},
	}
	for _, fl := range overheadFlavors {
		specs = append(specs, MetricSpec{
			Name: "rel_" + strings.ToLower(fl.String()), Unit: "x",
			Class: ClassRatio, Better: BetterLower, RelTol: 0.40, MADMult: 4,
		})
	}
	return Scenario{
		Name:    "fig10-" + name,
		Doc:     "relative runtime overhead per flavor (paper Fig. 10 shape)",
		Params:  appParams(app, cfg),
		Metrics: specs,
		Run: func() (map[string]float64, *cusan.Counters, error) {
			base, err := bench.Measure(app, core.Vanilla, cfg, cusan.Options{})
			if err != nil {
				return nil, nil, err
			}
			vals := map[string]float64{"vanilla_wall_s": base.Wall.Seconds()}
			var ctrs *cusan.Counters
			for _, fl := range overheadFlavors {
				m, err := bench.Measure(app, fl, cfg, cusan.Options{})
				if err != nil {
					return nil, nil, err
				}
				vals["rel_"+strings.ToLower(fl.String())] = m.Wall.Seconds() / base.Wall.Seconds()
				if fl == core.MUSTCuSan {
					c := m.Result.Ranks[0].CudaCtrs
					ctrs = &c
				}
			}
			return vals, ctrs, nil
		},
	}
}

// --- fig11 (memory overhead, deterministic) -------------------------------

func fig11Scenario(app bench.App) Scenario {
	cfg := bench.ReducedConfig()
	name := appName(app)
	specs := []MetricSpec{
		{Name: "rss_vanilla_mb", Unit: "MB", Class: ClassBytes, Better: BetterLower},
	}
	for _, fl := range overheadFlavors {
		specs = append(specs, MetricSpec{
			Name: "relmem_" + strings.ToLower(fl.String()), Unit: "x",
			Class: ClassRatio, Better: BetterLower, RelTol: 0.005, MADMult: 0,
		})
	}
	return Scenario{
		Name:          "fig11-" + name,
		Doc:           "relative modeled-RSS overhead per flavor (paper Fig. 11; deterministic)",
		Params:        appParams(app, cfg),
		Metrics:       specs,
		Deterministic: true,
		Run: func() (map[string]float64, *cusan.Counters, error) {
			base, err := bench.Measure(app, core.Vanilla, cfg, cusan.Options{})
			if err != nil {
				return nil, nil, err
			}
			vals := map[string]float64{"rss_vanilla_mb": float64(base.RSS) / (1 << 20)}
			var ctrs *cusan.Counters
			for _, fl := range overheadFlavors {
				m, err := bench.Measure(app, fl, cfg, cusan.Options{})
				if err != nil {
					return nil, nil, err
				}
				vals["relmem_"+strings.ToLower(fl.String())] = float64(m.RSS) / float64(base.RSS)
				if fl == core.MUSTCuSan {
					c := m.Result.Ranks[0].CudaCtrs
					ctrs = &c
				}
			}
			return vals, ctrs, nil
		},
	}
}

// --- fig12 (Jacobi domain scaling) ----------------------------------------

func fig12Scenario() Scenario {
	cfg := bench.ReducedConfig()
	sizes := cfg.Fig12Sizes
	var specs []MetricSpec
	for _, size := range sizes {
		tag := fmt.Sprintf("%dx%d", size[0], size[1])
		specs = append(specs,
			MetricSpec{Name: "rel_" + tag, Unit: "x", Class: ClassRatio, Better: BetterLower, RelTol: 0.40, MADMult: 4},
			MetricSpec{Name: "tracked_write_mb_" + tag, Unit: "MB", Class: ClassBytes, Better: BetterLower},
		)
	}
	return Scenario{
		Name:    "fig12-jacobi",
		Doc:     "Jacobi domain-size scaling: CuSan overhead and tracked bytes (paper Fig. 12)",
		Params:  fmt.Sprintf("sizes=%v iters=%d ranks=%d", sizes, cfg.JacobiCfg.Iters, cfg.Ranks),
		Metrics: specs,
		Run: func() (map[string]float64, *cusan.Counters, error) {
			vals := map[string]float64{}
			var ctrs *cusan.Counters
			for _, size := range sizes {
				scfg := cfg
				scfg.JacobiCfg.NX, scfg.JacobiCfg.NY = size[0], size[1]
				base, err := bench.Measure(bench.Jacobi, core.Vanilla, scfg, cusan.Options{})
				if err != nil {
					return nil, nil, err
				}
				m, err := bench.Measure(bench.Jacobi, core.CuSan, scfg, cusan.Options{})
				if err != nil {
					return nil, nil, err
				}
				var writeB int64
				for i := range m.Result.Ranks {
					writeB += m.Result.Ranks[i].CudaCtrs.WriteBytes
				}
				tag := fmt.Sprintf("%dx%d", size[0], size[1])
				vals["rel_"+tag] = m.Wall.Seconds() / base.Wall.Seconds()
				vals["tracked_write_mb_"+tag] = float64(writeB) / (1 << 20)
				c := m.Result.Ranks[0].CudaCtrs
				ctrs = &c
			}
			return vals, ctrs, nil
		},
	}
}

// --- table1 (event counters, deterministic) -------------------------------

func table1Scenario(app bench.App) Scenario {
	cfg := bench.ReducedConfig()
	name := appName(app)
	count := func(n string) MetricSpec {
		return MetricSpec{Name: n, Unit: "events", Class: ClassCount, Better: BetterLower}
	}
	return Scenario{
		Name:   "table1-" + name,
		Doc:    "CUDA/TSan event counters per MPI process (paper Table I; deterministic)",
		Params: appParams(app, cfg),
		Metrics: []MetricSpec{
			count("memcpys"), count("memsets"), count("sync_calls"), count("kernel_calls"),
			count("fiber_switches"), count("hb_annotations"), count("ha_annotations"),
			count("read_ranges"), count("write_ranges"),
			{Name: "avg_read_kb", Unit: "KB", Class: ClassCount, Better: BetterLower},
			{Name: "avg_write_kb", Unit: "KB", Class: ClassCount, Better: BetterLower},
		},
		Deterministic: true,
		Run: func() (map[string]float64, *cusan.Counters, error) {
			m, err := bench.Measure(app, core.MUSTCuSan, cfg, cusan.Options{})
			if err != nil {
				return nil, nil, err
			}
			c := m.Result.Ranks[0].CudaCtrs
			return map[string]float64{
				"memcpys":        float64(c.Memcpys),
				"memsets":        float64(c.Memsets),
				"sync_calls":     float64(c.SyncCalls),
				"kernel_calls":   float64(c.KernelCalls),
				"fiber_switches": float64(c.FiberSwitches),
				"hb_annotations": float64(c.HBAnnotations),
				"ha_annotations": float64(c.HAAnnotations),
				"read_ranges":    float64(c.ReadRanges),
				"write_ranges":   float64(c.WriteRanges),
				"avg_read_kb":    c.AvgReadKB(),
				"avg_write_kb":   c.AvgWriteKB(),
			}, &c, nil
		},
	}
}

// appParams renders the canonical workload line for an app scenario.
func appParams(app bench.App, cfg bench.Config) string {
	switch app {
	case bench.Jacobi:
		return fmt.Sprintf("app=jacobi nx=%d ny=%d iters=%d ranks=%d",
			cfg.JacobiCfg.NX, cfg.JacobiCfg.NY, cfg.JacobiCfg.Iters, cfg.Ranks)
	case bench.TeaLeaf:
		return fmt.Sprintf("app=tealeaf nx=%d ny=%d iters=%d ranks=%d",
			cfg.TeaLeafCfg.NX, cfg.TeaLeafCfg.NY, cfg.TeaLeafCfg.Iters, cfg.Ranks)
	default:
		return fmt.Sprintf("app=halo2d nx=%d ny=%d iters=%d ranks=%d",
			cfg.Halo2DCfg.NX, cfg.Halo2DCfg.NY, cfg.Halo2DCfg.Iters, cfg.Ranks)
	}
}
