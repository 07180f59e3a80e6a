// cusan-bench regenerates the paper's evaluation tables and figures
// (Fig. 10, Fig. 11, Table I, Fig. 12, plus the §V-B/§VI-D ablations)
// against the simulated substrate.
//
// Usage:
//
//	cusan-bench [-experiment all|fig10|fig11|table1|fig12|ablation|cells|engine|campaign]
//	            [-app jacobi,tealeaf,halo2d] [-engine batched|slow]
//	            [-runs N] [-warmup N] [-ranks N]
//	            [-cpuprofile f] [-memprofile f]
//	            [-jacobi-nx N] [-jacobi-ny N] [-jacobi-iters N]
//	            [-tealeaf-nx N] [-tealeaf-ny N] [-tealeaf-iters N]
//	            [-halo2d-nx N] [-halo2d-ny N] [-halo2d-iters N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cusango/internal/bench"
	"cusango/internal/core"
	"cusango/internal/perf"
	"cusango/internal/tsan"
)

// main routes every exit through run so the pprof stop hook always
// fires — a profile of a failing experiment is the point.
func main() {
	os.Exit(run())
}

func run() int {
	cfg := bench.DefaultConfig()
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, fig10, fig11, table1, fig12, ablation, cells, engine, campaign")
	appList := flag.String("app", "",
		"comma-separated apps for the overhead experiments: jacobi, tealeaf, halo2d (default: the paper's pair)")
	engineName := flag.String("engine", "",
		"shadow-range engine for all measurements: batched (default; run-length shadow, one race check per run of equal granules) or slow (granule-at-a-time reference walk, the differential oracle)")
	flag.IntVar(&cfg.Runs, "runs", cfg.Runs, "measured runs per data point")
	flag.IntVar(&cfg.Warmup, "warmup", cfg.Warmup, "warmup runs per data point")
	flag.IntVar(&cfg.Ranks, "ranks", cfg.Ranks, "MPI world size")
	flag.IntVar(&cfg.JacobiCfg.NX, "jacobi-nx", cfg.JacobiCfg.NX, "Jacobi global NX")
	flag.IntVar(&cfg.JacobiCfg.NY, "jacobi-ny", cfg.JacobiCfg.NY, "Jacobi global NY")
	flag.IntVar(&cfg.JacobiCfg.Iters, "jacobi-iters", cfg.JacobiCfg.Iters, "Jacobi iterations")
	flag.IntVar(&cfg.TeaLeafCfg.NX, "tealeaf-nx", cfg.TeaLeafCfg.NX, "TeaLeaf global NX")
	flag.IntVar(&cfg.TeaLeafCfg.NY, "tealeaf-ny", cfg.TeaLeafCfg.NY, "TeaLeaf global NY")
	flag.IntVar(&cfg.TeaLeafCfg.Iters, "tealeaf-iters", cfg.TeaLeafCfg.Iters, "TeaLeaf CG iterations")
	flag.IntVar(&cfg.Halo2DCfg.NX, "halo2d-nx", cfg.Halo2DCfg.NX, "Halo2D global NX")
	flag.IntVar(&cfg.Halo2DCfg.NY, "halo2d-ny", cfg.Halo2DCfg.NY, "Halo2D global NY")
	flag.IntVar(&cfg.Halo2DCfg.Iters, "halo2d-iters", cfg.Halo2DCfg.Iters, "Halo2D iterations")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	version := flag.Bool("version", false, "print build identification and exit")
	flag.Parse()

	if *version {
		fmt.Println(core.VersionLine("cusan-bench"))
		return 0
	}

	eng, err := tsan.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cusan-bench: %v\n", err)
		return 2
	}
	cfg.TSanCfg.Engine = eng

	if *appList != "" {
		cfg.Apps = nil
		for _, name := range strings.Split(*appList, ",") {
			app, err := bench.ParseApp(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cusan-bench: %v\n", err)
				return 2
			}
			cfg.Apps = append(cfg.Apps, app)
		}
	}

	stop, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cusan-bench: %v\n", err)
		return 3
	}
	code := runExperiments(cfg, *experiment)
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "cusan-bench: %v\n", err)
		if code == 0 {
			code = 3
		}
	}
	return code
}

func runExperiments(cfg bench.Config, experiment string) int {

	type exp struct {
		name string
		run  func(bench.Config) (*bench.Table, error)
	}
	all := []exp{
		{"fig10", bench.Fig10},
		{"fig11", bench.Fig11},
		{"table1", bench.Table1},
		{"fig12", bench.Fig12},
		{"ablation", bench.Ablation},
		{"cells", bench.CellsAblation},
		{"engine", bench.EngineAblation},
		{"campaign", bench.CampaignScaling},
	}
	ran := false
	for _, e := range all {
		if experiment != "all" && experiment != e.name {
			continue
		}
		ran = true
		tab, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cusan-bench: %s: %v\n", e.name, err)
			return 1
		}
		tab.Render(os.Stdout)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "cusan-bench: unknown experiment %q\n", experiment)
		return 2
	}
	return 0
}
