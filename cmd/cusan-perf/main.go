// cusan-perf is the machine-readable performance harness CLI: it runs
// the named benchmark scenarios for R repeats, emits schema-versioned
// BENCH_<scenario>.json files, diffs fresh runs against committed
// baselines with noise-aware per-metric thresholds, and gates CI on
// confirmed regressions.
//
// Usage:
//
//	cusan-perf record  [-out bench/baselines] [-scenarios a,b] [-repeats N] [-warmup N]
//	cusan-perf compare [-baseline bench/baselines] [-scenarios a,b] [-repeats N] [-warmup N]
//	                   [-rel-tol X] [-mad-mult M] [-strict] [-save dir] [-all]
//	cusan-perf gate    (compare flags) [-retries N]
//	cusan-perf list
//
// Every subcommand accepts -cpuprofile/-memprofile so a flagged
// regression is immediately profilable. Exit codes:
//
//	0  success (gate: no confirmed regression, no canonical drift)
//	1  gate found a confirmed regression or canonical drift
//	2  usage error
//	3  infrastructure error (a scenario could not run, unreadable baseline)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cusango/internal/core"
	"cusango/internal/perf"
)

const (
	exitOK         = 0
	exitRegression = 1
	exitUsage      = 2
	exitError      = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage: cusan-perf <record|compare|gate|list> [flags]
  record   run scenarios and write BENCH_<scenario>.json baselines
  compare  run scenarios fresh and diff against a baseline directory
  gate     like compare, but exit 1 on confirmed regression (auto-retry rejects flukes)
  list     print the scenario catalog
run 'cusan-perf <cmd> -h' for per-command flags`)
	return exitUsage
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "record":
		return cmdRecord(rest)
	case "compare":
		return cmdCompare(rest, false)
	case "gate":
		return cmdCompare(rest, true)
	case "list":
		return cmdList(rest)
	case "version", "-version", "--version":
		fmt.Println(core.VersionLine("cusan-perf"))
		return exitOK
	case "-h", "--help", "help":
		usage()
		return exitOK
	default:
		fmt.Fprintf(os.Stderr, "cusan-perf: unknown command %q\n", cmd)
		return usage()
	}
}

// common registers the flags every measuring subcommand shares.
type common struct {
	scenarios  string
	repeats    int
	warmup     int
	cpuprofile string
	memprofile string
}

func (c *common) register(fs *flag.FlagSet) {
	fs.StringVar(&c.scenarios, "scenarios", "all", "comma-separated scenario names (see 'cusan-perf list')")
	fs.IntVar(&c.repeats, "repeats", 3, "measured repeats per scenario (deterministic scenarios always run once)")
	fs.IntVar(&c.warmup, "warmup", 1, "discarded warmup repeats per scenario")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file")
}

// withProfiles runs body under the pprof hooks and returns its code.
func (c *common) withProfiles(body func() int) int {
	stop, err := perf.StartProfiles(c.cpuprofile, c.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-perf:", err)
		return exitError
	}
	code := body()
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "cusan-perf:", err)
		if code == exitOK {
			code = exitError
		}
	}
	return code
}

func (c *common) runConfig() perf.RunConfig {
	warmup := c.warmup
	if warmup == 0 {
		warmup = -1 // RunConfig uses -1 for "explicitly zero"
	}
	return perf.RunConfig{Repeats: c.repeats, Warmup: warmup}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func cmdRecord(args []string) int {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var c common
	c.register(fs)
	out := fs.String("out", "bench/baselines", "directory to write BENCH_<scenario>.json files into")
	fs.Parse(args)

	scs, err := perf.Select(c.scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-perf:", err)
		return exitUsage
	}
	return c.withProfiles(func() int {
		results, err := perf.RunAll(scs, c.runConfig(), logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cusan-perf:", err)
			return exitError
		}
		for _, sc := range scs {
			path, err := perf.WriteFile(*out, results[sc.Name])
			if err != nil {
				fmt.Fprintln(os.Stderr, "cusan-perf:", err)
				return exitError
			}
			fmt.Println("wrote", path)
		}
		return exitOK
	})
}

func cmdCompare(args []string, gate bool) int {
	name := "compare"
	if gate {
		name = "gate"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var c common
	c.register(fs)
	baseline := fs.String("baseline", "bench/baselines", "baseline directory")
	relTol := fs.Float64("rel-tol", 0, "override every gated metric's relative tolerance (0 = per-metric)")
	madMult := fs.Float64("mad-mult", -1, "override every gated metric's MAD multiplier (<0 = per-metric)")
	strict := fs.Bool("strict", false, "also gate absolute time/rate metrics (same-machine baselines only)")
	save := fs.String("save", "", "write the fresh run's BENCH files into this directory (CI artifact)")
	all := fs.Bool("all", false, "print every metric delta, not just the notable ones")
	retries := 1
	if gate {
		fs.IntVar(&retries, "retries", 1, "confirmation passes per regressed scenario (fluke rejection)")
	}
	fs.Parse(args)

	scs, err := perf.Select(c.scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-perf:", err)
		return exitUsage
	}
	base, err := perf.ReadDir(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-perf:", err)
		return exitError
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "cusan-perf: no BENCH_*.json baselines in %s\n", *baseline)
		return exitError
	}
	copt := perf.CompareOptions{RelTol: *relTol, MADMult: *madMult, Strict: *strict}

	return c.withProfiles(func() int {
		if !gate {
			results, err := perf.RunAll(scs, c.runConfig(), logf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cusan-perf:", err)
				return exitError
			}
			if code := saveResults(*save, scs, results); code != exitOK {
				return code
			}
			cmp := perf.Compare(base, results, copt)
			printComparison(os.Stdout, cmp, *all)
			return exitOK
		}

		outcome, err := perf.Gate(base, scs, perf.GateOptions{
			Run: c.runConfig(), Cmp: copt, Retries: retries,
		}, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cusan-perf:", err)
			return exitError
		}
		if code := saveResults(*save, scs, outcome.Results); code != exitOK {
			return code
		}
		printComparison(os.Stdout, outcome.First, *all)
		for _, d := range outcome.Flukes {
			fmt.Printf("fluke (retry cleared): %s/%s\n", d.Scenario, d.Metric)
		}
		for _, d := range outcome.Confirmed {
			fmt.Printf("CONFIRMED %s\n", d)
		}
		if !outcome.Pass() {
			fmt.Printf("gate: FAIL (%d confirmed regression(s), %d canonical drift(s))\n",
				len(outcome.Confirmed), len(outcome.Drifts))
			return exitRegression
		}
		fmt.Println("gate: PASS")
		return exitOK
	})
}

func saveResults(dir string, scs []perf.Scenario, results map[string]*perf.Result) int {
	if dir == "" {
		return exitOK
	}
	for _, sc := range scs {
		if r := results[sc.Name]; r != nil {
			if _, err := perf.WriteFile(dir, r); err != nil {
				fmt.Fprintln(os.Stderr, "cusan-perf:", err)
				return exitError
			}
		}
	}
	return exitOK
}

// printComparison renders the delta table: regressions and drift
// always, everything else under -all (plus a one-line tally).
func printComparison(w io.Writer, cmp *perf.Comparison, all bool) {
	counts := map[string]int{}
	for _, d := range cmp.Deltas {
		counts[d.Status]++
		if all || (d.Status != perf.StatusOK) {
			fmt.Fprintln(w, d)
		}
	}
	for _, d := range cmp.Drifts {
		fmt.Fprintf(w, "DRIFT %s: %s\n", d.Scenario, d.Detail)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "compare:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, counts[k])
	}
	fmt.Fprintf(w, " drift=%d\n", len(cmp.Drifts))
}

func cmdList(args []string) int {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also list each scenario's metrics")
	fs.Parse(args)
	for _, sc := range perf.Scenarios() {
		det := ""
		if sc.Deterministic {
			det = " [deterministic]"
		}
		fmt.Printf("%-18s %s%s\n", sc.Name, sc.Doc, det)
		if *verbose {
			fmt.Printf("%18s   params: %s\n", "", sc.Params)
			for _, m := range sc.Metrics {
				gate := "gated"
				if m.Trend {
					gate = "trend"
				} else if m.Class == perf.ClassTime || m.Class == perf.ClassRate {
					gate = "strict-only"
				}
				fmt.Printf("%18s   %-26s %-8s %-6s better=%s (%s)\n",
					"", m.Name, m.Unit, m.Class, m.Better, gate)
			}
		}
	}
	return exitOK
}
