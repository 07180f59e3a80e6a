// cusan-run executes a mini-app under a chosen instrumentation flavor
// and prints race reports, MUST findings, and the runtime event counters
// — the "make jacobi-run" / "make tealeaf-run" analog of the paper's
// artifact.
//
// Usage:
//
//	cusan-run [-app jacobi|tealeaf|halo2d]
//	          [-flavor vanilla|tsan|must|cusan|must+cusan]
//	          [-engine fast|slow] [-ranks N] [-nx N] [-ny N] [-iters N]
//	          [-inject-race] [-skip-wait] [-faults spec] [-max-steps N]
//	          [-timeout d] [-explore] [-explore-budget N] [-explore-bound N]
//	          [-schedule spec]
//
// -faults injects deterministic runtime faults (see internal/faults):
// "seed=7,rate=0.05" perturbs every site at 5%, "cuda-malloc@2:r1"
// fails exactly the third cudaMalloc on rank 1. Every injected fault
// is reported with a replay spec that re-injects it exactly. The
// sched-stall site ("sched-stall@0:r1") wedges a rank forever and only
// fires when named explicitly; combine it with -timeout so the run
// terminates (-max-steps cannot catch a blocked rank — it meters
// started operations, not elapsed time).
//
// -max-steps caps the run's logical steps — MPI operations started per
// rank on free runs, controller decisions under -explore/-schedule —
// and tears the job down deterministically when exceeded. -timeout is
// the wall-clock watchdog: when it fires the MPI world is torn down
// and every rank reports an abort naming only the configured deadline,
// so a wedged run ends with deterministic output. They are the
// supervision primitives behind `cusan-campaign -max-steps/-timeout`.
//
// -explore runs the app under the controlled scheduler (internal/sched)
// and systematically enumerates its completion schedules with DPOR
// pruning (internal/explore): the verdict is either "race-free across
// all N schedules" or a minimal racy schedule spec that -schedule
// replays byte-identically. -explore-bound caps non-default choices per
// schedule (preemption bounding); bounded or budget-capped explorations
// report themselves incomplete.
//
// Exit codes:
//
//	0  clean run, no findings
//	1  race reports or MUST findings
//	2  usage error (bad flags, unknown app, malformed -faults spec)
//	3  application fault (a rank failed — e.g. an injected fault)
//	4  tool degraded (a checker crash was contained; verdict partial)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cusango/internal/apps"
	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/explore"
	"cusango/internal/faults"
	"cusango/internal/sched"
	"cusango/internal/tsan"
)

// Exit codes. Precedence when several apply: usage > app fault >
// degraded > race > clean — a partial verdict must not masquerade as
// a definitive one.
const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
	exitAppFault = 3
	exitDegraded = 4
)

func main() {
	appName := flag.String("app", "jacobi",
		"mini-app: "+strings.Join(apps.Names(), ", "))
	flavorName := flag.String("flavor", "must+cusan", "instrumentation flavor")
	engineName := flag.String("engine", "fast",
		"shadow engine: fast (batched run engine, the default) or slow (granule-at-a-time reference oracle)")
	ranks := flag.Int("ranks", 2, "MPI world size")
	nx := flag.Int("nx", 0, "global NX (0 = app default)")
	ny := flag.Int("ny", 0, "global NY (0 = app default)")
	iters := flag.Int("iters", 0, "iterations (0 = app default)")
	injectRace := flag.Bool("inject-race", false,
		"inject the app's primary race (the paper's Fig. 4 bug)")
	skipWait := flag.Bool("skip-wait", false,
		"tealeaf only: use the halo before MPI_Waitall (MPI-to-CUDA bug)")
	faultSpec := flag.String("faults", "",
		"deterministic fault schedule, e.g. \"seed=7,rate=0.05\" or \"cuda-malloc@2:r1\"")
	maxSteps := flag.Int64("max-steps", 0,
		"logical step budget: per-rank MPI ops, or controller decisions under -explore (0 = unlimited)")
	timeout := flag.Duration("timeout", 0,
		"wall-clock watchdog: tear the run down after this long (0 = none)")
	exploreFlag := flag.Bool("explore", false,
		"systematically explore completion schedules (controlled scheduler + DPOR)")
	exploreBudget := flag.Int("explore-budget", 512,
		"-explore: max schedules to execute (0 = unlimited)")
	exploreBound := flag.Int("explore-bound", 0,
		"-explore: preemption bound — max non-default choices per schedule (0 = unbounded)")
	scheduleSpec := flag.String("schedule", "",
		"replay one completion schedule from its spec (e.g. \"g1.m0\"); runs controlled")
	version := flag.Bool("version", false, "print build identification and exit")
	flag.Parse()

	if *version {
		fmt.Println(core.VersionLine("cusan-run"))
		os.Exit(exitClean)
	}

	flavor, err := core.ParseFlavor(*flavorName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	engine, err := tsan.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	app, err := apps.Get(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-run:", err)
		os.Exit(exitUsage)
	}
	plan, err := faults.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-run:", err)
		os.Exit(exitUsage)
	}

	opt := apps.Options{
		NX: *nx, NY: *ny, Iters: *iters,
		InjectRace: *injectRace, SkipWait: *skipWait,
	}
	if *maxSteps < 0 || *timeout < 0 {
		fmt.Fprintln(os.Stderr, "cusan-run: -max-steps and -timeout must be >= 0")
		os.Exit(exitUsage)
	}
	cfg := core.Config{
		Flavor:   flavor,
		Ranks:    *ranks,
		Module:   app.Module(),
		Faults:   plan,
		MaxSteps: *maxSteps,
	}
	cfg.TSanCfg.Engine = engine
	if *timeout > 0 {
		// The cause names only the configured deadline, never elapsed
		// time, so a watchdog teardown prints identically on every run.
		ctx, cancel := context.WithTimeoutCause(context.Background(), *timeout,
			fmt.Errorf("watchdog: run exceeded the %s deadline", *timeout))
		defer cancel()
		cfg.Ctx = ctx
	}

	if *exploreFlag || *scheduleSpec != "" {
		if plan != nil {
			fmt.Fprintln(os.Stderr, "cusan-run: -faults cannot combine with -explore/-schedule (schedule determinism)")
			os.Exit(exitUsage)
		}
		os.Exit(runControlled(cfg, app, opt, *scheduleSpec, *exploreBudget, *exploreBound, *maxSteps))
	}
	res, err := core.Run(cfg, func(s *core.Session) error {
		line, err := app.Run(s, opt)
		if err != nil {
			return err
		}
		if s.Rank() == 0 {
			fmt.Println(line)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-run:", err)
		os.Exit(exitUsage)
	}

	exit := exitClean
	appFault, degraded := false, false
	for i := range res.Ranks {
		rr := &res.Ranks[i]
		for _, rep := range rr.Reports {
			fmt.Printf("[rank %d] %s\n", rr.Rank, rep)
			exit = exitFindings
		}
		for _, is := range rr.Issues {
			fmt.Printf("[rank %d] %s\n", rr.Rank, is)
			exit = exitFindings
		}
		for _, f := range rr.Injected {
			fmt.Printf("[rank %d] injected %s occurrence %d (replay: -faults %q)\n",
				rr.Rank, f.Site, f.Occurrence, f.Spec())
		}
		if d := rr.Degraded; d != nil {
			degraded = true
			fmt.Fprintf(os.Stderr, "cusan-run: checker degraded: %s\n", d)
		}
		if rr.Err != nil {
			appFault = true
			fmt.Fprintf(os.Stderr, "cusan-run: rank %d: %v\n", rr.Rank, rr.Err)
		}
	}
	if flavor.HasCuSan() {
		fmt.Printf("\nCuSan event counters, rank 0 (Table I format):\n%s",
			formatCounters(res.Ranks[0].CudaCtrs))
	}
	if res.TotalRaces() == 0 && res.TotalIssues() == 0 {
		fmt.Println("no races or findings reported")
	}
	// Precedence: an app fault trumps a degraded verdict trumps findings
	// — a run that died or lost its checker cannot vouch for "clean".
	switch {
	case appFault:
		exit = exitAppFault
	case degraded:
		exit = exitDegraded
	}
	os.Exit(exit)
}

// runControlled handles -explore and -schedule: the app runs under the
// controlled scheduler, either replaying one schedule spec or
// enumerating the whole schedule space.
func runControlled(cfg core.Config, app apps.App, opt apps.Options, spec string, budget, bound int, maxSteps int64) int {
	runOne := func(prefix []sched.Choice) explore.Outcome {
		rep := sched.NewReplayer(prefix)
		ctl := sched.NewController(cfg.Ranks, rep)
		if maxSteps > 0 {
			ctl.SetStepBudget(int(maxSteps))
		}
		c := cfg
		c.Sched = ctl
		// Controlled runs meter decisions, not per-rank ops: the decision
		// log is the schedule identity, so the budget must be a pure
		// function of it.
		c.MaxSteps = 0
		res, err := core.Run(c, func(s *core.Session) error {
			_, err := app.Run(s, opt)
			return err
		})
		out := explore.Outcome{
			Log:    ctl.Log(),
			Acts:   ctl.Acts(),
			Forced: ctl.Forced(),
			Stuck:  ctl.Stuck(),
			Budget: ctl.BudgetHit(),
		}
		switch {
		case err != nil:
			out.Err = err
		case rep.Err() != nil:
			out.Err = rep.Err()
		case out.Stuck || out.Budget:
			// The controller tore this schedule down deliberately (proven
			// deadlock or step budget); rank errors are the teardown.
		default:
			if res != nil {
				out.Err = res.FirstError()
			}
		}
		if res != nil {
			out.Races = res.TotalRaces()
		}
		return out
	}

	if spec != "" {
		prefix, err := sched.ParseSpec(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cusan-run:", err)
			return exitUsage
		}
		out := runOne(prefix)
		fmt.Printf("schedule %s: races=%d stuck=%v budget=%v\n",
			sched.FormatSpec(out.Log), out.Races, out.Stuck, out.Budget)
		switch {
		case out.Err != nil:
			fmt.Fprintln(os.Stderr, "cusan-run:", out.Err)
			return exitAppFault
		case out.Races > 0 || out.Stuck:
			return exitFindings
		}
		return exitClean
	}

	res := explore.Run(explore.Options{MaxSchedules: budget, PreemptionBound: bound}, runOne)
	fmt.Printf("%s -ranks %d: %s\n", app.Name, cfg.Ranks, res.String())
	if res.Stuck > 0 {
		fmt.Printf("  %d schedule(s) deadlocked\n", res.Stuck)
	}
	if res.Budgeted > 0 {
		fmt.Printf("  %d schedule(s) cut short by -max-steps %d\n", res.Budgeted, maxSteps)
	}
	if res.MinRacySpec != "" {
		fmt.Printf("  replay the minimal racy schedule: cusan-run -app %s -ranks %d -schedule %q\n",
			app.Name, cfg.Ranks, res.MinRacySpec)
	}
	for _, e := range res.Errs {
		fmt.Fprintln(os.Stderr, "cusan-run:", e)
	}
	switch {
	case len(res.Errs) > 0:
		return exitAppFault
	case res.Racy > 0 || res.Stuck > 0:
		return exitFindings
	}
	return exitClean
}

// formatCounters renders the per-process counter block.
func formatCounters(c cusan.Counters) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  Stream                 %8d\n", c.Streams)
	fmt.Fprintf(&b, "  Memset                 %8d\n", c.Memsets)
	fmt.Fprintf(&b, "  Memcpy                 %8d\n", c.Memcpys)
	fmt.Fprintf(&b, "  Synchronization calls  %8d\n", c.SyncCalls)
	fmt.Fprintf(&b, "  Kernel calls           %8d\n", c.KernelCalls)
	fmt.Fprintf(&b, "  Switch To Fiber        %8d\n", c.FiberSwitches)
	fmt.Fprintf(&b, "  AnnotateHappensBefore  %8d\n", c.HBAnnotations)
	fmt.Fprintf(&b, "  AnnotateHappensAfter   %8d\n", c.HAAnnotations)
	fmt.Fprintf(&b, "  Read/Write Ranges      %8d/%d (avg %.2f/%.2f KB)\n",
		c.ReadRanges, c.WriteRanges, c.AvgReadKB(), c.AvgWriteKB())
	return b.String()
}
