package main

import (
	"fmt"
	"math"

	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/trace"
)

// Output checks. Every timed pass is judged by these before its time is
// kept; each returns nil or an error naming what differs.

// residualTol is the relative tolerance between a distributed residual
// and the serial one. Both sum the same per-cell terms, computed with the
// same operations in the same order, so they differ only by summation
// order: far below 1e-10 relative for the grids used here.
const residualTol = 1e-10

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func checkJacobiResidual(first, last, refFirst, refLast float64) error {
	if d := relDiff(first, refFirst); !(d <= residualTol) {
		return fmt.Errorf("jacobi first residual %.17g, serial reference %.17g (rel diff %.3g)", first, refFirst, d)
	}
	if d := relDiff(last, refLast); !(d <= residualTol) {
		return fmt.Errorf("jacobi last residual %.17g, serial reference %.17g (rel diff %.3g)", last, refLast, d)
	}
	return nil
}

// checkTealeafResidual: the first ‖r‖² is ‖b‖² = 10² per hot cell,
// exactly (sums of 100.0 are exact); the last must be finite and
// positive (a run that underflowed to 0 or diverged is wrong).
func checkTealeafResidual(first, last float64, hot int) error {
	if want := 100 * float64(hot); first != want {
		return fmt.Errorf("tealeaf first ||r||^2 %.17g, want 100 x %d hot cells = %g", first, hot, want)
	}
	if math.IsNaN(last) || math.IsInf(last, 0) || !(last > 0) {
		return fmt.Errorf("tealeaf last ||r||^2 %g is not finite and positive", last)
	}
	return nil
}

// checkAgainstCG compares a short distributed solve with the serial CG.
func checkAgainstCG(first, last, refFirst, refLast float64) error {
	if d := relDiff(first, refFirst); !(d <= residualTol) {
		return fmt.Errorf("first ||r||^2 %.17g, serial CG %.17g (rel diff %.3g)", first, refFirst, d)
	}
	if d := relDiff(last, refLast); !(d <= 1e-8) {
		return fmt.Errorf("last ||r||^2 %.17g, serial CG %.17g (rel diff %.3g)", last, refLast, d)
	}
	return nil
}

// checkBitIdentical: instrumentation must not change the numerics.
func checkBitIdentical(vanilla, checked *flavorRun) error {
	if math.Float64bits(vanilla.first) != math.Float64bits(checked.first) ||
		math.Float64bits(vanilla.last) != math.Float64bits(checked.last) {
		return fmt.Errorf("uninstrumented residuals (%x, %x) differ from full-tool (%x, %x)",
			math.Float64bits(vanilla.first), math.Float64bits(vanilla.last),
			math.Float64bits(checked.first), math.Float64bits(checked.last))
	}
	return nil
}

// checkCleanRun: a correct app under the full tool reports no race and
// no MUST issue, and each rank's counters match the closed form.
func checkCleanRun(res *core.Result, kernelCalls, memcpys int64) error {
	if n := res.TotalRaces(); n != 0 {
		return fmt.Errorf("full-tool run reported %d race(s) on a correct program", n)
	}
	if n := res.TotalIssues(); n != 0 {
		return fmt.Errorf("full-tool run reported %d MUST issue(s) on a correct program", n)
	}
	for _, rr := range res.Ranks {
		if got := rr.CudaCtrs.KernelCalls; got != kernelCalls {
			return fmt.Errorf("rank %d: %d kernel calls, closed form says %d", rr.Rank, got, kernelCalls)
		}
		if got := rr.CudaCtrs.Memcpys; got != memcpys {
			return fmt.Errorf("rank %d: %d memcpys, closed form says %d", rr.Rank, got, memcpys)
		}
	}
	return nil
}

// checkReplay: the replay of a correct run is clean too, and its Table I
// counters equal the live run's, rank by rank.
func checkReplay(live *core.Result, reps []*trace.ReplayResult) error {
	if len(reps) != len(live.Ranks) {
		return fmt.Errorf("replayed %d ranks, live run had %d", len(reps), len(live.Ranks))
	}
	if err := checkReplayClean(reps); err != nil {
		return err
	}
	for r, rep := range reps {
		if got, want := tableI(rep.Counters), tableI(live.Ranks[r].CudaCtrs); got != want {
			return fmt.Errorf("rank %d: replay Table I counters %+v differ from live %+v", r, got, want)
		}
	}
	return nil
}

// checkReplayClean: the replay of a correct run reports nothing.
func checkReplayClean(reps []*trace.ReplayResult) error {
	for r, rep := range reps {
		if rep.Races != 0 || len(rep.Issues) != 0 {
			return fmt.Errorf("replay of rank %d reported %d race(s), %d issue(s) on a correct program",
				r, rep.Races, len(rep.Issues))
		}
	}
	return nil
}

// tableICounters are the paper's Table I rows.
type tableICounters struct {
	Streams, Memsets, Memcpys, SyncCalls, KernelCalls          int64
	FiberSwitches, HBAnnotations, HAAnnotations                int64
	ReadRanges, WriteRanges, ReadBytes, WriteBytes, ExtentMiss int64
}

func tableI(c cusan.Counters) tableICounters {
	return tableICounters{
		c.Streams, c.Memsets, c.Memcpys, c.SyncCalls, c.KernelCalls,
		c.FiberSwitches, c.HBAnnotations, c.HAAnnotations,
		c.ReadRanges, c.WriteRanges, c.ReadBytes, c.WriteBytes, c.ExtentMisses,
	}
}

// checkRacyFlagged: the injected bug must be reported live and on replay.
func checkRacyFlagged(app string, live, replayed int64) error {
	if live == 0 {
		return fmt.Errorf("%s racy variant: live checker reported no race", app)
	}
	if replayed == 0 {
		return fmt.Errorf("%s racy variant: replay reported no race", app)
	}
	return nil
}
