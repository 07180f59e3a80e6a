package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"cusango/internal/apps/jacobi"
	"cusango/internal/apps/tealeaf"
	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/kir"
	"cusango/internal/trace"
)

// appSpec is what the jacobi-check and tealeaf-cg workloads need to know
// about their app.
type appSpec struct {
	name   string
	ranks  int
	iters  int // the measured run's iteration count
	module func() *kir.Module
	// run executes the app on one rank for iters iterations and returns
	// its (first, last) residual; racy selects the app's injected bug
	// and its short-run geometry.
	run func(s *core.Session, racy bool, iters int) (first, last float64, err error)
	// reference computes the serial reference at set-up; checkNumerics
	// then judges a measured run's residuals against it.
	reference     func()
	checkNumerics func(first, last float64) error
	// kernelCalls and memcpys are the closed-form per-rank counts.
	kernelCalls func(iters int) int64
	memcpys     func(iters int) int64
	// seeded runs the seed-dependent short checks after the timed rounds.
	seeded func(e *env, a *appSpec) error

	mod *kir.Module // built at set-up
}

func jacobiSpec(sz sizes) *appSpec {
	cfg := jacobi.Config{NX: sz.jacobiNX, NY: sz.jacobiNY, Iters: sz.jacobiIters}
	var refFirst, refLast float64
	return &appSpec{
		name: "jacobi", ranks: 2, iters: cfg.Iters, module: jacobi.Module,
		run: func(s *core.Session, racy bool, iters int) (float64, float64, error) {
			c := cfg
			c.Iters, c.SkipSync = iters, racy
			if racy {
				c.NX, c.NY = sz.racyNX, sz.racyNY
			}
			r, err := jacobi.Run(s, c)
			if err != nil {
				return 0, 0, err
			}
			return r.FirstNorm, r.LastNorm, nil
		},
		reference: func() { refFirst, refLast = jacobiRef(cfg.NX, cfg.NY, cfg.Iters) },
		checkNumerics: func(first, last float64) error {
			return checkJacobiResidual(first, last, refFirst, refLast)
		},
		kernelCalls: jacobiKernelCalls,
		memcpys:     jacobiMemcpys,
		seeded: func(e *env, a *appSpec) error {
			return checkRacyVariant(e, a, 3+int(e.seed%8))
		},
	}
}

func tealeafSpec(sz sizes) *appSpec {
	cfg := tealeaf.Config{NX: sz.tealeafNX, NY: sz.tealeafNY, Iters: sz.tealeafIters, K: sz.tealeafK}
	const ranks = 2
	hot := hotCells(cfg.NX, cfg.NY, ranks)
	return &appSpec{
		name: "tealeaf", ranks: ranks, iters: cfg.Iters, module: tealeaf.Module,
		run: func(s *core.Session, racy bool, iters int) (float64, float64, error) {
			c := cfg
			c.Iters, c.SkipWait = iters, racy
			r, err := tealeaf.Run(s, c)
			if err != nil {
				return 0, 0, err
			}
			return r.FirstRR, r.LastRR, nil
		},
		// The measured solve is checked against properties CG must have
		// (exact first ‖r‖², every iteration performed, finite positive
		// last ‖r‖²); the serial CG is compared on a short solve below.
		reference: func() {},
		checkNumerics: func(first, last float64) error {
			return checkTealeafResidual(first, last, hot)
		},
		kernelCalls: tealeafKernelCalls,
		memcpys:     tealeafMemcpys,
		seeded: func(e *env, a *appSpec) error {
			// A short solve at a seed-chosen iteration count, where ‖r‖²
			// is still far above rounding, must agree with the serial CG.
			iters := sz.shortCGMin + int(e.seed%uint64(sz.shortCGSpan))
			got, err := runFlavor(e, a, core.Vanilla, false, iters, 0, "short-solve")
			if err != nil {
				return err
			}
			refFirst, refLast := cgRef(cfg.NX, cfg.NY, ranks, iters, cfg.K)
			if err := checkAgainstCG(got.first, got.last, refFirst, refLast); err != nil {
				return fmt.Errorf("tealeaf short solve (%d iters): %w", iters, err)
			}
			return checkRacyVariant(e, a, 2+int(e.seed%4))
		},
	}
}

// flavorRun is one app run's outcome.
type flavorRun struct {
	wall        time.Duration
	first, last float64
	res         *core.Result
}

// runFlavor runs the app once under flavor. A run error, a rank error,
// or ranks that disagree on the global residual is an error.
func runFlavor(e *env, a *appSpec, flavor core.Flavor, racy bool, iters, parent int, label string) (*flavorRun, error) {
	firsts := make([]float64, a.ranks)
	lasts := make([]float64, a.ranks)
	sp := e.tr.begin(label, parent)
	t0 := time.Now()
	res, err := core.Run(core.Config{Flavor: flavor, Ranks: a.ranks, Module: a.mod}, func(s *core.Session) error {
		f, l, err := a.run(s, racy, iters)
		firsts[s.Rank()], lasts[s.Rank()] = f, l
		return err
	})
	wall := time.Since(t0)
	e.tr.end(sp)
	if err == nil {
		err = res.FirstError()
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s run: %w", a.name, flavor, err)
	}
	for r := 1; r < a.ranks; r++ {
		if math.Float64bits(firsts[r]) != math.Float64bits(firsts[0]) ||
			math.Float64bits(lasts[r]) != math.Float64bits(lasts[0]) {
			return nil, fmt.Errorf("%s %s run: ranks disagree on the global residual", a.name, flavor)
		}
	}
	return &flavorRun{wall: wall, first: firsts[0], last: lasts[0], res: res}, nil
}

// recordTraces runs the app once with per-rank trace recording and
// returns the encoded traces. Recording is flavor-independent, so the
// uninstrumented flavor records the event stream the checker sees.
func recordTraces(a *appSpec, racy bool, iters int) ([][]byte, error) {
	bufs := make([]*bytes.Buffer, a.ranks)
	writers := make([]*trace.Writer, a.ranks)
	res, err := core.Run(core.Config{
		Flavor: core.Vanilla, Ranks: a.ranks, Module: a.mod,
		Trace: func(rank int) *trace.Writer {
			bufs[rank] = new(bytes.Buffer)
			writers[rank] = trace.NewWriter(bufs[rank], trace.Header{Rank: rank, WorldSize: a.ranks, Label: a.name})
			return writers[rank]
		},
	}, func(s *core.Session) error {
		_, _, err := a.run(s, racy, iters)
		return err
	})
	if err == nil {
		err = res.FirstError()
	}
	if err != nil {
		return nil, fmt.Errorf("%s record: %w", a.name, err)
	}
	out := make([][]byte, a.ranks)
	for r := range bufs {
		if n := writers[r].Dropped(); n > 0 {
			return nil, fmt.Errorf("%s record: rank %d dropped %d events", a.name, r, n)
		}
		out[r] = bufs[r].Bytes()
	}
	return out, nil
}

func decodeAll(blobs [][]byte) ([]*trace.Trace, error) {
	trs := make([]*trace.Trace, len(blobs))
	for r, b := range blobs {
		tr, err := trace.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("decode rank %d: %w", r, err)
		}
		trs[r] = tr
	}
	return trs, nil
}

// replayAll replays every rank's trace, one rank after the other.
func replayAll(trs []*trace.Trace, opts cusan.Options) ([]*trace.ReplayResult, error) {
	out := make([]*trace.ReplayResult, len(trs))
	for r, tr := range trs {
		rr, err := trace.Replay(tr, trace.ReplayConfig{CusanOpts: opts})
		if err != nil {
			return nil, fmt.Errorf("replay rank %d: %w", r, err)
		}
		out[r] = rr
	}
	return out, nil
}

// checkRacyVariant runs the app's injected bug for a few iterations and
// requires the live checker and the replay of the recorded traces to
// flag it.
func checkRacyVariant(e *env, a *appSpec, iters int) error {
	live, err := runFlavor(e, a, core.MUSTCuSan, true, iters, 0, "racy-variant")
	if err != nil {
		return err
	}
	blobs, err := recordTraces(a, true, iters)
	if err != nil {
		return err
	}
	trs, err := decodeAll(blobs)
	if err != nil {
		return err
	}
	reps, err := replayAll(trs, cusan.Options{})
	if err != nil {
		return err
	}
	var replayed int64
	for _, r := range reps {
		replayed += r.Races
	}
	return checkRacyFlagged(a.name, live.res.TotalRaces(), replayed)
}
