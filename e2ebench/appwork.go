package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/trace"
)

// runApp is the jacobi-check and tealeaf-cg workload. Set-up builds the
// module and records and decodes the app's traces; the serial reference
// is computed after it, so set-up time is the program's alone. A
// verification round then runs the app uninstrumented,
// under the full tool (MUST & CuSan) and as a replay of its traces, and
// checks every output; it doubles as the warm-up. Measured rounds follow
// until e.seconds have passed. Untraced, a round is one full-tool run,
// checked before its time is kept. Traced, a round runs every mode: the
// three above, the TSan, MUST and CuSan flavors, and a replay without
// memory tracking.
func runApp(e *env, o *outcome, a *appSpec) {
	st, err := setupApp(e, a, o.layer)
	if !o.op(err) {
		return
	}
	e.setupDone(o, time.Now())
	sp := e.tr.begin("reference", 0)
	a.reference()
	e.tr.end(sp)

	ref, ok := verifyRound(e, o, a, st)
	if !ok {
		return
	}
	times := map[string][]float64{}
	start := time.Now()
	for round := 0; round < e.sz.minRounds || time.Since(start) < e.seconds; round++ {
		if !measuredRound(e, o, a, st, ref, times, round) {
			return
		}
	}
	if !o.op(a.seeded(e, a)) {
		return
	}

	o.e2e.set("check_s", median(times["core.check"]), "s")
	if e.tr == nil {
		return
	}
	l := o.layer
	for _, name := range []string{"core.vanilla", "core.check", "core.tsan", "core.must", "core.cusan",
		"replay.replay", "replay.sync_only"} {
		l.set(name+"_s", median(times[name]), "s")
	}
	ranges := median(times["replay.replay"]) - median(times["replay.sync_only"])
	l.set("replay.ranges_s", ranges, "s")
	if g := l["tsan.granules"].Value; g > 0 {
		l.set("tsan.ns_per_granule", ranges*1e9/g, "ns")
	}
}

// verified is what the verification round established and the measured
// rounds compare against.
type verified struct {
	vanilla *flavorRun // the uninstrumented residuals
	check   *flavorRun // the full-tool run, with its counters
}

// verifyRound runs every mode once and checks each output: residuals
// against the serial reference, the full-tool residuals bit-identical to
// the uninstrumented ones, a clean full-tool run with the closed-form
// counts, a clean replay with the live run's Table I counters, and the
// traces' canonical re-encoding.
func verifyRound(e *env, o *outcome, a *appSpec, st *appState) (*verified, bool) {
	rs := e.tr.begin("verify", 0)
	defer e.tr.end(rs)
	v := &verified{}
	var err error
	runtime.GC()
	v.vanilla, err = runFlavor(e, a, core.Vanilla, false, a.iters, rs, "core.vanilla")
	if err == nil {
		err = a.checkNumerics(v.vanilla.first, v.vanilla.last)
	}
	if !o.op(err) {
		return nil, false
	}
	o.layer.set("core.vanilla_rss_mb", float64(modeledRSS(v.vanilla.res))/(1<<20), "MB")
	runtime.GC()
	v.check, err = checkPass(e, a, v, rs)
	if !o.op(err) {
		return nil, false
	}
	setRunCounters(o.layer, v.check.res)
	runtime.GC()
	if _, err := replayPass(e, st, v, rs, false); !o.op(err) {
		return nil, false
	}
	sp := e.tr.begin("trace.encode", rs)
	t0 := time.Now()
	err = checkEncode(st)
	o.layer.set("trace.encode_s", time.Since(t0).Seconds(), "s")
	e.tr.end(sp)
	return v, o.op(err)
}

// checkPass is one full-tool run, checked against the reference, the
// verified uninstrumented residuals, and the closed-form counts. In the
// verification round v.vanilla is the only reference yet.
func checkPass(e *env, a *appSpec, v *verified, parent int) (*flavorRun, error) {
	r, err := runFlavor(e, a, core.MUSTCuSan, false, a.iters, parent, "core.check")
	if err == nil {
		err = a.checkNumerics(r.first, r.last)
	}
	if err == nil {
		err = checkBitIdentical(v.vanilla, r)
	}
	if err == nil {
		err = checkCleanRun(r.res, a.kernelCalls(a.iters), a.memcpys(a.iters))
	}
	return r, err
}

// replayPass replays every rank's trace, checked clean and, with memory
// tracking on, with the live full-tool run's Table I counters.
func replayPass(e *env, st *appState, v *verified, parent int, syncOnly bool) (time.Duration, error) {
	sp := e.tr.begin(replayLabel(syncOnly), parent)
	t0 := time.Now()
	reps, err := replayAll(st.trs, cusan.Options{DisableMemoryTracking: syncOnly})
	wall := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return 0, err
	}
	if syncOnly {
		return wall, checkReplayClean(reps)
	}
	return wall, checkReplay(v.check.res, reps)
}

func replayLabel(syncOnly bool) string {
	if syncOnly {
		return "replay.sync_only"
	}
	return "replay.replay"
}

// measuredRound runs one measured round and appends its pass times.
func measuredRound(e *env, o *outcome, a *appSpec, st *appState, v *verified, times map[string][]float64, round int) bool {
	rs := e.tr.begin("round", 0)
	defer e.tr.end(rs)
	keep := func(name string, d time.Duration) { times[name] = append(times[name], d.Seconds()) }

	runtime.GC()
	var chk *flavorRun
	var err error
	if e.tr != nil && round == 0 {
		alloc, gcs := memDelta(func() { chk, err = checkPass(e, a, v, rs) })
		o.layer.set("go.alloc_mb", alloc, "MB")
		o.layer.set("go.gc_cycles", float64(gcs), "count")
	} else {
		chk, err = checkPass(e, a, v, rs)
	}
	if !o.op(err) {
		return false
	}
	keep("core.check", chk.wall)
	fmt.Fprintf(e.log, "%s round %d: full-tool run %.3fs\n", a.name, round+1, chk.wall.Seconds())
	if e.tr == nil {
		return true
	}

	for _, f := range []core.Flavor{core.Vanilla, core.TSan, core.MUST, core.CuSan} {
		runtime.GC()
		r, err := runFlavor(e, a, f, false, a.iters, rs, "core."+f.String())
		if err == nil {
			err = checkBitIdentical(v.vanilla, r)
		}
		if !o.op(err) {
			return false
		}
		keep("core."+f.String(), r.wall)
	}
	for _, syncOnly := range []bool{false, true} {
		runtime.GC()
		d, err := replayPass(e, st, v, rs, syncOnly)
		if !o.op(err) {
			return false
		}
		keep(replayLabel(syncOnly), d)
	}
	return true
}

// setRunCounters exports a full-tool run's counters, summed over ranks,
// and its modeled RSS (max over ranks, the paper's Fig. 11 measure).
func setRunCounters(l metrics, res *core.Result) {
	const mb = 1 << 20
	add := func(name string, v int64, unit string) {
		scale := 1.0
		if unit == "MB" {
			scale = mb
		}
		l.set(name, l[name].Value+float64(v)/scale, unit)
	}
	for _, r := range res.Ranks {
		cc, ts, ms, mp := r.CudaCtrs, r.TSanStats, r.MustStats, r.MPIStats
		add("cuda.kernel_calls", cc.KernelCalls, "count")
		add("cuda.memcpys", cc.Memcpys, "count")
		add("cuda.sync_calls", cc.SyncCalls, "count")
		add("cusan.tracked_mb", cc.ReadBytes+cc.WriteBytes, "MB")
		add("cusan.read_ranges", cc.ReadRanges, "count")
		add("cusan.write_ranges", cc.WriteRanges, "count")
		add("cusan.fiber_switches", cc.FiberSwitches, "count")
		add("cusan.hb_annotations", cc.HBAnnotations, "count")
		add("cusan.ha_annotations", cc.HAAnnotations, "count")
		add("cusan.extent_misses", cc.ExtentMisses, "count")
		add("tsan.granules", ts.EngineGranules, "count")
		add("tsan.fast_granules", ts.EngineFastGranules, "count")
		add("tsan.same_granules", ts.EngineSameGranules, "count")
		add("tsan.pages", ts.EnginePages, "count")
		add("tsan.range_cache_hits", ts.RangeCacheHits, "count")
		add("tsan.releases_batched", ts.ReleasesBatched, "count")
		add("tsan.shadow_mb", r.ShadowBytes, "MB")
		add("must.nonblocking_calls", ms.NonBlockingCalls, "count")
		add("must.completions", ms.Completions, "count")
		add("must.fibers_created", ms.FibersCreated, "count")
		add("must.fibers_reused", ms.FibersReused, "count")
		add("mpi.bytes_sent_mb", mp.BytesSent, "MB")
		add("mpi.collectives", mp.Collectives, "count")
		add("mpi.waits", mp.Waits, "count")
	}
	l.set("core.modeled_rss_mb", float64(modeledRSS(res))/mb, "MB")
}

// modeledRSS is the paper's Fig. 11 memory measure of a run: application
// payload plus shadow state at finalize, max over ranks.
func modeledRSS(res *core.Result) int64 {
	var m int64
	for i := range res.Ranks {
		m = max(m, res.Ranks[i].ModeledRSS())
	}
	return m
}

// appState is the set-up product every round reuses: the recorded
// traces, encoded and decoded.
type appState struct {
	blobs [][]byte
	trs   []*trace.Trace
}

// setupApp builds the module and records and decodes the app's traces:
// what a user pays once before checking.
func setupApp(e *env, a *appSpec, l metrics) (*appState, error) {
	sp := e.tr.begin("setup", 0)
	defer e.tr.end(sp)

	s := e.tr.begin("kir.module", sp)
	a.mod = a.module()
	e.tr.end(s)

	st := &appState{}
	s = e.tr.begin("trace.record", sp)
	t0 := time.Now()
	var err error
	st.blobs, err = recordTraces(a, false, a.iters)
	l.set("trace.record_s", time.Since(t0).Seconds(), "s")
	e.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = e.tr.begin("trace.decode", sp)
	t0 = time.Now()
	st.trs, err = decodeAll(st.blobs)
	l.set("trace.decode_s", time.Since(t0).Seconds(), "s")
	e.tr.end(s)
	if err != nil {
		return nil, err
	}
	var events, size int
	for r := range st.blobs {
		events += len(st.trs[r].Events)
		size += len(st.blobs[r])
	}
	l.set("trace.events", float64(events), "count")
	l.set("trace.mb", float64(size)/(1<<20), "MB")
	return st, nil
}

// checkEncode re-encodes the decoded traces; the format is canonical, so
// the bytes must equal the recorded ones.
func checkEncode(st *appState) error {
	for r, tr := range st.trs {
		b, err := trace.Encode(tr)
		if err != nil {
			return fmt.Errorf("encode rank %d: %w", r, err)
		}
		if !bytes.Equal(b, st.blobs[r]) {
			return fmt.Errorf("rank %d: re-encoded trace (%d bytes) differs from the recording (%d bytes)", r, len(b), len(st.blobs[r]))
		}
	}
	return nil
}
