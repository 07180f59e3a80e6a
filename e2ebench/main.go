// Command e2ebench is the end-to-end benchmark of the checker. It drives
// the program from outside through its packages — core.Run with the
// mini-apps, trace.Decode/trace.Replay, and an in-process cusan-serve
// over loopback HTTP — checks every output against results computed
// apart from the program, and prints one JSON result line.
//
//	e2ebench --workload jacobi-check|tealeaf-cg|serve-campaign \
//	         --seed N --seconds S --trace 0|1 [-out DIR]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records a span around each call into a layer, writes them to
// DIR/<workload>.trace.json (Chrome trace_event JSON, opens in
// Perfetto), and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken at package initialization, before main runs:
// set-up time is measured from here.
var processStart = time.Now()

// sizes is every workload size knob. fullSizes are the benchmark's; the
// self-test runs tinySizes.
type sizes struct {
	jacobiNX, jacobiNY, jacobiIters int
	racyNX, racyNY                  int // jacobi SkipSync short run
	tealeafNX, tealeafNY            int
	tealeafIters                    int
	tealeafK                        float64
	shortCGMin, shortCGSpan         int // tealeaf short-solve iterations
	// campaign matrix: chaos seeds 1..campaignSeeds, one campaign per
	// case-name filter.
	campaignSeeds  int
	campaignGroups []string
	// minRounds is the least number of measured rounds per run.
	minRounds int
}

var fullSizes = sizes{
	jacobiNX: 512, jacobiNY: 256, jacobiIters: 600,
	racyNX: 64, racyNY: 32,
	tealeafNX: 96, tealeafNY: 96, tealeafIters: 1000, tealeafK: 100,
	shortCGMin: 8, shortCGSpan: 16,
	campaignSeeds: 25, campaignGroups: fullGroups,
	minRounds: 3,
}

var tinySizes = sizes{
	jacobiNX: 32, jacobiNY: 16, jacobiIters: 20,
	racyNX: 16, racyNY: 8,
	tealeafNX: 16, tealeafNY: 16, tealeafIters: 12, tealeafK: 100,
	shortCGMin: 3, shortCGSpan: 4,
	campaignSeeds: 1, campaignGroups: []string{"mpi-to-cuda/", "wide-sched/"},
	minRounds: 1,
}

// env is one benchmark run's settings.
type env struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
	sz      sizes
	log     io.Writer
	// refStart is the host reference loop run before the workload; set-up
	// time leaves it out.
	refStart time.Duration
}

// setupDone records the set-up time: from the process's start to at,
// less the reference loop the benchmark itself ran.
func (e *env) setupDone(o *outcome, at time.Time) {
	o.e2e.set("setup_s", (at.Sub(processStart) - e.refStart).Seconds(), "s")
}

// The printed metrics, in BENCHMARK.json's order, with their units.
// Every run prints all of one list: a layer a workload does not exercise
// reads 0.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"check_s", "s"},
		{"peak_rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"core.vanilla_s", "s"}, {"core.check_s", "s"}, {"core.tsan_s", "s"},
		{"core.must_s", "s"}, {"core.cusan_s", "s"},
		{"core.modeled_rss_mb", "MB"}, {"core.vanilla_rss_mb", "MB"},
		{"replay.replay_s", "s"}, {"replay.sync_only_s", "s"}, {"replay.ranges_s", "s"},
		{"cuda.kernel_calls", "count"}, {"cuda.memcpys", "count"}, {"cuda.sync_calls", "count"},
		{"cusan.tracked_mb", "MB"}, {"cusan.read_ranges", "count"}, {"cusan.write_ranges", "count"},
		{"cusan.fiber_switches", "count"}, {"cusan.hb_annotations", "count"},
		{"cusan.ha_annotations", "count"}, {"cusan.extent_misses", "count"},
		{"tsan.granules", "count"}, {"tsan.fast_granules", "count"}, {"tsan.same_granules", "count"},
		{"tsan.pages", "count"}, {"tsan.range_cache_hits", "count"}, {"tsan.releases_batched", "count"},
		{"tsan.shadow_mb", "MB"}, {"tsan.ns_per_granule", "ns"},
		{"must.nonblocking_calls", "count"}, {"must.completions", "count"},
		{"must.fibers_created", "count"}, {"must.fibers_reused", "count"},
		{"mpi.bytes_sent_mb", "MB"}, {"mpi.collectives", "count"}, {"mpi.waits", "count"},
		{"trace.events", "count"}, {"trace.mb", "MB"}, {"trace.record_s", "s"},
		{"trace.decode_s", "s"}, {"trace.encode_s", "s"},
		{"campaign.jobs", "count"}, {"campaign.suite_busy_s", "s"}, {"campaign.replay_busy_s", "s"},
		{"campaign.chaos_busy_s", "s"}, {"campaign.explore_busy_s", "s"},
		{"campaign.utilization", "ratio"},
		{"explore.schedules", "count"}, {"explore.pruned", "count"}, {"faults.injected", "count"},
		{"serve.jobs_per_s", "jobs/s"}, {"serve.submit_s", "s"}, {"serve.first_record_s", "s"},
		{"serve.stream_mb", "MB"},
		{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
		{"host.ref_loop_s", "s"}, {"traced.total_s", "s"},
	}
)

type metricDef struct{ name, unit string }

// pick returns the defined metrics, in order, from m; a metric the run
// did not set reads 0, and one m has with another unit is an error.
func (m metrics) pick(defs []metricDef) (metrics, error) {
	out := metrics{}
	for _, d := range defs {
		v, ok := m[d.name]
		if ok && v.Unit != d.unit {
			return nil, fmt.Errorf("metric %s has unit %q, defined as %q", d.name, v.Unit, d.unit)
		}
		out[d.name] = metric{v.Value, d.unit}
	}
	return out, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what a workload hands back: operation counts, the first
// failed check, and both metric sets.
type outcome struct {
	attempted, failed int64
	err               error
	e2e, layer        metrics
}

// op counts one checked operation; a failed check fails the run.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		if o.err == nil {
			o.err = err
		}
		return false
	}
	return true
}

type workload func(e *env, o *outcome)

var workloads = map[string]workload{
	"jacobi-check":   func(e *env, o *outcome) { runApp(e, o, jacobiSpec(e.sz)) },
	"tealeaf-cg":     func(e *env, o *outcome) { runApp(e, o, tealeafSpec(e.sz)) },
	"serve-campaign": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: jacobi-check, tealeaf-cg or serve-campaign")
	seed := fs.Uint64("seed", 1, "seed of the seed-dependent inputs")
	seconds := fs.Float64("seconds", 25, "measured time per run, after set-up and warm-up")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", "out", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "e2ebench: need --workload one of %s, --trace 0|1, --seconds > 0\n", workloadNames())
		return 2
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		sz:      sz,
		log:     stderr,
	}
	if *traced == 1 {
		e.tr = newTracer(processStart)
	}
	o := &outcome{e2e: metrics{}, layer: metrics{}}
	e.refStart = refLoop()
	wl(e, o)
	o.layer.set("host.ref_loop_s", (e.refStart+refLoop()).Seconds()/2, "s")
	peak, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	o.e2e.set("peak_rss_mb", peak, "MB")

	defs, set := endToEnd, o.e2e
	if e.tr != nil {
		defs, set = perLayer, o.layer
		set.set("traced.total_s", time.Since(processStart).Seconds(), "s")
	}
	picked, err := set.pick(defs)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	res := result{Correct: o.err == nil && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: picked}
	if e.tr != nil {
		path := filepath.Join(*out, *name+".trace.json")
		if err := e.tr.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "e2ebench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "e2ebench: spans written to %s\n", path)
	}
	if o.err != nil {
		fmt.Fprintln(stderr, "e2ebench: CHECK FAILED:", o.err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// median of the samples (seconds); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// refSink keeps the reference loop's result alive.
var refSink uint64

// refLoop times a fixed integer loop that touches no program code: if it
// slows between runs, the host slowed, not the program.
func refLoop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(t0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM line in /proc/self/status")
}

// memDelta measures Go heap allocation and GC cycles across f.
func memDelta(f func()) (allocMB float64, gcs uint32) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), b.NumGC - a.NumGC
}
