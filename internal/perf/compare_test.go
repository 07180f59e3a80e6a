package perf

import (
	"strings"
	"testing"

	"cusango/internal/cusan"
)

// mkResult builds a synthetic baseline/current result for the
// comparator tests: one scenario, the given metric catalog, a single
// sample per metric (so median = the sample, MAD = 0 unless overridden
// via more samples).
func mkResult(scenario string, metrics []MetricSpec, samples map[string][]float64) *Result {
	summary := make(map[string]Summary, len(samples))
	for name, xs := range samples {
		summary[name] = Summarize(xs)
	}
	return &Result{
		Canonical: Canonical{
			V: FormatVersion, Format: Format,
			Scenario: scenario, Params: "synthetic",
			Metrics: metrics,
		},
		Volatile: Volatile{Samples: samples, Summary: summary, Repeats: 1},
	}
}

func oneDelta(t *testing.T, cmp *Comparison, metric string) MetricDelta {
	t.Helper()
	for _, d := range cmp.Deltas {
		if d.Metric == metric {
			return d
		}
	}
	t.Fatalf("no delta for metric %q in %+v", metric, cmp.Deltas)
	return MetricDelta{}
}

func TestJudgeRatioEnvelope(t *testing.T) {
	// Defaults for ratio: relTol 0.25, madMult 3. Baseline median 10,
	// MAD 1 -> slack = 2.5 + 3 = 5.5; regression bound 15.5.
	spec := []MetricSpec{{Name: "m", Unit: "x", Class: ClassRatio, Better: BetterLower}}
	base := mkResult("s", spec, map[string][]float64{"m": {9, 10, 11}})
	// Force the intended MAD: {9,10,11} has MAD 1.
	if mad := base.Volatile.Summary["m"].MAD; mad != 1 {
		t.Fatalf("test setup: MAD = %v, want 1", mad)
	}
	cases := []struct {
		cur    float64
		status string
	}{
		{15.5, StatusOK},          // exactly at the bound: inside
		{15.6, StatusRegression},  // just over
		{4.5, StatusOK},           // exactly at the better-side edge
		{4.4, StatusImprovement},  // just past it
		{10.0, StatusOK},          // unchanged
		{100.0, StatusRegression}, // grossly over
	}
	for _, c := range cases {
		cur := mkResult("s", spec, map[string][]float64{"m": {c.cur}})
		cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
			DefaultCompareOptions())
		d := oneDelta(t, cmp, "m")
		if d.Status != c.status {
			t.Errorf("cur=%v: status %q, want %q (bound %v)", c.cur, d.Status, c.status, d.Bound)
		}
		if !d.Gated {
			t.Errorf("cur=%v: ratio metric should be gated", c.cur)
		}
	}
}

func TestJudgeBetterHigher(t *testing.T) {
	spec := []MetricSpec{{Name: "spd", Unit: "x", Class: ClassRatio, Better: BetterHigher,
		RelTol: 0.10, MADMult: 0}}
	base := mkResult("s", spec, map[string][]float64{"spd": {10}})
	// slack = 1; lower than 9 regresses, higher than 11 improves.
	for cur, want := range map[float64]string{
		8.9:  StatusRegression,
		9.0:  StatusOK,
		11.0: StatusOK,
		11.1: StatusImprovement,
	} {
		c := mkResult("s", spec, map[string][]float64{"spd": {cur}})
		cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": c},
			DefaultCompareOptions())
		if d := oneDelta(t, cmp, "spd"); d.Status != want {
			t.Errorf("cur=%v: status %q, want %q", cur, d.Status, want)
		}
	}
}

func TestJudgeCountTwoSided(t *testing.T) {
	// Count metrics are deterministic: drift in EITHER direction is a
	// regression (an event silently not counted "improves" the count).
	spec := []MetricSpec{{Name: "n", Unit: "events", Class: ClassCount, Better: BetterLower}}
	base := mkResult("s", spec, map[string][]float64{"n": {1000}})
	for cur, want := range map[float64]string{
		1000: StatusOK,
		1002: StatusRegression, // over the 0.001 relTol envelope
		998:  StatusRegression, // under it, still a finding
	} {
		c := mkResult("s", spec, map[string][]float64{"n": {cur}})
		cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": c},
			DefaultCompareOptions())
		if d := oneDelta(t, cmp, "n"); d.Status != want {
			t.Errorf("cur=%v: status %q, want %q", cur, d.Status, want)
		}
	}
}

func TestJudgeZeroBaseline(t *testing.T) {
	specRatio := []MetricSpec{{Name: "r", Unit: "x", Class: ClassRatio, Better: BetterLower}}
	specCount := []MetricSpec{{Name: "n", Unit: "events", Class: ClassCount, Better: BetterLower}}

	// Both zero: fine.
	base := mkResult("s", specRatio, map[string][]float64{"r": {0}})
	cur := mkResult("s", specRatio, map[string][]float64{"r": {0}})
	cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if d := oneDelta(t, cmp, "r"); d.Status != StatusOK {
		t.Errorf("0 -> 0: status %q, want ok", d.Status)
	}

	// Ratio from zero: undefined, informational only.
	cur = mkResult("s", specRatio, map[string][]float64{"r": {5}})
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if d := oneDelta(t, cmp, "r"); d.Status != StatusZeroBaseline {
		t.Errorf("ratio 0 -> 5: status %q, want %q", d.Status, StatusZeroBaseline)
	}
	if len(cmp.Regressions()) != 0 {
		t.Errorf("zero-base ratio must not gate")
	}

	// Deterministic count appearing from zero: drift, gated.
	base = mkResult("s", specCount, map[string][]float64{"n": {0}})
	cur = mkResult("s", specCount, map[string][]float64{"n": {3}})
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if d := oneDelta(t, cmp, "n"); d.Status != StatusRegression {
		t.Errorf("count 0 -> 3: status %q, want regression", d.Status)
	}
}

func TestCompareMissingScenario(t *testing.T) {
	spec := []MetricSpec{{Name: "m", Unit: "x", Class: ClassRatio, Better: BetterLower}}
	r := mkResult("here", spec, map[string][]float64{"m": {1}})

	// Baseline promises a scenario the fresh run lacks.
	cmp := Compare(map[string]*Result{"here": r}, map[string]*Result{}, DefaultCompareOptions())
	if len(cmp.Deltas) != 1 || cmp.Deltas[0].Status != StatusNoCurrent {
		t.Fatalf("missing current: %+v", cmp.Deltas)
	}
	// A brand-new scenario must not break the gate.
	cmp = Compare(map[string]*Result{}, map[string]*Result{"here": r}, DefaultCompareOptions())
	if len(cmp.Deltas) != 1 || cmp.Deltas[0].Status != StatusNoBaseline {
		t.Fatalf("missing baseline: %+v", cmp.Deltas)
	}
	if !cmp.Clean() {
		t.Fatalf("new scenario should not gate")
	}
}

func TestCompareMissingMetricGates(t *testing.T) {
	// A metric the baseline promises but the fresh run lost is a
	// harness defect: reported as no-current, and gated.
	spec := []MetricSpec{
		{Name: "kept", Unit: "x", Class: ClassRatio, Better: BetterLower},
		{Name: "lost", Unit: "x", Class: ClassRatio, Better: BetterLower},
	}
	base := mkResult("s", spec, map[string][]float64{"kept": {1}, "lost": {1}})
	cur := mkResult("s", spec, map[string][]float64{"kept": {1}})
	cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	d := oneDelta(t, cmp, "lost")
	if d.Status != StatusNoCurrent || !d.Gated {
		t.Fatalf("lost metric: %+v, want gated %s", d, StatusNoCurrent)
	}
	if regs := cmp.Regressions(); len(regs) != 1 || regs[0].Metric != "lost" || cmp.Clean() {
		t.Fatalf("lost metric must gate: regressions %+v", regs)
	}
	if line := d.String(); strings.Contains(line, "cur=") || !strings.Contains(line, "missing") {
		t.Fatalf("lost metric printed as %q, want no fresh value", line)
	}
}

func TestCompareMissingTrendMetricDoesNotGate(t *testing.T) {
	spec := []MetricSpec{{Name: "spd", Unit: "x", Class: ClassRatio, Better: BetterHigher, Trend: true}}
	base := mkResult("s", spec, map[string][]float64{"spd": {8}})
	cur := mkResult("s", spec, map[string][]float64{})
	cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if d := oneDelta(t, cmp, "spd"); d.Status != StatusNoCurrent || d.Gated {
		t.Fatalf("lost trend metric: %+v, want ungated %s", d, StatusNoCurrent)
	}
	if !cmp.Clean() {
		t.Fatal("an ungated missing metric must not gate")
	}
}

func TestStrictGatesTimeMetrics(t *testing.T) {
	spec := []MetricSpec{{Name: "wall", Unit: "s", Class: ClassTime, Better: BetterLower}}
	base := mkResult("s", spec, map[string][]float64{"wall": {1.0}})
	cur := mkResult("s", spec, map[string][]float64{"wall": {10.0}})

	cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	d := oneDelta(t, cmp, "wall")
	if d.Gated {
		t.Fatalf("time metric gated without -strict")
	}
	if d.Status != StatusRegression {
		t.Fatalf("time metric should still report regression status, got %q", d.Status)
	}
	if len(cmp.Regressions()) != 0 {
		t.Fatalf("ungated regression leaked into Regressions()")
	}

	opt := DefaultCompareOptions()
	opt.Strict = true
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur}, opt)
	if d := oneDelta(t, cmp, "wall"); !d.Gated {
		t.Fatalf("-strict must gate time metrics")
	}
	if len(cmp.Regressions()) != 1 {
		t.Fatalf("strict regression not counted")
	}
}

func TestTrendNeverGates(t *testing.T) {
	spec := []MetricSpec{{Name: "spd", Unit: "x", Class: ClassRatio, Better: BetterHigher, Trend: true}}
	base := mkResult("s", spec, map[string][]float64{"spd": {8}})
	cur := mkResult("s", spec, map[string][]float64{"spd": {1}})
	opt := DefaultCompareOptions()
	opt.Strict = true // not even strict gates a trend metric
	cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur}, opt)
	if d := oneDelta(t, cmp, "spd"); d.Gated {
		t.Fatalf("trend metric must never gate")
	}
}

func TestCompareOptionOverrides(t *testing.T) {
	// Per-metric override (RelTol 0.50) loosens the class default;
	// the global CLI override (-rel-tol) then trumps the metric.
	spec := []MetricSpec{{Name: "m", Unit: "x", Class: ClassRatio, Better: BetterLower,
		RelTol: 0.50, MADMult: 0}}
	base := mkResult("s", spec, map[string][]float64{"m": {10}})
	cur := mkResult("s", spec, map[string][]float64{"m": {14}})

	cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if d := oneDelta(t, cmp, "m"); d.Status != StatusOK {
		t.Fatalf("within per-metric 50%% tolerance: %q", d.Status)
	}

	opt := CompareOptions{RelTol: 0.10, MADMult: -1}
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur}, opt)
	if d := oneDelta(t, cmp, "m"); d.Status != StatusRegression {
		t.Fatalf("global -rel-tol 0.10 must trump the per-metric 0.50: %q", d.Status)
	}

	// MADMult 0 suppresses the MAD term entirely.
	base = mkResult("s", spec, map[string][]float64{"m": {9, 10, 11}}) // MAD 1
	cur = mkResult("s", spec, map[string][]float64{"m": {10.5}})
	opt = CompareOptions{RelTol: 0.01, MADMult: 0}
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur}, opt)
	if d := oneDelta(t, cmp, "m"); d.Status != StatusRegression {
		t.Fatalf("MADMult 0 should drop the MAD slack: %q", d.Status)
	}
}

func TestCanonicalDrift(t *testing.T) {
	spec := []MetricSpec{{Name: "m", Unit: "x", Class: ClassRatio, Better: BetterLower}}
	base := mkResult("s", spec, map[string][]float64{"m": {1}})

	// Params change.
	cur := mkResult("s", spec, map[string][]float64{"m": {1}})
	cur.Canonical.Params = "other"
	cmp := Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if len(cmp.Drifts) != 1 {
		t.Fatalf("params drift not flagged: %+v", cmp.Drifts)
	}

	// Metric catalog change.
	cur = mkResult("s", append(spec, MetricSpec{Name: "new", Unit: "x",
		Class: ClassRatio, Better: BetterLower}), map[string][]float64{"m": {1}, "new": {1}})
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if len(cmp.Drifts) != 1 {
		t.Fatalf("catalog drift not flagged: %+v", cmp.Drifts)
	}

	// Counter drift names the field that moved.
	base.Canonical.Counters = &cusan.Counters{KernelCalls: 100}
	cur = mkResult("s", spec, map[string][]float64{"m": {1}})
	cur.Canonical.Counters = &cusan.Counters{KernelCalls: 101}
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if len(cmp.Drifts) != 1 {
		t.Fatalf("counter drift not flagged: %+v", cmp.Drifts)
	}
	if want := "counters drift: kernel_calls: 100 -> 101"; cmp.Drifts[0].Detail != want {
		t.Fatalf("drift detail %q, want %q", cmp.Drifts[0].Detail, want)
	}
	if cmp.Clean() {
		t.Fatalf("drift must fail Clean()")
	}

	// Snapshot disappearing is drift too.
	cur.Canonical.Counters = nil
	cmp = Compare(map[string]*Result{"s": base}, map[string]*Result{"s": cur},
		DefaultCompareOptions())
	if len(cmp.Drifts) != 1 {
		t.Fatalf("vanished snapshot not flagged: %+v", cmp.Drifts)
	}
}
