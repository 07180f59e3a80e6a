package main

import (
	"strings"
	"testing"

	"cusango/internal/perf"
)

// TestPrintComparisonNamesDrift pins that every canonical drift is
// listed by scenario and detail, not only counted in the tally, and
// that ok deltas stay hidden without -all.
func TestPrintComparisonNamesDrift(t *testing.T) {
	cmp := &perf.Comparison{
		Deltas: []perf.MetricDelta{
			{Scenario: "range-engine", Metric: "batched_ns_op", Status: perf.StatusOK},
			{Scenario: "fig10-jacobi", Metric: "rel_cusan", Status: perf.StatusRegression},
		},
		Drifts: []perf.Drift{
			{Scenario: "range-engine", Detail: "metric catalog changed (refresh the baseline)"},
			{Scenario: "range-engine", Detail: "counters drift: engine_granules: 8192 -> 6.7108864e+07"},
		},
	}
	var b strings.Builder
	printComparison(&b, cmp, false)
	out := b.String()
	for _, want := range []string{
		"DRIFT range-engine: metric catalog changed (refresh the baseline)\n",
		"DRIFT range-engine: counters drift: engine_granules: 8192 -> 6.7108864e+07\n",
		"compare: ok=1 regression=1 drift=2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "fig10-jacobi") {
		t.Errorf("regression not listed:\n%s", out)
	}
	if strings.Contains(out, "batched_ns_op") {
		t.Errorf("ok delta listed without -all:\n%s", out)
	}
	if n := strings.Count(out, "DRIFT"); n != 2 {
		t.Errorf("drift lines = %d, want 2:\n%s", n, out)
	}
}
