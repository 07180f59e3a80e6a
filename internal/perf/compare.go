package perf

import (
	"bytes"
	"fmt"
	"math"
	"sort"
)

// Comparison statuses.
const (
	StatusOK           = "ok"          // within the noise envelope
	StatusRegression   = "regression"  // outside, in the worse direction
	StatusImprovement  = "improvement" // outside, in the better direction
	StatusZeroBaseline = "zero-base"   // baseline median 0, ratio undefined
	StatusNoBaseline   = "no-baseline" // scenario/metric absent from baseline
	StatusNoCurrent    = "no-current"  // scenario/metric absent from fresh run
)

// Per-class default thresholds. A metric regresses when its fresh
// median lands outside
//
//	base.Median * (1 ± relTol) ± madMult * base.MAD
//
// in the worse direction: the relative tolerance absorbs systematic
// drift (different runner generations), the MAD term absorbs the
// run-to-run jitter the baseline itself exhibited. Count/bytes metrics
// are deterministic, so their envelope is (nearly) zero and drift in
// either direction is a finding.
var classDefaults = map[Class]struct {
	relTol, madMult float64
}{
	ClassRatio: {0.25, 3},
	ClassCount: {0.001, 0},
	ClassBytes: {0.001, 0},
	ClassTime:  {0.30, 4},
	ClassRate:  {0.30, 4},
}

// CompareOptions tunes the comparator.
type CompareOptions struct {
	// RelTol, when > 0, overrides every gated metric's relative
	// tolerance.
	RelTol float64
	// MADMult, when >= 0, overrides every gated metric's MAD
	// multiplier (use < 0 for per-metric defaults).
	MADMult float64
	// Strict also gates ClassTime/ClassRate metrics (off by default:
	// absolute timings do not transfer between machines, so baselines
	// recorded elsewhere would flap).
	Strict bool
}

// DefaultCompareOptions returns the per-metric-defaults configuration.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{RelTol: 0, MADMult: -1}
}

// thresholds resolves the effective tolerance pair for a metric.
func (opt CompareOptions) thresholds(spec MetricSpec) (relTol, madMult float64) {
	def := classDefaults[spec.Class]
	relTol, madMult = def.relTol, def.madMult
	if spec.RelTol > 0 {
		relTol = spec.RelTol
	}
	if spec.MADMult > 0 {
		madMult = spec.MADMult
	}
	if opt.RelTol > 0 {
		relTol = opt.RelTol
	}
	if opt.MADMult >= 0 {
		madMult = opt.MADMult
	}
	return relTol, madMult
}

// gated reports whether the metric participates in gating.
func (opt CompareOptions) gated(spec MetricSpec) bool {
	if spec.Trend {
		return false
	}
	switch spec.Class {
	case ClassRatio, ClassCount, ClassBytes:
		return true
	default:
		return opt.Strict
	}
}

// MetricDelta is one metric's baseline-vs-fresh comparison.
type MetricDelta struct {
	Scenario string  `json:"scenario"`
	Metric   string  `json:"metric"`
	Class    Class   `json:"class"`
	Gated    bool    `json:"gated"`
	Base     float64 `json:"base"` // baseline median
	BaseMAD  float64 `json:"base_mad"`
	Cur      float64 `json:"cur"` // fresh median
	// RelChange is (cur-base)/base, NaN-safe (0 when base is 0).
	RelChange float64 `json:"rel_change"`
	// Bound is the envelope edge the fresh median was judged against
	// (the worse-direction edge).
	Bound  float64 `json:"bound"`
	Status string  `json:"status"`
}

func (d MetricDelta) String() string {
	if d.Status == StatusNoCurrent {
		return fmt.Sprintf("%-11s %-18s %-32s base=%-12.4g (missing from the fresh run)",
			d.Status, d.Scenario, d.Metric, d.Base)
	}
	return fmt.Sprintf("%-11s %-18s %-32s base=%-12.4g cur=%-12.4g %+6.1f%% bound=%.4g",
		d.Status, d.Scenario, d.Metric, d.Base, d.Cur, 100*d.RelChange, d.Bound)
}

// Drift records a canonical-section mismatch between baseline and
// fresh run — deterministic facts that changed, which no tolerance can
// excuse.
type Drift struct {
	Scenario string `json:"scenario"`
	Detail   string `json:"detail"`
}

// Comparison aggregates a full compare pass.
type Comparison struct {
	Deltas []MetricDelta `json:"deltas"`
	Drifts []Drift       `json:"drifts"`
}

// Regressions returns the gated deltas that regressed, counting a gated
// metric the fresh run lacks.
func (c *Comparison) Regressions() []MetricDelta {
	var out []MetricDelta
	for _, d := range c.Deltas {
		if d.Gated && (d.Status == StatusRegression || d.Status == StatusNoCurrent) {
			out = append(out, d)
		}
	}
	return out
}

// Clean reports whether the comparison found no gated regression and
// no canonical drift.
func (c *Comparison) Clean() bool {
	return len(c.Regressions()) == 0 && len(c.Drifts) == 0
}

// Compare diffs fresh scenario results against baselines. Scenarios
// present on only one side produce informational no-baseline /
// no-current deltas (a new scenario must not break the gate; a
// retired one is caught by baseline hygiene, not CI).
func Compare(base, cur map[string]*Result, opt CompareOptions) *Comparison {
	cmp := &Comparison{}
	names := make([]string, 0, len(base)+len(cur))
	seen := map[string]bool{}
	for n := range base {
		names = append(names, n)
		seen[n] = true
	}
	for n := range cur {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base[name], cur[name]
		switch {
		case c == nil:
			cmp.Deltas = append(cmp.Deltas, MetricDelta{
				Scenario: name, Metric: "*", Status: StatusNoCurrent,
			})
		case b == nil:
			cmp.Deltas = append(cmp.Deltas, MetricDelta{
				Scenario: name, Metric: "*", Status: StatusNoBaseline,
			})
		default:
			compareScenario(cmp, b, c, opt)
		}
	}
	return cmp
}

func compareScenario(cmp *Comparison, base, cur *Result, opt CompareOptions) {
	name := base.Canonical.Scenario
	cmp.Drifts = append(cmp.Drifts, canonicalDrift(base, cur)...)
	for _, spec := range base.Canonical.Metrics {
		bs, bok := base.SummaryOf(spec.Name)
		cs, cok := cur.SummaryOf(spec.Name)
		d := MetricDelta{
			Scenario: name,
			Metric:   spec.Name,
			Class:    spec.Class,
			Gated:    opt.gated(spec),
		}
		switch {
		case !bok:
			d.Status, d.Gated = StatusNoBaseline, false
		case !cok:
			// A metric the baseline promises but the fresh run did not
			// produce is a harness defect: Regressions gates it.
			d.Status = StatusNoCurrent
			d.Base, d.BaseMAD = bs.Median, bs.MAD
		default:
			d.Base, d.BaseMAD, d.Cur = bs.Median, bs.MAD, cs.Median
			d.RelChange = relChange(bs.Median, cs.Median)
			d.Status, d.Bound = judge(spec, bs, cs, opt)
		}
		cmp.Deltas = append(cmp.Deltas, d)
	}
}

// judge applies the noise model to one metric.
func judge(spec MetricSpec, base, cur Summary, opt CompareOptions) (status string, bound float64) {
	relTol, madMult := opt.thresholds(spec)
	exact := spec.Class == ClassCount || spec.Class == ClassBytes

	if base.Median == 0 {
		if cur.Median == 0 {
			return StatusOK, 0
		}
		if exact {
			// A deterministic quantity that was zero and no longer is —
			// drift, whatever the magnitude.
			return StatusRegression, 0
		}
		return StatusZeroBaseline, 0
	}

	slack := math.Abs(base.Median)*relTol + madMult*base.MAD
	if exact {
		// Deterministic metrics drift in either direction; both are
		// findings (e.g. an event silently not counted "improves" the
		// count).
		bound = base.Median + slack
		if math.Abs(cur.Median-base.Median) > slack {
			return StatusRegression, bound
		}
		return StatusOK, bound
	}

	worse := cur.Median > base.Median+slack // lower is better
	better := cur.Median < base.Median-slack
	bound = base.Median + slack
	if spec.Better == BetterHigher {
		worse, better = cur.Median < base.Median-slack, cur.Median > base.Median+slack
		bound = base.Median - slack
	}
	switch {
	case worse:
		return StatusRegression, bound
	case better:
		return StatusImprovement, bound
	default:
		return StatusOK, bound
	}
}

func relChange(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base
}

// canonicalDrift compares the deterministic sections field by field so
// the report names what moved instead of dumping two JSON blobs.
func canonicalDrift(base, cur *Result) []Drift {
	name := base.Canonical.Scenario
	var out []Drift
	if base.Canonical.V != cur.Canonical.V || base.Canonical.Format != cur.Canonical.Format {
		out = append(out, Drift{name, fmt.Sprintf("format %s/v%d vs %s/v%d",
			base.Canonical.Format, base.Canonical.V, cur.Canonical.Format, cur.Canonical.V)})
	}
	if base.Canonical.Params != cur.Canonical.Params {
		out = append(out, Drift{name, fmt.Sprintf("params %q vs %q",
			base.Canonical.Params, cur.Canonical.Params)})
	}
	if !metricSpecsEqual(base.Canonical.Metrics, cur.Canonical.Metrics) {
		out = append(out, Drift{name, "metric catalog changed (refresh the baseline)"})
	}
	if d := countersDrift(base, cur); d != "" {
		out = append(out, Drift{name, d})
	}
	return out
}

func metricSpecsEqual(a, b []MetricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countersDrift byte-compares the counter snapshots (both sides
// marshal deterministically) and names the first differing field.
func countersDrift(base, cur *Result) string {
	bc, cc := base.Canonical.Counters, cur.Canonical.Counters
	switch {
	case bc == nil && cc == nil:
		return ""
	case bc == nil || cc == nil:
		return "counter snapshot appeared/disappeared"
	}
	bb, err1 := base.CanonicalJSON()
	cb, err2 := cur.CanonicalJSON()
	if err1 != nil || err2 != nil || !bytes.Equal(bb, cb) {
		for _, f := range counterFields(bc, cc) {
			return "counters drift: " + f
		}
		// Canonical bytes differ for a non-counter reason already
		// reported above.
		return ""
	}
	return ""
}
