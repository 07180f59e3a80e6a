package bench

import (
	"fmt"
	"strings"
	"testing"

	"cusango/internal/apps/jacobi"
	"cusango/internal/apps/tealeaf"
	"cusango/internal/core"
	"cusango/internal/cusan"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{
		Ranks:      2,
		Runs:       1,
		Warmup:     0,
		JacobiCfg:  jacobi.Config{NX: 64, NY: 32, Iters: 10},
		TeaLeafCfg: tealeaf.Config{NX: 32, NY: 32, Iters: 5, K: 0.1},
		Fig12Sizes: [][2]int{{32, 16}, {64, 32}},
	}
}

func TestMeasureVanillaAndFull(t *testing.T) {
	cfg := tinyConfig()
	for _, app := range []App{Jacobi, TeaLeaf} {
		base, err := Measure(app, core.Vanilla, cfg, cusan.Options{})
		if err != nil {
			t.Fatalf("%v vanilla: %v", app, err)
		}
		full, err := Measure(app, core.MUSTCuSan, cfg, cusan.Options{})
		if err != nil {
			t.Fatalf("%v full: %v", app, err)
		}
		if base.Wall <= 0 || full.Wall <= 0 {
			t.Fatalf("%v: non-positive wall times", app)
		}
		if full.RSS <= base.RSS {
			t.Errorf("%v: instrumented RSS (%d) should exceed vanilla (%d)",
				app, full.RSS, base.RSS)
		}
		if full.Result.TotalRaces() != 0 {
			t.Errorf("%v: benchmark workload raced: %d", app, full.Result.TotalRaces())
		}
	}
}

func TestFig10Table(t *testing.T) {
	tab, err := Fig10(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 { // 2 apps x (vanilla + 4 flavors)
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Fig. 10", "vanilla", "must+cusan", "Jacobi", "TeaLeaf", "36.06"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFig11Table(t *testing.T) {
	tab, err := Fig11(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Memory ratios must be >= 1 for instrumented flavors and largest
	// for the CuSan flavors (the paper's shape).
	parse := func(row []string) float64 {
		var x float64
		if _, err := fmtSscan(row[3], &x); err != nil {
			t.Fatalf("bad rel cell %q", row[3])
		}
		return x
	}
	for _, row := range tab.Rows {
		if rel := parse(row); rel < 0.99 {
			t.Errorf("memory ratio < 1: %v", row)
		}
	}
}

func TestTable1HasAllMetrics(t *testing.T) {
	tab, err := Table1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d, want 12 Table I metrics + 3 shadow-engine rows", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Switch To Fiber", "AnnotateHappensBefore", "Memory Read Size",
		"Shadow pages touched", "Fast-path granules"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestEngineAblation(t *testing.T) {
	tab, err := EngineAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 engine variants", len(tab.Rows))
	}
	// The slow reference walk reports no engine counters; the batched
	// engine must.
	if tab.Rows[0][4] != "0" {
		t.Errorf("slow engine reported granules: %v", tab.Rows[0])
	}
	if tab.Rows[1][4] == "0" {
		t.Errorf("batched engine reported no granules: %v", tab.Rows[1])
	}
}

func TestFig12ScalesTrackedBytes(t *testing.T) {
	tab, err := Fig12(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Tracked bytes must grow with the domain (the paper's right axis).
	var prev float64
	for i, row := range tab.Rows {
		var mbRead float64
		if _, err := fmtSscan(row[4], &mbRead); err != nil {
			t.Fatalf("bad MB cell %q", row[4])
		}
		if i > 0 && mbRead <= prev {
			t.Errorf("tracked bytes did not grow: %v -> %v", prev, mbRead)
		}
		prev = mbRead
	}
}

func TestAblationReducesTracking(t *testing.T) {
	cfg := tinyConfig()
	// Large enough that 4KiB boundary tracking is far below full
	// tracking (the tiny domain would make them indistinguishable).
	cfg.JacobiCfg = jacobi.Config{NX: 256, NY: 128, Iters: 10}
	tab, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var full, none, boundary float64
	for _, row := range tab.Rows {
		var mbW float64
		if _, err := fmtSscan(row[3], &mbW); err != nil {
			t.Fatalf("bad cell %q", row[3])
		}
		switch {
		case strings.Contains(row[0], "full"):
			full = mbW
		case strings.Contains(row[0], "no memory"):
			none = mbW
		case strings.Contains(row[0], "boundary"):
			boundary = mbW
		}
	}
	if none != 0 {
		t.Errorf("no-tracking variant tracked %v MB", none)
	}
	if full <= 0 {
		t.Errorf("full variant tracked nothing")
	}
	if boundary >= full || boundary <= 0 {
		t.Errorf("boundary variant tracked %v MB (full %v)", boundary, full)
	}
}

// fmtSscan parses a float table cell.
func fmtSscan(s string, x *float64) (int, error) {
	return fmt.Sscan(s, x)
}

func TestCellsAblation(t *testing.T) {
	tab, err := CellsAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (K=1,2,4)", len(tab.Rows))
	}
	var prevShadow float64
	for i, row := range tab.Rows {
		if row[4] != "0" {
			t.Errorf("correct workload raced at %s cells: %s", row[0], row[4])
		}
		var shadow float64
		if _, err := fmtSscan(row[3], &shadow); err != nil {
			t.Fatalf("bad shadow cell %q", row[3])
		}
		if i > 0 && shadow <= prevShadow {
			t.Errorf("shadow footprint must grow with cells: %v -> %v", prevShadow, shadow)
		}
		prevShadow = shadow
	}
}
