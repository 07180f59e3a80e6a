// Package bench is the evaluation harness: it regenerates every table
// and figure of the paper's §V against the simulated substrate —
// runtime overhead (Fig. 10), memory overhead (Fig. 11), CUDA/TSan event
// counters (Table I), the Jacobi domain-size scaling study (Fig. 12) —
// plus the §V-B/§VI-D ablations.
//
// Absolute times come from an interpreted device on CPU cores, so only
// the *relative* factors and their shape are comparable to the paper;
// each table prints the paper's reference numbers next to the measured
// ones (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cusango/internal/apps/halo2d"
	"cusango/internal/apps/jacobi"
	"cusango/internal/apps/tealeaf"
	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/tsan"
)

// App selects a mini-app.
type App uint8

// Mini-apps under evaluation. Jacobi and TeaLeaf are the paper's two
// (§V); Halo2D is this reproduction's strided-column exchange app, so
// its rows have no paper reference column.
const (
	Jacobi App = iota
	TeaLeaf
	Halo2D
)

func (a App) String() string {
	switch a {
	case Jacobi:
		return "Jacobi"
	case TeaLeaf:
		return "TeaLeaf"
	default:
		return "Halo2D"
	}
}

// ParseApp resolves a mini-app name (case-insensitive).
func ParseApp(s string) (App, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "jacobi":
		return Jacobi, nil
	case "tealeaf":
		return TeaLeaf, nil
	case "halo2d":
		return Halo2D, nil
	default:
		return Jacobi, fmt.Errorf("bench: unknown app %q", s)
	}
}

// Config tunes the harness.
type Config struct {
	// Ranks is the number of MPI processes (paper: 2 nodes x 1 GPU).
	Ranks int
	// Runs is the number of measured runs; the average is reported
	// (paper: 4 runs plus one uncounted warmup).
	Runs int
	// Warmup runs are executed and discarded.
	Warmup int
	// Apps selects which mini-apps the overhead experiments iterate
	// (default: Jacobi and TeaLeaf, the paper's pair).
	Apps []App
	// JacobiCfg, TeaLeafCfg and Halo2DCfg parameterize the apps.
	JacobiCfg  jacobi.Config
	TeaLeafCfg tealeaf.Config
	Halo2DCfg  halo2d.Config
	// Fig12Sizes is the Jacobi domain sweep (global NX x NY pairs).
	Fig12Sizes [][2]int
	// TSanCfg is the sanitizer configuration every measurement runs
	// under (cusan-bench -engine slow selects the reference walk here);
	// experiment-specific ablations override individual fields.
	TSanCfg tsan.Config
}

// DefaultConfig returns the benchmark defaults (scaled-down analogs of
// the paper's models; see DESIGN.md).
func DefaultConfig() Config {
	return Config{
		Ranks:      2,
		Runs:       2,
		Warmup:     1,
		Apps:       []App{Jacobi, TeaLeaf},
		JacobiCfg:  jacobi.DefaultConfig(),
		TeaLeafCfg: tealeaf.DefaultConfig(),
		Halo2DCfg:  halo2d.DefaultConfig(),
		Fig12Sizes: [][2]int{{64, 32}, {128, 64}, {256, 128}, {512, 256}, {1024, 512}},
	}
}

// ReducedConfig returns the scaled-down workload the perf harness and
// the top-level benchmarks share: large enough that overhead ratios
// keep the paper's shape, small enough that R repeats of every flavor
// fit a CI gate. Changing these sizes changes canonical BENCH params —
// refresh bench/baselines afterwards.
func ReducedConfig() Config {
	return Config{
		Ranks:      2,
		Runs:       1,
		Warmup:     0,
		JacobiCfg:  jacobi.Config{NX: 128, NY: 64, Iters: 50},
		TeaLeafCfg: tealeaf.Config{NX: 48, NY: 48, Iters: 20, K: 0.1},
		Halo2DCfg:  halo2d.Config{NX: 48, NY: 48, Iters: 40},
		Fig12Sizes: [][2]int{{64, 32}, {128, 64}, {256, 128}},
	}
}

// Measurement is one (app, flavor) data point.
type Measurement struct {
	App    App
	Flavor core.Flavor
	Wall   time.Duration
	RSS    int64 // modeled RSS, max over ranks
	Result *core.Result
	Runs   int
}

// runOnce executes the app once under the flavor and measures it.
func runOnce(app App, flavor core.Flavor, cfg Config, opts cusan.Options) (*Measurement, error) {
	var (
		res *core.Result
		err error
	)
	start := time.Now()
	switch app {
	case Jacobi:
		res, err = core.Run(core.Config{
			Flavor: flavor, Ranks: cfg.Ranks, Module: jacobi.Module(), CusanOpts: opts, TSanCfg: cfg.TSanCfg,
		}, func(s *core.Session) error {
			_, err := jacobi.Run(s, cfg.JacobiCfg)
			return err
		})
	case Halo2D:
		res, err = core.Run(core.Config{
			Flavor: flavor, Ranks: cfg.Ranks, Module: halo2d.AppModule(), CusanOpts: opts, TSanCfg: cfg.TSanCfg,
		}, func(s *core.Session) error {
			_, err := halo2d.Run(s, cfg.Halo2DCfg)
			return err
		})
	default:
		res, err = core.Run(core.Config{
			Flavor: flavor, Ranks: cfg.Ranks, Module: tealeaf.Module(), CusanOpts: opts, TSanCfg: cfg.TSanCfg,
		}, func(s *core.Session) error {
			_, err := tealeaf.Run(s, cfg.TeaLeafCfg)
			return err
		})
	}
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	var rss int64
	for i := range res.Ranks {
		if m := res.Ranks[i].ModeledRSS(); m > rss {
			rss = m
		}
	}
	return &Measurement{App: app, Flavor: flavor, Wall: wall, RSS: rss, Result: res}, nil
}

// Measure runs warmup + measured runs and returns the averaged point.
func Measure(app App, flavor core.Flavor, cfg Config, opts cusan.Options) (*Measurement, error) {
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := runOnce(app, flavor, cfg, opts); err != nil {
			return nil, err
		}
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	var acc *Measurement
	for i := 0; i < runs; i++ {
		m, err := runOnce(app, flavor, cfg, opts)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = m
		} else {
			acc.Wall += m.Wall
			if m.RSS > acc.RSS {
				acc.RSS = m.RSS
			}
		}
	}
	acc.Wall /= time.Duration(runs)
	acc.Runs = runs
	return acc, nil
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f2(x float64) string         { return fmt.Sprintf("%.2f", x) }
func mb(b int64) string           { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }
