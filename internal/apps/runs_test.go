package apps

import (
	"testing"

	"cusango/internal/core"
)

// TestRunChecksPerLaunchBounded pins the run store's cost law on the
// mini-apps: a launch costs one run check per 32-KiB shadow window its
// ranges touch plus a small constant (split halo rows, partial edges),
// not one check per 8-byte granule. The constant must not grow with the
// grid: two sizes 64x apart in tracked bytes stay under the same bound.
func TestRunChecksPerLaunchBounded(t *testing.T) {
	const (
		extraPerLaunch = 3.0 // run checks beyond one per window, per launch
		perWindow      = 1.5 // run checks per window touched
	)
	for _, name := range []string{"jacobi", "tealeaf"} {
		app, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var granules []float64
		for _, size := range [][2]int{{64, 32}, {512, 256}} {
			res, err := core.Run(core.Config{Flavor: core.MUSTCuSan, Ranks: 2, Module: app.Module()},
				func(s *core.Session) error {
					_, err := app.Run(s, Options{NX: size[0], NY: size[1], Iters: 10})
					return err
				})
			if err == nil {
				err = res.FirstError()
			}
			if err != nil {
				t.Fatalf("%s %v: %v", name, size, err)
			}
			for _, r := range res.Ranks {
				st, launches := r.TSanStats, float64(r.CudaCtrs.KernelCalls)
				extra := float64(st.EngineRuns-st.EnginePages) / launches
				ratio := float64(st.EngineRuns) / float64(st.EnginePages)
				if extra > extraPerLaunch || ratio > perWindow {
					t.Errorf("%s %v rank %d: %d run checks over %d windows in %.0f launches: %.2f extra per launch (max %.1f), %.2f per window (max %.1f)",
						name, size, r.Rank, st.EngineRuns, st.EnginePages, launches,
						extra, extraPerLaunch, ratio, perWindow)
				}
				if r.Rank == 0 {
					granules = append(granules, float64(st.EngineGranules)/launches)
				}
			}
		}
		// The bound is only meaningful if the granule walk it replaces
		// grew with the grid.
		if granules[1] < 16*granules[0] {
			t.Errorf("%s: granules per launch %.0f -> %.0f; the sizes do not differ enough",
				name, granules[0], granules[1])
		}
	}
}
