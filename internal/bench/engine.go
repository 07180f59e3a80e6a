package bench

import (
	"fmt"

	"cusango/internal/core"
	"cusango/internal/cusan"
	"cusango/internal/tsan"
)

// EngineAblation compares the shadow-range engines end to end: the
// batched run engine (default) and the granule-at-a-time reference
// walk that doubles as the differential oracle. The engine counters
// come from the cusan Table-I snapshot of rank 0.
func EngineAblation(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Shadow engine — batched range engine vs. reference walk (Jacobi, MUST & CuSan)",
		Headers: []string{"engine", "wall", "rel vs slow", "pages", "granules", "fast%"},
		Notes: []string{
			"fast% = interior granules stored via the full-mask fast path; slow engine reports no counters",
			"both engines produce identical race reports and shadow state (see internal/tsan differential tests)",
		},
	}
	variants := []struct {
		name   string
		engine tsan.Engine
	}{
		{"slow (reference)", tsan.EngineSlow},
		{"batched (default)", tsan.EngineBatched},
	}
	var slowWall float64
	for _, v := range variants {
		ecfg := cfg
		ecfg.TSanCfg.Engine = v.engine
		m, err := Measure(Jacobi, core.MUSTCuSan, ecfg, cusan.Options{})
		if err != nil {
			return nil, err
		}
		if slowWall == 0 {
			slowWall = m.Wall.Seconds()
		}
		c := m.Result.Ranks[0].CudaCtrs
		fastPct := "-"
		if c.EngineGranules > 0 {
			fastPct = f2(100 * float64(c.EngineFastGranules) / float64(c.EngineGranules))
		}
		t.Rows = append(t.Rows, []string{
			v.name, secs(m.Wall),
			f2(m.Wall.Seconds() / slowWall),
			fmt.Sprintf("%d", c.EnginePages),
			fmt.Sprintf("%d", c.EngineGranules),
			fastPct,
		})
	}
	return t, nil
}
