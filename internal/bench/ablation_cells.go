package bench

import (
	"fmt"

	"cusango/internal/core"
	"cusango/internal/cusan"
)

// CellsAblation measures the shadow-memory design choice DESIGN.md calls
// out: the number of shadow cells kept per 8-byte granule (TSan uses 4;
// this reproduction defaults to 2). More cells remember more concurrent
// accessors (fewer evictions, fewer potentially missed races) at a
// proportional memory cost and a small runtime cost.
func CellsAblation(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Ablation — shadow cells per granule (TSan design point: 4; default here: 2)",
		Headers: []string{"cells", "wall", "rel vs vanilla", "shadow[KiB]", "races"},
		Notes: []string{
			"Jacobi under MUST & CuSan; the correct program must stay at 0 races at every setting",
		},
	}
	base, err := Measure(Jacobi, core.Vanilla, cfg, cusan.Options{})
	if err != nil {
		return nil, err
	}
	for _, cells := range []int{1, 2, 4} {
		ccfg := cfg
		ccfg.TSanCfg.CellsPerGranule = cells
		m, err := Measure(Jacobi, core.MUSTCuSan, ccfg, cusan.Options{})
		if err != nil {
			return nil, err
		}
		var shadow int64
		for i := range m.Result.Ranks {
			if s := m.Result.Ranks[i].ShadowBytes; s > shadow {
				shadow = s
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", cells),
			secs(m.Wall),
			f2(m.Wall.Seconds() / base.Wall.Seconds()),
			fmt.Sprintf("%.1f", float64(shadow)/1024),
			fmt.Sprintf("%d", m.Result.TotalRaces()),
		})
	}
	return t, nil
}
