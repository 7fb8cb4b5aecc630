package costmap

import (
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
)

// FuzzFootprintCost checks FootprintCost against the per-cell reference
// on arbitrary points, including off-map, non-finite and cell-boundary
// ones, over random cost grids of every footprint shape. It then fills
// a footprint table around a center drawn from the seed up to 14 cells
// from the point, with a reach of 0 to 12 cells, and checks the table's
// Cost at the point too: inside the square, on its edge or outside it.
func FuzzFootprintCost(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.0, 0.0, 1.2, 1.0)
	f.Add(int64(2), uint8(1), -3.7, 1.3, -3.7, 1.3)        // the map's corner
	f.Add(int64(3), uint8(2), 0.0, 0.0, -0.2, 0.6)         // window hangs off the left edge
	f.Add(int64(4), uint8(3), 0.5, -0.25, 0.5+0.13*9, 0.0) // on a cell boundary
	f.Add(int64(5), uint8(4), 0.0, 0.0, 1.07, 1.05)        // the widest window
	f.Add(int64(6), uint8(0), 0.0, 0.0, math.Inf(1), 1.0)
	f.Add(int64(7), uint8(1), 0.0, 0.0, 1.0, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ox, oy, x, y float64) {
		rng := rand.New(rand.NewSource(seed))
		c := randomFootprintMap(rng, int(shape), geom.V(ox, oy))
		p := geom.V(x, y)
		want := refFootprintCost(c, p)
		if got := c.FootprintCost(p); got != want {
			t.Fatalf("FootprintCost(%v) = %d, reference %d", p, got, want)
		}
		res := c.cfg.Resolution
		center := p.Add(geom.V(float64(rng.Intn(29)-14)*res, float64(rng.Intn(29)-14)*res))
		reach := float64(rng.Intn(13)) * res
		var tab FootprintTable
		tab.Fill(c, center, reach)
		if got := tab.Cost(p); got != want {
			t.Fatalf("table filled at %v, reach %v: Cost(%v) = %d, reference %d", center, reach, p, got, want)
		}
	})
}

// FuzzRebuildMatchesReference checks rebuild against the per-offset
// reference, on the master bytes and CellsInflated, over fuzzed kernels
// (resolution, robot and inflation radii, any CostScale, unknown
// handling) and layers: static occupied and unknown densities, an
// obstacle density, maps down to one cell wide, and lethal borders
// (border bits 0-3: bottom row, top row, left column, right column).
// A density of 255 makes every cell lethal. Negative and NaN scales
// build the clamped kernels of buildKernel.
func FuzzRebuildMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(59), uint8(39), 0.05, 0.105, 0.45, 8.0, false, uint8(10), uint8(40), uint8(5), uint8(0))
	f.Add(int64(2), uint8(0), uint8(40), 0.05, 0.105, 0.45, 8.0, true, uint8(60), uint8(60), uint8(30), uint8(15))  // 1×N
	f.Add(int64(3), uint8(40), uint8(0), 0.05, 0.105, 0.45, -3.0, false, uint8(60), uint8(60), uint8(30), uint8(0)) // N×1
	f.Add(int64(4), uint8(20), uint8(20), 0.05, 0.3, 0.2, 8.0, false, uint8(255), uint8(0), uint8(0), uint8(0))     // fully lethal
	f.Add(int64(5), uint8(30), uint8(25), 0.1, 0.15, 0.6, math.NaN(), false, uint8(20), uint8(80), uint8(10), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, w, h uint8, res, robot, inflation, scale float64, unknownLethal bool, occ, unknown, obst, border uint8) {
		if !(res >= 0.01 && res <= 1) || !(robot >= 0 && robot <= 20*res) || !(inflation >= 0 && inflation <= 20*res) {
			t.Skip("kernel or footprint outside the fuzzed range")
		}
		cfg := DefaultConfig(1+int(w%48), 1+int(h%48), res, geom.V(-0.3, 0.7))
		cfg.RobotRadius, cfg.InflationRadius, cfg.CostScale = robot, inflation, scale
		cfg.UnknownIsLethal = unknownLethal
		rng := rand.New(rand.NewSource(seed))
		c := New(cfg)
		m := grid.NewMap(cfg.Width, cfg.Height, cfg.Resolution, cfg.Origin, grid.Free)
		for i := range m.Cells {
			switch {
			case rng.Intn(255) < int(occ):
				m.Cells[i] = grid.Occupied
			case rng.Intn(255) < int(unknown):
				m.Cells[i] = grid.Unknown
			}
		}
		c.SetStatic(m)
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				onBorder := y == 0 && border&1 != 0 || y == cfg.Height-1 && border&2 != 0 ||
					x == 0 && border&4 != 0 || x == cfg.Width-1 && border&8 != 0
				if onBorder || rng.Intn(255) < int(obst) {
					c.obstacle[y*cfg.Width+x] = LethalCost
				}
			}
		}
		st := c.rebuild()
		want, inflated := refRebuild(c)
		if st.CellsInflated != inflated {
			t.Fatalf("CellsInflated = %d, reference %d", st.CellsInflated, inflated)
		}
		for i, v := range c.master {
			if v != want[i] {
				t.Fatalf("cell (%d, %d) = %d, reference %d", i%cfg.Width, i/cfg.Width, v, want[i])
			}
		}
	})
}
