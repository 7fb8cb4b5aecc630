package costmap

import (
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/geom"
)

// FuzzFootprintCost checks FootprintCost against the per-cell reference
// on arbitrary points, including off-map, non-finite and cell-boundary
// ones, over random cost grids of every footprint shape.
func FuzzFootprintCost(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.0, 0.0, 1.2, 1.0)
	f.Add(int64(2), uint8(1), -3.7, 1.3, -3.7, 1.3)        // the map's corner
	f.Add(int64(3), uint8(2), 0.0, 0.0, -0.2, 0.6)         // window hangs off the left edge
	f.Add(int64(4), uint8(3), 0.5, -0.25, 0.5+0.13*9, 0.0) // on a cell boundary
	f.Add(int64(5), uint8(4), 0.0, 0.0, 1.07, 1.05)        // the widest window
	f.Add(int64(6), uint8(0), 0.0, 0.0, math.Inf(1), 1.0)
	f.Add(int64(7), uint8(1), 0.0, 0.0, 1.0, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ox, oy, x, y float64) {
		c := randomFootprintMap(rand.New(rand.NewSource(seed)), int(shape), geom.V(ox, oy))
		p := geom.V(x, y)
		if got, want := c.FootprintCost(p), refFootprintCost(c, p); got != want {
			t.Fatalf("FootprintCost(%v) = %d, reference %d", p, got, want)
		}
	})
}
