package costmap

import (
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/world"
)

func newTestMap() (*Costmap, *grid.Map) {
	m := world.EmptyRoomMap(4, 4, 0.05)
	cfg := DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	c := New(cfg)
	c.SetStatic(m)
	return c, m
}

func TestStaticLayerLethalWalls(t *testing.T) {
	c, m := newTestMap()
	if c.Cost(geom.Cell{X: 0, Y: 0}) != LethalCost {
		t.Error("wall cell should be lethal")
	}
	if got := c.Cost(m.WorldToCell(geom.V(2, 2))); got != FreeCost {
		t.Errorf("room center cost = %d", got)
	}
}

func TestInflationGradient(t *testing.T) {
	c, m := newTestMap()
	// Walk from the wall toward the center: cost must be non-increasing.
	prev := c.Cost(m.WorldToCell(geom.V(0.025, 2)))
	if prev != LethalCost {
		t.Fatalf("wall = %d", prev)
	}
	for x := 0.075; x < 1.0; x += 0.05 {
		cur := c.Cost(m.WorldToCell(geom.V(x, 2)))
		if cur > prev {
			t.Fatalf("cost increased away from wall at x=%v: %d > %d", x, cur, prev)
		}
		prev = cur
	}
	// Inside the robot radius of the wall: at least inscribed.
	if got := c.Cost(m.WorldToCell(geom.V(0.1, 2))); got < InscribedCost {
		t.Errorf("cost at robot radius = %d, want >= %d", got, InscribedCost)
	}
	// Beyond the inflation radius: free.
	if got := c.Cost(m.WorldToCell(geom.V(2, 2))); got != FreeCost {
		t.Errorf("far cost = %d", got)
	}
}

func TestObstacleMarking(t *testing.T) {
	c, m := newTestMap()
	l := sensor.NewLaser(36, 3.5, 0, rand.New(rand.NewSource(1)))
	// Place a virtual obstacle by sensing a world that has one.
	obsWorld := m.Clone()
	obsWorld.Set(obsWorld.WorldToCell(geom.V(2.5, 2.0)), grid.Occupied)
	pose := geom.P(1.2, 2.0, 0)
	scan := l.Sense(obsWorld, pose, 0)
	st := c.Update(pose, scan)
	if st.CellsMarked == 0 || st.CellsCleared == 0 || st.CellsInflated == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := c.Cost(c.WorldToCell(geom.V(2.5, 2.0))); got != LethalCost {
		t.Errorf("sensed obstacle cost = %d", got)
	}
}

func TestObstacleClearing(t *testing.T) {
	c, m := newTestMap()
	l := sensor.NewLaser(36, 3.5, 0, rand.New(rand.NewSource(1)))
	pose := geom.P(1.2, 2.0, 0)

	// First scan sees an obstacle.
	obsWorld := m.Clone()
	obsWorld.Set(obsWorld.WorldToCell(geom.V(2.5, 2.0)), grid.Occupied)
	c.Update(pose, l.Sense(obsWorld, pose, 0))
	if c.Cost(c.WorldToCell(geom.V(2.5, 2.0))) != LethalCost {
		t.Fatal("obstacle not marked")
	}
	// Second scan sees it gone: the beam passes through and clears it.
	c.Update(pose, l.Sense(m, pose, 1))
	if got := c.Cost(c.WorldToCell(geom.V(2.5, 2.0))); got == LethalCost {
		t.Errorf("obstacle not cleared, cost = %d", got)
	}
}

func TestUnknownHandling(t *testing.T) {
	m := grid.NewMap(40, 40, 0.05, geom.V(0, 0), grid.Unknown)
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			m.Set(geom.Cell{X: x, Y: y}, grid.Free)
		}
	}
	cfg := DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	c := New(cfg)
	c.SetStatic(m)
	if c.Cost(geom.Cell{X: 0, Y: 0}) != UnknownCost {
		t.Error("unknown cell should cost UnknownCost")
	}
	if c.Cost(geom.Cell{X: 20, Y: 20}) != FreeCost {
		t.Error("known free cell should be free")
	}
	// UnknownIsLethal mode.
	cfg.UnknownIsLethal = true
	c2 := New(cfg)
	c2.SetStatic(m)
	if c2.Cost(geom.Cell{X: 0, Y: 0}) != LethalCost {
		t.Error("unknown should be lethal in conservative mode")
	}
}

func TestFootprintCost(t *testing.T) {
	c, _ := newTestMap()
	if got := c.FootprintCost(geom.V(2, 2)); got != FreeCost {
		t.Errorf("center footprint = %d", got)
	}
	if got := c.FootprintCost(geom.V(0.08, 2)); got < InscribedCost {
		t.Errorf("footprint against wall = %d", got)
	}
}

func TestIsTraversable(t *testing.T) {
	c, m := newTestMap()
	if !c.IsTraversable(m.WorldToCell(geom.V(2, 2))) {
		t.Error("center must be traversable")
	}
	if c.IsTraversable(geom.Cell{X: 0, Y: 0}) {
		t.Error("wall must not be traversable")
	}
	if c.IsTraversable(geom.Cell{X: -5, Y: 0}) {
		t.Error("out of bounds must not be traversable")
	}
}

func TestUpdateStatsTotal(t *testing.T) {
	s := UpdateStats{CellsCleared: 1, CellsMarked: 2, CellsInflated: 3}
	if s.Total() != 6 {
		t.Errorf("total = %d", s.Total())
	}
}

func TestOutOfRangeBeamDoesNotMark(t *testing.T) {
	c, m := newTestMap()
	// Beam hits the wall ~2.8 m away but MaxObstacleDist is 3.0; use a
	// custom config with a short marking range to verify the cutoff.
	cfg := c.Config()
	cfg.MaxObstacleDist = 1.0
	c2 := New(cfg)
	c2.SetStatic(grid.NewMap(m.Width, m.Height, m.Resolution, m.Origin, grid.Free))
	l := sensor.NewLaser(1, 3.5, 0, rand.New(rand.NewSource(1)))
	pose := geom.P(1.2, 2.0, 3.14159265) // aim the single -π beam at +x
	scan := l.Sense(m, pose, 0)
	st := c2.Update(pose, scan)
	if st.CellsMarked != 0 {
		t.Errorf("beam beyond MaxObstacleDist marked %d cells", st.CellsMarked)
	}
}

// BenchmarkFootprintCost times one footprint check at points spread
// over the Fig. 13 lab map, walls and their inflation included.
func BenchmarkFootprintCost(b *testing.B) {
	m := world.LabMap()
	c := New(DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin))
	c.SetStatic(m)
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vec2, 1024)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*12, rng.Float64()*6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		footprintSink = c.FootprintCost(pts[i%len(pts)])
	}
}

var footprintSink uint8

// BenchmarkCostmapUpdate times one full update (clearing, marking and
// re-inflation) from a 360-beam scan on the Fig. 13 lab map.
func BenchmarkCostmapUpdate(b *testing.B) {
	m := world.LabMap()
	cfg := DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	c := New(cfg)
	c.SetStatic(m)
	l := sensor.NewLDS01(0.01, rand.New(rand.NewSource(1)))
	pose := geom.P(1, 1, 0)
	scan := l.Sense(m, pose, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(pose, scan)
	}
}

// BenchmarkCostmapRebuild times rebuild alone (recombining the layers
// and re-inflating) on the Fig. 13 lab map, after one 360-beam scan's
// Update has marked its obstacles.
func BenchmarkCostmapRebuild(b *testing.B) {
	m := world.LabMap()
	c := New(DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin))
	c.SetStatic(m)
	pose := geom.P(1, 1, 0)
	c.Update(pose, sensor.NewLDS01(0.01, rand.New(rand.NewSource(1))).Sense(m, pose, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.rebuild()
	}
}

func TestInflationKernelSymmetry(t *testing.T) {
	// Property: the inflated cost field around a single lethal cell must
	// be symmetric under the 8 grid symmetries.
	m := grid.NewMap(41, 41, 0.05, geom.V(0, 0), grid.Free)
	m.Set(geom.Cell{X: 20, Y: 20}, grid.Occupied)
	cfg := DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	c := New(cfg)
	c.SetStatic(m)
	for dy := 0; dy <= 10; dy++ {
		for dx := 0; dx <= 10; dx++ {
			ref := c.Cost(geom.Cell{X: 20 + dx, Y: 20 + dy})
			for _, p := range [][2]int{{-dx, dy}, {dx, -dy}, {-dx, -dy}, {dy, dx}, {-dy, dx}, {dy, -dx}, {-dy, -dx}} {
				got := c.Cost(geom.Cell{X: 20 + p[0], Y: 20 + p[1]})
				if got != ref {
					t.Fatalf("asymmetry at (%d,%d) vs (%d,%d): %d != %d",
						dx, dy, p[0], p[1], got, ref)
				}
			}
		}
	}
}

// TestInflationKernelOrders asserts, for every CostScale including
// negative, infinite and NaN ones, the kernel orders rebuild's
// dominance rules rest on: no cost is UnknownCost, costs never fall
// towards the center along a row (dx <= -1) or a column (dy <= -1).
func TestInflationKernelOrders(t *testing.T) {
	for _, geo := range []struct{ res, robot, inflation float64 }{
		{0.05, 0.105, 0.45}, {0.1, 0.15, 0.3}, {0.03, 0.105, 0.4}, {0.05, 0.3, 0.2},
	} {
		for _, scale := range []float64{0, 8, -1, -3, -20, math.NaN(), math.Inf(-1), math.Inf(1)} {
			cfg := DefaultConfig(8, 8, geo.res, geom.V(0, 0))
			cfg.RobotRadius, cfg.InflationRadius, cfg.CostScale = geo.robot, geo.inflation, scale
			c := New(cfg)
			r := int(math.Ceil(cfg.InflationRadius / cfg.Resolution))
			n := 2*r + 1
			k := make([]uint8, n*n) // K(dx, dy) at (dy+r)*n + dx+r; 0 outside the kernel
			for _, row := range c.inflation {
				copy(k[(row.dy+r)*n+r-row.half:], row.costs)
			}
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					cost := k[(dy+r)*n+dx+r]
					switch {
					case cost == UnknownCost:
						t.Fatalf("%+v scale %v: K(%d, %d) = UnknownCost", geo, scale, dx, dy)
					case dx <= -1 && cost > k[(dy+r)*n+dx+1+r]:
						t.Fatalf("%+v scale %v: K(%d, %d) = %d > K(%d, %d) = %d", geo, scale, dx, dy, cost, dx+1, dy, k[(dy+r)*n+dx+1+r])
					case dy <= -1 && cost > k[(dy+1+r)*n+dx+r]:
						t.Fatalf("%+v scale %v: K(%d, %d) = %d > K(%d, %d) = %d", geo, scale, dx, dy, cost, dx, dy+1, k[(dy+1+r)*n+dx+r])
					}
				}
			}
		}
	}
}

func TestRepeatedIdenticalUpdatesConverge(t *testing.T) {
	// Property: applying the same scan twice leaves the master grid
	// unchanged after the first application (idempotence of the layers).
	c, m := newTestMap()
	l := sensor.NewLaser(36, 3.5, 0, rand.New(rand.NewSource(2)))
	pose := geom.P(1.5, 2.0, 0.3)
	scan := l.Sense(m, pose, 0)
	c.Update(pose, scan)
	first := c.Snapshot()
	c.Update(pose, scan)
	second := c.Snapshot()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("identical update changed cell %d: %d -> %d", i, first[i], second[i])
		}
	}
}
