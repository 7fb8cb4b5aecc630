package costmap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/world"
)

// refFootprintCost is the per-cell footprint check the row-span kernel
// replaced: every cell of the window computes its own center, clamp and
// distance, and reads its cost through the bounds-checked Cost. Kept as
// the reference FootprintCost must match exactly.
func refFootprintCost(c *Costmap, p geom.Vec2) uint8 {
	rCells := int(math.Ceil(c.cfg.RobotRadius/c.cfg.Resolution)) + 1
	center := c.WorldToCell(p)
	r2 := c.cfg.RobotRadius * c.cfg.RobotRadius
	half := c.cfg.Resolution / 2
	worst := FreeCost
	for dy := -rCells; dy <= rCells; dy++ {
		for dx := -rCells; dx <= rCells; dx++ {
			cell := geom.Cell{X: center.X + dx, Y: center.Y + dy}
			cw := c.CellToWorld(cell)
			closest := geom.V(
				geom.Clamp(p.X, cw.X-half, cw.X+half),
				geom.Clamp(p.Y, cw.Y-half, cw.Y+half),
			)
			if closest.DistSq(p) > r2 {
				continue
			}
			cost := c.Cost(cell)
			if cost == UnknownCost {
				cost = InscribedCost
			}
			if cost > worst {
				worst = cost
			}
		}
	}
	return worst
}

// refKernel is the per-offset inflation kernel the row spans replaced:
// every offset within the inflation radius in raster order, with its
// cost.
func refKernel(cfg Config) ([]geom.Cell, []uint8) {
	var offs []geom.Cell
	var costs []uint8
	r := int(math.Ceil(cfg.InflationRadius / cfg.Resolution))
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			d := math.Hypot(float64(dx), float64(dy)) * cfg.Resolution
			if d > cfg.InflationRadius {
				continue
			}
			var cost uint8
			switch {
			case dx == 0 && dy == 0:
				cost = LethalCost
			case d <= cfg.RobotRadius:
				cost = InscribedCost
			default:
				v := 252 * math.Exp(-cfg.CostScale*(d-cfg.RobotRadius))
				if !(v >= 1) {
					continue
				}
				cost = uint8(min(v, 252))
			}
			offs = append(offs, geom.Cell{X: dx, Y: dy})
			costs = append(costs, cost)
		}
	}
	return offs, costs
}

// refRebuild is the per-offset scatter inflation the row-span kernel
// replaced: it combines c's layers into a fresh master grid and stamps
// every kernel offset around every lethal cell with its own bounds
// check. It returns that grid and its CellsInflated count.
func refRebuild(c *Costmap) ([]uint8, int) {
	master := make([]uint8, len(c.master))
	for i := range master {
		v := c.static[i]
		if c.obstacle[i] == LethalCost {
			v = LethalCost
		}
		master[i] = v
	}
	offs, kernel := refKernel(c.cfg)
	inflated := 0
	w, h := c.cfg.Width, c.cfg.Height
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if c.static[i] != LethalCost && c.obstacle[i] != LethalCost {
				continue
			}
			for k, off := range offs {
				nx, ny := x+off.X, y+off.Y
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				j := ny*w + nx
				if cost := kernel[k]; master[j] != UnknownCost && cost > master[j] {
					master[j] = cost
					inflated++
				} else if master[j] == UnknownCost && cost >= InscribedCost {
					master[j] = cost
					inflated++
				}
			}
		}
	}
	return master, inflated
}

// refUpdate is Update before its bounds-free clearing walk: every beam
// walks geom.Bresenham with a bounds and end-cell test per cell and
// clears only lethal cells, and refRebuild recombines the layers. It
// updates c's obstacle layer, replaces its master grid and returns the
// work done.
func refUpdate(c *Costmap, pose geom.Pose, scan *sensor.Scan) UpdateStats {
	var st UpdateStats
	origin := c.WorldToCell(pose.Pos)
	for i := 0; i < scan.NumBeams(); i++ {
		r := scan.Ranges[i]
		end := scan.Endpoint(pose, i)
		endCell := c.WorldToCell(end)
		// Clear along the beam, the end cell excluded.
		geom.Bresenham(origin, endCell, func(cell geom.Cell) bool {
			if !c.InBounds(cell) {
				return false
			}
			if cell == endCell {
				return false
			}
			if c.obstacle[c.idx(cell)] == LethalCost {
				c.obstacle[c.idx(cell)] = FreeCost
			}
			st.CellsCleared++
			return true
		})
		if scan.IsHit(i) && r <= c.cfg.MaxObstacleDist && c.InBounds(endCell) {
			c.obstacle[c.idx(endCell)] = LethalCost
			st.CellsMarked++
		}
	}
	master, inflated := refRebuild(c)
	copy(c.master, master)
	st.CellsInflated = inflated
	return st
}

// randomCostmap builds a costmap whose static layer holds random
// occupied, free and unknown cells and whose obstacle layer holds random
// lethal cells, denser on the map border. The master grid is left to
// the caller's rebuild.
func randomCostmap(rng *rand.Rand, cfg Config) *Costmap {
	c := New(cfg)
	m := grid.NewMap(cfg.Width, cfg.Height, cfg.Resolution, cfg.Origin, grid.Free)
	for i := range m.Cells {
		switch r := rng.Float64(); {
		case r < 0.04:
			m.Cells[i] = grid.Occupied
		case r < 0.20:
			m.Cells[i] = grid.Unknown
		}
	}
	c.SetStatic(m)
	w, h := cfg.Width, cfg.Height
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := 0.02
			if x == 0 || y == 0 || x == w-1 || y == h-1 {
				p = 0.3
			}
			if rng.Float64() < p {
				c.obstacle[y*w+x] = LethalCost
			}
		}
	}
	return c
}

// footprintShapes are robot-radius/resolution pairs whose footprint
// windows reach 3 to 51 cells from the center. The last radius is a
// whole number of cells, so cells of the ring touch the disc exactly.
// New shapes go at the end: the fuzz corpus picks shapes by index.
var footprintShapes = []struct{ radius, res float64 }{
	{0.105, 0.05},
	{0.105, 0.1},
	{0.2, 0.03},
	{0.105, 0.013},
	{0.5, 0.01},
	{0.1, 0.05},
}

// randomFootprintMap builds a costmap of the given footprint shape, at
// least two windows wide, with a random master grid.
func randomFootprintMap(rng *rand.Rand, shape int, origin geom.Vec2) *Costmap {
	s := footprintShapes[shape%len(footprintShapes)]
	span := 2*(int(math.Ceil(s.radius/s.res))+1) + 1
	cfg := DefaultConfig(max(48, 2*span+8), max(40, 2*span+6), s.res, origin)
	cfg.RobotRadius = s.radius
	c := New(cfg)
	randomMaster(rng, c)
	return c
}

// randomMaster fills c's master grid with random costs: mostly free to
// decayed, some inscribed, lethal and unknown.
func randomMaster(rng *rand.Rand, c *Costmap) {
	rng.Read(c.master)
	for i, b := range c.master {
		switch {
		case b < 3:
			c.master[i] = LethalCost
		case b < 16:
			c.master[i] = UnknownCost
		case b < 19:
			c.master[i] = InscribedCost
		default:
			c.master[i] = b % InscribedCost
		}
	}
}

func TestFootprintCostMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for shape := range footprintShapes {
		for _, origin := range []geom.Vec2{{}, geom.V(-3.7, 1.3)} {
			c := randomFootprintMap(rng, shape, origin)
			cfg := c.Config()
			wm, hm := float64(cfg.Width)*cfg.Resolution, float64(cfg.Height)*cfg.Resolution
			span := 2*c.fpCells + 1
			for i := 0; i < min(4000, 2_000_000/(span*span)); i++ {
				// Points up to half a meter past every edge, and every
				// fourth one on a cell boundary.
				p := geom.V(
					origin.X-0.5+rng.Float64()*(wm+1),
					origin.Y-0.5+rng.Float64()*(hm+1),
				)
				if i%4 == 0 {
					p.X = origin.X + math.Round((p.X-origin.X)/cfg.Resolution)*cfg.Resolution
				}
				if got, want := c.FootprintCost(p), refFootprintCost(c, p); got != want {
					t.Fatalf("shape %d origin %v: FootprintCost(%v) = %d, reference %d", shape, origin, p, got, want)
				}
			}
		}
	}
}

// TestFootprintSplitMatchesReference holds FootprintCost to the
// reference at the edges of the core/ring split: radii of exactly one,
// two and three cells and radii a few margins off a cell distance,
// points on and one ulp around cell corners, and origins from 0 to
// 1e12, so the split is on for the first three maps (the third close to
// its rounding limit) and off for the last two.
func TestFootprintSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	origins := []struct {
		o     geom.Vec2
		split bool
	}{
		{geom.V(0, 0), true},
		{geom.V(1e3, -1e3), true},
		{geom.V(-2e6, 3e6), true},
		{geom.V(1e7, 1e7), false},
		{geom.V(1e12, -1e12), false},
	}
	for _, cells := range []float64{1, 2, 3, 1 + 3*fpMargin, math.Sqrt2 + 3*fpMargin, 2 - 3*fpMargin} {
		for _, org := range origins {
			const res = 0.05
			cfg := DefaultConfig(40, 36, res, org.o)
			cfg.RobotRadius = cells * res
			c := New(cfg)
			if got := len(c.fpCore) > 0; got != org.split {
				t.Fatalf("radius %v cells, origin %v: split on = %v, want %v", cells, org.o, got, org.split)
			}
			randomMaster(rng, c)
			for i := 0; i < 3000; i++ {
				x := org.o.X + float64(rng.Intn(cfg.Width+2)-1)*res
				y := org.o.Y + float64(rng.Intn(cfg.Height+2)-1)*res
				if i%3 == 1 {
					x = math.Nextafter(x, math.Inf(rng.Intn(2)*2-1))
					y = math.Nextafter(y, math.Inf(rng.Intn(2)*2-1))
				} else if i%3 == 2 {
					x += rng.Float64() * res
					y += rng.Float64() * res
				}
				p := geom.V(x, y)
				if got, want := c.FootprintCost(p), refFootprintCost(c, p); got != want {
					t.Fatalf("radius %v cells, origin %v: FootprintCost(%v) = %d, reference %d", cells, org.o, p, got, want)
				}
			}
		}
	}
}

// TestFootprintTableMatchesReference fills footprint tables and holds
// their Cost to the per-cell reference. The maps are the lab map after
// random updates and random master grids of every footprint shape, the
// split off (a 1e12 origin) and a one-cell window among them, each
// redrawn between fill rounds. Fills are centered in the middle of the
// map, next to each edge and off the map, with reaches of 0 to 12
// cells. The points checked have center cells inside the square, on
// its edge and one cell outside it, or lie off the map, or have
// non-finite coordinates. A NaN, infinite or huge reach fills every
// center whose window lies on the map, and a negative one a 3 × 3
// square.
func TestFootprintTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type mapCase struct {
		name   string
		c      *Costmap
		redraw func()
	}
	var cases []mapCase
	lab := world.LabMap()
	labMap := New(DefaultConfig(lab.Width, lab.Height, lab.Resolution, lab.Origin))
	labMap.SetStatic(lab)
	cases = append(cases, mapCase{"lab", labMap, func() { labMap.Update(randomUpdateScan(rng, labMap)) }})
	random := func(name string, c *Costmap) {
		cases = append(cases, mapCase{name, c, func() { randomMaster(rng, c) }})
	}
	for shape := range footprintShapes {
		random(fmt.Sprintf("shape %d", shape), randomFootprintMap(rng, shape, geom.V(-3.7, 1.3)))
	}
	splitOff := randomFootprintMap(rng, 0, geom.V(1e12, -1e12))
	if len(splitOff.fpCore) != 0 {
		t.Fatal("split on at a 1e12 origin")
	}
	random("split off", splitOff)
	oneCell := DefaultConfig(40, 36, 0.05, geom.V(0.3, -0.2))
	oneCell.RobotRadius = -0.05
	random("one-cell window", New(oneCell))
	if c := cases[len(cases)-1].c; c.fpCells != 0 || len(c.fpWin) != 1 {
		t.Fatalf("one-cell window: %d cells around the center, %d in all", c.fpCells, len(c.fpWin))
	}

	var tab FootprintTable
	for _, mc := range cases {
		c := mc.c
		cfg := c.Config()
		w, h, res := cfg.Width, cfg.Height, cfg.Resolution
		// The reference costs the window's size per point: the 289- and
		// 441-cell windows (shapes 2 and 3) get one round and every third
		// reach, and the widest (shape 4, 10,609 cells) reaches 0 and 12
		// from three centers and no whole-map fills.
		centers := [][2]int{{w / 2, h / 2}, {0, h / 2}, {-3, h / 2}, {w - 1, h / 2}, {w / 2, 0}, {w / 2, h - 1}, {w / 2, h + 20}}
		rounds, step := 2, 1
		big := len(c.fpWin) > 2000
		switch {
		case big:
			rounds, step, centers = 1, 12, centers[:3]
		case len(c.fpWin) > 100:
			rounds, step = 1, 3
		}
		// A point in the cell, one time in four on its corner.
		inCell := func(x, y int) geom.Vec2 {
			p := geom.V(cfg.Origin.X+float64(x)*res, cfg.Origin.Y+float64(y)*res)
			if rng.Intn(4) > 0 {
				p = p.Add(geom.V(rng.Float64()*res, rng.Float64()*res))
			}
			return p
		}
		check := func(what string, p geom.Vec2) {
			t.Helper()
			if got, want := tab.Cost(p), refFootprintCost(c, p); got != want {
				t.Fatalf("%s, %s: table Cost(%v) = %d, reference %d", mc.name, what, p, got, want)
			}
		}
		nan, inf := math.NaN(), math.Inf(1)
		offMap := []geom.Vec2{
			geom.V(cfg.Origin.X-1, cfg.Origin.Y+0.5*float64(h)*res),
			geom.V(cfg.Origin.X+float64(w)*res+0.3, cfg.Origin.Y),
			geom.V(nan, cfg.Origin.Y), geom.V(cfg.Origin.X, nan), geom.V(nan, nan),
			geom.V(inf, cfg.Origin.Y), geom.V(-inf, -inf), geom.V(1e308, -1e308),
		}
		for round := 0; round < rounds; round++ {
			mc.redraw()
			for _, ctr := range centers {
				for k := 0; k <= 12; k += step {
					tab.Fill(c, inCell(ctr[0], ctr[1]), float64(k)*res)
					for _, dy := range []int{-k - 2, -k - 1, -k, 0, k, k + 1, k + 2} {
						for _, dx := range []int{-k - 2, -k - 1, -k, 0, k, k + 1, k + 2} {
							check(fmt.Sprintf("fill at %v reach %d", ctr, k), inCell(ctr[0]+dx, ctr[1]+dy))
						}
					}
					for _, p := range offMap {
						check(fmt.Sprintf("fill at %v reach %d", ctr, k), p)
					}
				}
			}
		}
		if big {
			continue
		}
		lo := max(c.fpCells, 0)
		for _, reach := range []float64{nan, inf, 1e308, -1e308, -inf} {
			tab.Fill(c, inCell(w/2, h/2), reach)
			if len(tab.folds) > w*h {
				t.Fatalf("%s, reach %v: %d entries on a %d-cell map", mc.name, reach, len(tab.folds), w*h)
			}
			wantW, wantH := w-2*lo, h-2*lo
			if reach < 0 {
				wantW, wantH = 3, 3
			}
			if tab.w != wantW || tab.h != wantH {
				t.Fatalf("%s, reach %v: %d × %d square, want %d × %d", mc.name, reach, tab.w, tab.h, wantW, wantH)
			}
			for i := 0; i < 50; i++ {
				check(fmt.Sprintf("reach %v", reach), inCell(rng.Intn(w+2)-1, rng.Intn(h+2)-1))
			}
		}
	}
}

func TestRebuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		res, robot, inflation, scale float64
		unknownLethal                bool
	}{
		{0.05, 0.105, 0.45, 8, false},
		{0.05, 0.105, 0.45, 8, true},
		{0.1, 0.15, 0.3, 3, false},
		{0.03, 0.105, 0.4, 20, false}, // decay cuts the kernel's corners short
		{0.05, 0.3, 0.2, 8, false},    // inflation radius inside the robot radius
	}
	for ci, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			cfg := DefaultConfig(37+trial*9, 29+trial*5, tc.res, geom.V(-1.1, 0.4))
			cfg.RobotRadius, cfg.InflationRadius, cfg.CostScale = tc.robot, tc.inflation, tc.scale
			cfg.UnknownIsLethal = tc.unknownLethal
			c := randomCostmap(rng, cfg)
			st := c.rebuild()
			want, inflated := refRebuild(c)
			if st.CellsInflated != inflated {
				t.Fatalf("case %d trial %d: CellsInflated = %d, reference %d", ci, trial, st.CellsInflated, inflated)
			}
			got := c.Snapshot()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %d trial %d: cell %d = %d, reference %d", ci, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// cloneCostmap returns a costmap with c's configuration and layers.
func cloneCostmap(c *Costmap) *Costmap {
	d := New(c.cfg)
	copy(d.static, c.static)
	copy(d.obstacle, c.obstacle)
	copy(d.master, c.master)
	return d
}

// randomUpdateScan returns a pose and a scan for TestUpdateMatchesReference:
// an origin on the map, or one time in four up to 2 m off it, a maximum
// range from half a meter to past the map, and beams in every octant
// (one scan in four along the axes and diagonals) that are zero-length,
// max-range misses, hits within and beyond the marking range, or long
// enough to leave the map.
func randomUpdateScan(rng *rand.Rand, c *Costmap) (geom.Pose, *sensor.Scan) {
	cfg := c.Config()
	wm, hm := float64(cfg.Width)*cfg.Resolution, float64(cfg.Height)*cfg.Resolution
	pos := geom.V(cfg.Origin.X+rng.Float64()*wm, cfg.Origin.Y+rng.Float64()*hm)
	if rng.Intn(4) == 0 {
		pos = geom.V(cfg.Origin.X-2+rng.Float64()*(wm+4), cfg.Origin.Y-2+rng.Float64()*(hm+4))
	}
	maxRange := 0.5 + rng.Float64()*(max(wm, hm)+2)
	scan := &sensor.Scan{
		AngleMin: -math.Pi + rng.Float64(),
		AngleInc: 2 * math.Pi / float64(1+rng.Intn(90)),
		MaxRange: maxRange,
		Ranges:   make([]float64, 1+rng.Intn(90)),
	}
	for i := range scan.Ranges {
		switch rng.Intn(5) {
		case 0:
			scan.Ranges[i] = 0
		case 1:
			scan.Ranges[i] = maxRange
		case 2:
			scan.Ranges[i] = rng.Float64() * cfg.MaxObstacleDist
		default:
			scan.Ranges[i] = rng.Float64() * maxRange
		}
	}
	heading := rng.Float64()*2*math.Pi - math.Pi
	if rng.Intn(4) == 0 {
		// Axis and diagonal beams: the Bresenham error term ties.
		heading, scan.AngleMin, scan.AngleInc = 0, -math.Pi, math.Pi/4
	}
	return geom.P(pos.X, pos.Y, heading), scan
}

// TestUpdateMatchesReference runs sequences of updates on the lab map
// and on a random map, and after each one holds the obstacle layer, the
// master grid and all three UpdateStats counts to refUpdate's.
func TestUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lab := world.LabMap()
	labMap := New(DefaultConfig(lab.Width, lab.Height, lab.Resolution, lab.Origin))
	labMap.SetStatic(lab)
	maps := []struct {
		name string
		c    *Costmap
	}{
		{"lab", labMap},
		{"random", randomCostmap(rng, DefaultConfig(53, 41, 0.05, geom.V(-1.1, 0.4)))},
	}
	// A dense obstacle layer, so beam ends that do not mark often hold a
	// lethal cell that no walk may clear.
	for i := range maps[1].c.obstacle {
		if rng.Intn(3) == 0 {
			maps[1].c.obstacle[i] = LethalCost
		}
	}
	for _, tc := range maps {
		name, c := tc.name, tc.c
		ref := cloneCostmap(c)
		for u := 0; u < 60; u++ {
			pose, scan := randomUpdateScan(rng, c)
			got, want := c.Update(pose, scan), refUpdate(ref, pose, scan)
			if got != want {
				t.Fatalf("%s update %d: stats %+v, reference %+v", name, u, got, want)
			}
			for i := range c.obstacle {
				if c.obstacle[i] != ref.obstacle[i] {
					t.Fatalf("%s update %d: obstacle cell %d = %d, reference %d", name, u, i, c.obstacle[i], ref.obstacle[i])
				}
				if c.master[i] != ref.master[i] {
					t.Fatalf("%s update %d: master cell %d = %d, reference %d", name, u, i, c.master[i], ref.master[i])
				}
			}
		}
	}
}
