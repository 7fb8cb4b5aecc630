// Package costmap implements the layered costmap of the CostmapGen node
// (ROS costmap_2d): a static layer seeded from a known or SLAM-built map,
// an obstacle layer that marks laser endpoints and clears along beams,
// and an inflation layer that expands lethal obstacles by the robot
// radius with an exponential cost decay.
//
// CostmapGen is one of the paper's Energy-Critical Nodes and sits on the
// Velocity-Dependent Path, so every update reports how many cells it
// touched; the mission engine converts those counts into cycles for the
// platform model.
package costmap

import (
	"math"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
)

// Cost values, matching costmap_2d conventions.
const (
	FreeCost      uint8 = 0
	InscribedCost uint8 = 253
	LethalCost    uint8 = 254
	UnknownCost   uint8 = 255
)

// Config parameterizes the costmap.
type Config struct {
	Width, Height int
	Resolution    float64
	Origin        geom.Vec2

	RobotRadius     float64 // inscribed radius for inflation, m
	InflationRadius float64 // total inflation distance, m
	CostScale       float64 // exponential decay rate of inflated cost
	MaxObstacleDist float64 // beams longer than this do not mark, m
	UnknownIsLethal bool    // treat unknown static cells as obstacles
}

// DefaultConfig returns a configuration suitable for the Turtlebot3 in
// the lab environments.
func DefaultConfig(w, h int, res float64, origin geom.Vec2) Config {
	return Config{
		Width: w, Height: h, Resolution: res, Origin: origin,
		RobotRadius:     0.105,
		InflationRadius: 0.45,
		CostScale:       8.0,
		MaxObstacleDist: 3.0,
		UnknownIsLethal: false,
	}
}

// UpdateStats reports the work done by one costmap update; the engine
// converts it into platform cycles.
type UpdateStats struct {
	CellsCleared  int // obstacle-layer raytrace clearing
	CellsMarked   int // obstacle-layer endpoint marking
	CellsInflated int // inflation-layer writes
}

// Total returns the total number of cell operations.
func (s UpdateStats) Total() int { return s.CellsCleared + s.CellsMarked + s.CellsInflated }

func (s UpdateStats) add(o UpdateStats) UpdateStats {
	return UpdateStats{
		s.CellsCleared + o.CellsCleared,
		s.CellsMarked + o.CellsMarked,
		s.CellsInflated + o.CellsInflated,
	}
}

// Costmap is the layered cost grid.
type Costmap struct {
	cfg Config

	static   []uint8 // static layer (lethal/free/unknown)
	obstacle []uint8 // obstacle layer (lethal where marked)
	master   []uint8 // combined + inflated result

	inflation []kernelRow // inflation kernel, one row span per dy

	// Footprint window: its radius in cells around the center cell, the
	// squared robot radius and half a cell side.
	fpCells      int
	fpR2, fpHalf float64
}

// kernelRow is one row of the inflation kernel: costs[k] is stamped at
// offset (k-half, dy) from a lethal cell. Kernel costs are never zero,
// so a zero entry stamps nothing; a row may span a gap.
type kernelRow struct {
	dy, half int
	costs    []uint8
}

// New allocates a costmap; all layers start free.
func New(cfg Config) *Costmap {
	n := cfg.Width * cfg.Height
	c := &Costmap{
		cfg:      cfg,
		static:   make([]uint8, n),
		obstacle: make([]uint8, n),
		master:   make([]uint8, n),
		fpCells:  int(math.Ceil(cfg.RobotRadius/cfg.Resolution)) + 1,
		fpR2:     cfg.RobotRadius * cfg.RobotRadius,
		fpHalf:   cfg.Resolution / 2,
	}
	c.buildKernel()
	return c
}

// buildKernel precomputes the inflation cost for every cell offset within
// the inflation radius: 253 inside the robot radius, exponentially
// decaying outside (cost = 252·exp(-scale·(d - r_robot))). Offsets are
// grouped into one row span per dy.
func (c *Costmap) buildKernel() {
	r := int(math.Ceil(c.cfg.InflationRadius / c.cfg.Resolution))
	for dy := -r; dy <= r; dy++ {
		costs := make([]uint8, 2*r+1)
		half := -1
		for dx := -r; dx <= r; dx++ {
			d := math.Hypot(float64(dx), float64(dy)) * c.cfg.Resolution
			if d > c.cfg.InflationRadius {
				continue
			}
			var cost uint8
			switch {
			case dx == 0 && dy == 0:
				cost = LethalCost
			case d <= c.cfg.RobotRadius:
				cost = InscribedCost
			default:
				v := 252 * math.Exp(-c.cfg.CostScale*(d-c.cfg.RobotRadius))
				if v < 1 {
					continue
				}
				cost = uint8(v)
			}
			costs[dx+r] = cost
			half = max(half, dx, -dx)
		}
		if half >= 0 {
			c.inflation = append(c.inflation, kernelRow{dy: dy, half: half, costs: costs[r-half : r+half+1]})
		}
	}
}

// Config returns the costmap configuration.
func (c *Costmap) Config() Config { return c.cfg }

func (c *Costmap) idx(cell geom.Cell) int { return cell.Y*c.cfg.Width + cell.X }

// InBounds reports whether the cell lies inside the costmap.
func (c *Costmap) InBounds(cell geom.Cell) bool {
	return cell.X >= 0 && cell.X < c.cfg.Width && cell.Y >= 0 && cell.Y < c.cfg.Height
}

// WorldToCell converts world coordinates to a cell.
func (c *Costmap) WorldToCell(p geom.Vec2) geom.Cell {
	return geom.Cell{
		X: int(math.Floor((p.X - c.cfg.Origin.X) / c.cfg.Resolution)),
		Y: int(math.Floor((p.Y - c.cfg.Origin.Y) / c.cfg.Resolution)),
	}
}

// CellToWorld returns the world coordinates of the cell center.
func (c *Costmap) CellToWorld(cell geom.Cell) geom.Vec2 {
	return geom.Vec2{
		X: c.cfg.Origin.X + (float64(cell.X)+0.5)*c.cfg.Resolution,
		Y: c.cfg.Origin.Y + (float64(cell.Y)+0.5)*c.cfg.Resolution,
	}
}

// SetStatic loads the static layer from an occupancy map and rebuilds
// the master grid, so the costmap reads right after it. The mission
// engine calls it once, with the known map of a navigation or coverage
// mission. The map must share the costmap's geometry.
func (c *Costmap) SetStatic(m *grid.Map) UpdateStats {
	c.LoadStatic(m)
	return c.rebuild()
}

// LoadStatic loads the static layer from an occupancy map without
// rebuilding the master grid; the next Update rebuilds it. During
// exploration the engine loads each new SLAM map this way just before
// that Update. The map must share the costmap's geometry.
func (c *Costmap) LoadStatic(m *grid.Map) {
	for i, v := range m.Cells {
		switch v {
		case grid.Occupied:
			c.static[i] = LethalCost
		case grid.Unknown:
			if c.cfg.UnknownIsLethal {
				c.static[i] = LethalCost
			} else {
				c.static[i] = UnknownCost
			}
		default:
			c.static[i] = FreeCost
		}
	}
}

// Update applies one laser scan taken from the given pose: clears the
// obstacle layer along each beam and marks endpoints, then recombines
// and re-inflates the master grid. It returns the work done.
func (c *Costmap) Update(pose geom.Pose, scan *sensor.Scan) UpdateStats {
	var st UpdateStats
	origin := c.WorldToCell(pose.Pos)
	for i := 0; i < scan.NumBeams(); i++ {
		r := scan.Ranges[i]
		end := scan.Endpoint(pose, i)
		endCell := c.WorldToCell(end)
		// Clear along the beam (excluding the endpoint when it marks).
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
	return st.add(c.rebuild())
}

// rebuild combines static and obstacle layers into the master grid and
// applies inflation around every lethal cell.
func (c *Costmap) rebuild() UpdateStats {
	var st UpdateStats
	for i := range c.master {
		v := c.static[i]
		if c.obstacle[i] == LethalCost {
			v = LethalCost
		}
		c.master[i] = v
	}
	// Inflate: stamp the kernel around every lethal cell. Sources go in
	// raster order, so every cell receives its stamps in a fixed order
	// and the count of raising writes is deterministic.
	w, h := c.cfg.Width, c.cfg.Height
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if c.static[i] == LethalCost || c.obstacle[i] == LethalCost {
				st.CellsInflated += c.inflate(x, y)
			}
		}
	}
	return st
}

// inflate stamps the kernel around the lethal cell (x, y), each row
// span clipped to the map, and returns the number of cells it raised.
// A stamp raises a cell whose cost it exceeds; an unknown cell only to
// inscribed or lethal. Kernel costs stay below UnknownCost, so the
// first test never fires on an unknown cell.
func (c *Costmap) inflate(x, y int) int {
	w, h := c.cfg.Width, c.cfg.Height
	n := 0
	for _, row := range c.inflation {
		ny := y + row.dy
		if ny < 0 || ny >= h {
			continue
		}
		costs, lo := row.costs, x-row.half
		if lo < 0 {
			costs, lo = costs[-lo:], 0
		}
		if over := lo + len(costs) - w; over > 0 {
			costs = costs[:len(costs)-over]
		}
		dst := c.master[ny*w+lo:][:len(costs)]
		for k, cost := range costs {
			if m := dst[k]; cost > m || (m == UnknownCost && cost >= InscribedCost) {
				dst[k] = cost
				n++
			}
		}
	}
	return n
}

// Cost returns the master cost of a cell (UnknownCost out of bounds).
func (c *Costmap) Cost(cell geom.Cell) uint8 {
	if !c.InBounds(cell) {
		return UnknownCost
	}
	return c.master[c.idx(cell)]
}

// WorldCost returns the master cost at a world point.
func (c *Costmap) WorldCost(p geom.Vec2) uint8 { return c.Cost(c.WorldToCell(p)) }

// IsTraversable reports whether a cell is strictly below the inscribed
// threshold (safe for the robot center).
func (c *Costmap) IsTraversable(cell geom.Cell) bool {
	cost := c.Cost(cell)
	return cost < InscribedCost
}

// FootprintCost returns the worst master cost within the robot footprint
// centered at the world point, for trajectory feasibility checks. Cells
// count as inside the footprint when any part of their square intersects
// the disc, so coarse grids cannot hide obstacles between cell centers.
//
// A cell's squared distance to the point is a column term plus a row
// term, each computed once per window line with the expressions of a
// per-cell check. Along a row the column term only falls and then
// rises, so the cells inside form one run of columns, and a row has
// none when even the nearest column is out.
func (c *Costmap) FootprintCost(p geom.Vec2) uint8 {
	center := c.WorldToCell(p)
	r := c.fpCells
	var buf [32]float64 // windows up to 32 cells wide stay on the stack
	cols := buf[:]
	if 2*r+1 > len(cols) {
		cols = make([]float64, 2*r+1)
	}
	cols = cols[:2*r+1]
	nearest := math.Inf(1)
	for i := range cols {
		cx := c.cfg.Origin.X + (float64(center.X+i-r)+0.5)*c.cfg.Resolution
		d := geom.Clamp(p.X, cx-c.fpHalf, cx+c.fpHalf) - p.X
		cols[i] = d * d
		nearest = min(nearest, cols[i])
	}
	w, h := c.cfg.Width, c.cfg.Height
	inside := center.X >= r && center.X < w-r && center.Y >= r && center.Y < h-r
	worst := FreeCost
	for dy := -r; dy <= r && worst < LethalCost; dy++ {
		cy := c.cfg.Origin.Y + (float64(center.Y+dy)+0.5)*c.cfg.Resolution
		d := geom.Clamp(p.Y, cy-c.fpHalf, cy+c.fpHalf) - p.Y
		rowSq := d * d
		if nearest+rowSq > c.fpR2 {
			continue
		}
		lo, hi := 0, len(cols)-1
		for cols[lo]+rowSq > c.fpR2 {
			lo++
		}
		for cols[hi]+rowSq > c.fpR2 {
			hi--
		}
		if inside {
			base := (center.Y+dy)*w + center.X - r
			for _, cost := range c.master[base+lo : base+hi+1] {
				worst = worse(worst, cost)
			}
			continue
		}
		for i := lo; i <= hi; i++ {
			worst = worse(worst, c.Cost(geom.Cell{X: center.X + i - r, Y: center.Y + dy}))
		}
	}
	return worst
}

// worse folds one footprint cell's cost into the running worst. Unknown
// inside the footprint is treated as inscribed: not an immediate
// collision, but maximally risky.
func worse(worst, cost uint8) uint8 {
	if cost == UnknownCost {
		cost = InscribedCost
	}
	return max(worst, cost)
}

// Dims returns the costmap dimensions.
func (c *Costmap) Dims() (w, h int) { return c.cfg.Width, c.cfg.Height }

// Snapshot copies the master grid, for inspection.
func (c *Costmap) Snapshot() []uint8 {
	out := make([]uint8, len(c.master))
	copy(out, c.master)
	return out
}
