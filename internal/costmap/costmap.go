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
	"bytes"
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

	// upFrom indexes the first kernel row with dy >= 0, where a source
	// whose previous-row cell is a source starts stamping (see rebuild).
	// sources is rebuild's source list, reused.
	upFrom  int
	sources []source

	// Footprint window: its radius in cells around the center cell, the
	// squared robot radius and half a cell side. fpWin lists the
	// window's cells, core first, then ring, then the rest; fpCore and
	// fpRing are its first two runs (see buildFootprint).
	fpCells               int
	fpR2, fpHalf          float64
	fpWin, fpCore, fpRing []fpCell
}

// fpCell is one footprint window cell: its offset from the center cell
// and from the center's index in the master grid.
type fpCell struct{ dx, dy, off int }

// fpMargin is the core/ring margin, in cells.
const fpMargin = 1e-6

// kernelRow is one row of the inflation kernel: costs[k] is stamped at
// offset (k-half, dy) from a lethal cell. Kernel costs are never zero,
// so a zero entry stamps nothing; a row may span a gap.
type kernelRow struct {
	dy, half int
	costs    []uint8
}

// source is one lethal cell of the combined grid, with whether its
// stamps left of it (left) or above it (up) are dominated by an earlier
// lethal neighbour's and skipped.
type source struct {
	x, y     int32
	left, up bool
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
	c.buildFootprint()
	return c
}

// buildFootprint splits the footprint window by distance. Seen from any
// point of the center cell, the cell at offset (dx, dy) lies between
// res·‖(max(|dx|−1, 0), max(|dy|−1, 0))‖ and res·‖(|dx|, |dy|)‖ away.
// A core cell's far distance is below the robot radius by the margin,
// so it is always inside the footprint. A ring cell is not core, and
// its near distance is below the radius plus the margin. Every other
// cell is always outside.
//
// The split holds while rounding moves every coordinate a check computes
// by far less than the margin. A check on the map computes coordinates
// below mag in magnitude, each rounding moves one by at most mag·2⁻⁵³,
// and the few roundings of a check sum to under a fourteenth of the
// margin when the test below passes. On a map with coordinates too
// large for that the split is off, and the ring is the whole window.
// So it is on a one-cell window, whose on-map check a non-finite
// point's center cell could pass.
func (c *Costmap) buildFootprint() {
	res, r := c.cfg.Resolution, c.fpCells
	radius := math.Abs(c.cfg.RobotRadius) // the check compares squares
	margin := fpMargin * res
	w, h := float64(c.cfg.Width)*res, float64(c.cfg.Height)*res
	mag := max(math.Abs(c.cfg.Origin.X), math.Abs(c.cfg.Origin.Y)) + max(w, h) + res
	split := r >= 1 && mag*0x1p-46 < margin
	var core, ring, rest []fpCell
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			cell := fpCell{dx: dx, dy: dy, off: dy*c.cfg.Width + dx}
			near := math.Hypot(float64(max(dx-1, -dx-1, 0)), float64(max(dy-1, -dy-1, 0))) * res
			far := math.Hypot(float64(dx), float64(dy)) * res
			switch {
			case split && far < radius-margin:
				core = append(core, cell)
			case split && near < radius+margin:
				ring = append(ring, cell)
			default:
				rest = append(rest, cell)
			}
		}
	}
	c.fpWin = append(append(core, ring...), rest...)
	c.fpCore, c.fpRing = c.fpWin[:len(core)], c.fpWin[len(core):len(core)+len(ring)]
	if !split {
		c.fpRing = c.fpWin
	}
}

// buildKernel precomputes the inflation cost for every cell offset within
// the inflation radius: 253 inside the robot radius, exponentially
// decaying outside (cost = 252·exp(-scale·(d - r_robot))). Offsets are
// grouped into one row span per dy.
//
// A decayed cost is clamped to 252 and left out below 1 or when NaN, so
// every CostScale, negative, infinite and NaN included, builds a defined
// kernel in which no cost rises with distance and none is UnknownCost.
// That gives the two orders on the costs K (0 outside the kernel) that
// rebuild's dominance rules need: K(dx, dy) <= K(dx+1, dy) for every
// dx <= -1, and K(dx, dy) <= K(dx, dy+1) for every dy <= -1. A cost of
// UnknownCost would break both: its stamp on an unknown cell counts
// without raising it, and can take a cell back to unknown.
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
				if !(v >= 1) {
					continue
				}
				cost = uint8(min(v, 252))
			}
			costs[dx+r] = cost
			half = max(half, dx, -dx)
		}
		if dy < 0 && half >= 0 {
			c.upFrom++
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
// obstacle layer along each beam, endpoint excluded, and marks the
// endpoints of hits within MaxObstacleDist, then recombines and
// re-inflates the master grid. It returns the work done.
func (c *Costmap) Update(pose geom.Pose, scan *sensor.Scan) UpdateStats {
	var st UpdateStats
	origin := c.WorldToCell(pose.Pos)
	for i := 0; i < scan.NumBeams(); i++ {
		r := scan.Ranges[i]
		endCell := c.WorldToCell(scan.Endpoint(pose, i))
		st.CellsCleared += c.clearBeam(origin, endCell)
		if scan.IsHit(i) && r <= c.cfg.MaxObstacleDist && c.InBounds(endCell) {
			c.obstacle[c.idx(endCell)] = LethalCost
			st.CellsMarked++
		}
	}
	return st.add(c.rebuild())
}

// clearBeam frees the obstacle layer along the Bresenham walk from a
// toward b, b excluded, and returns the number of cells it walked. The
// walk is monotone in x and y, so when both ends are on the map every
// cell between them is too, and the walk reaches b after exactly
// max(|dx|, |dy|) steps: that path runs with no bounds or end-cell test
// per cell, and writes FreeCost unconditionally, which on a layer of
// FreeCost and LethalCost is the same as clearing a lethal cell. Any
// other beam takes the geom.Bresenham walk, which stops at the first
// cell off the map.
func (c *Costmap) clearBeam(a, b geom.Cell) int {
	if !c.InBounds(a) || !c.InBounds(b) {
		n := 0
		geom.Bresenham(a, b, func(cell geom.Cell) bool {
			if !c.InBounds(cell) || cell == b {
				return false
			}
			c.obstacle[c.idx(cell)] = FreeCost
			n++
			return true
		})
		return n
	}
	dx, dy := b.X-a.X, b.Y-a.Y
	sx, sy := 1, c.cfg.Width
	if dx < 0 {
		dx, sx = -dx, -1
	}
	if dy < 0 {
		dy, sy = -dy, -sy
	}
	steps := max(dx, dy)
	obstacle := c.obstacle
	errv := dx - dy
	i := c.idx(a)
	for range steps {
		obstacle[i] = FreeCost
		// The Bresenham step without branches: a mask is -1 when its
		// axis steps, x when e2 > -dy and y when e2 < dx.
		e2 := 2 * errv
		mx := (-dy - e2) >> 63
		my := (e2 - dx) >> 63
		errv += dx&my - dy&mx
		i += sx&mx + sy&my
	}
	return steps
}

// rebuild combines the static and obstacle layers into the master grid
// and stamps the inflation kernel around every lethal cell (a source).
// The obstacle layer holds only FreeCost and LethalCost, so the combine
// is the static layer with each lethal obstacle cell set lethal; both
// that scan and the source scan below find their cells with
// bytes.IndexByte.
//
// Sources go in raster order, so every cell receives its stamps in a
// fixed order and the count of raising writes is deterministic. A stamp
// writes a cell whose cost it exceeds, and an unknown cell only with
// inscribed or lethal. A source whose left neighbour is also a source
// skips its stamps at dx <= -1. The neighbour stamped each of those
// cells earlier with a cost no lower, and after that stamp the cell
// either holds at least the skipped cost, or is still unknown and both
// costs are below inscribed; so the skipped stamp would neither write
// nor count. A source whose previous-row cell (x, y-1) is a source skips
// its kernel rows dy <= -1 alike. Where the neighbour itself skipped
// such a cell, an earlier source covered it with a cost no lower, and
// that chain ends at a real stamp. Both rules rest on the kernel's
// orders (see buildKernel). The neighbour flags are read from the
// combined grid before any stamp, so they say "is a source" whatever
// the stamps write.
func (c *Costmap) rebuild() UpdateStats {
	m := c.master
	copy(m, c.static)
	for i := 0; ; i++ {
		j := bytes.IndexByte(c.obstacle[i:], LethalCost)
		if j < 0 {
			break
		}
		i += j
		m[i] = LethalCost
	}
	w, h := c.cfg.Width, c.cfg.Height
	c.sources = c.sources[:0]
	for y := 0; y < h; y++ {
		row := m[y*w:][:w]
		for x := 0; ; x++ {
			j := bytes.IndexByte(row[x:], LethalCost)
			if j < 0 {
				break
			}
			x += j
			c.sources = append(c.sources, source{
				x: int32(x), y: int32(y),
				left: x > 0 && row[x-1] == LethalCost,
				up:   y > 0 && m[(y-1)*w+x] == LethalCost,
			})
		}
	}
	var st UpdateStats
	for _, s := range c.sources {
		st.CellsInflated += c.inflate(s)
	}
	return st
}

// inflate stamps the kernel around the source s, each row span clipped
// to the map and without the stamps its flags mark dominated (see
// rebuild), and returns the number of cells it raised. A stamp raises a
// cell whose cost it exceeds; an unknown cell only to inscribed or
// lethal. No cost exceeds UnknownCost, so the first test never fires on
// an unknown cell.
func (c *Costmap) inflate(s source) int {
	w, h := c.cfg.Width, c.cfg.Height
	x, y := int(s.x), int(s.y)
	rows := c.inflation
	if s.up {
		rows = rows[c.upFrom:]
	}
	n := 0
	for _, row := range rows {
		ny := y + row.dy
		if ny < 0 || ny >= h {
			continue
		}
		costs, lo := row.costs, x-row.half
		if s.left {
			costs, lo = costs[row.half:], x
		}
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
// Core cells are always inside, so their costs fold in unchecked. A
// ring cell is tested with the per-cell distance expressions, and only
// when its cost would raise the worst so far. A point whose window does
// not lie wholly on the map (off-map and non-finite points among them)
// tests every window cell that way, reading costs through Cost.
func (c *Costmap) FootprintCost(p geom.Vec2) uint8 {
	center := c.WorldToCell(p)
	r, w, h := c.fpCells, c.cfg.Width, c.cfg.Height
	if !(center.X >= r && center.X < w-r && center.Y >= r && center.Y < h-r) {
		worst := FreeCost
		for _, o := range c.fpWin {
			cost := c.Cost(geom.Cell{X: center.X + o.dx, Y: center.Y + o.dy})
			if v := worse(worst, cost); v > worst && c.touches(p, center, o) {
				worst = v
			}
		}
		return worst
	}
	base := center.Y*w + center.X
	return c.ringCost(p, center, base, c.coreCost(base))
}

// coreCost folds the core cells of the window around the center cell
// at master index base. The window must lie wholly on the map.
func (c *Costmap) coreCost(base int) uint8 {
	worst := FreeCost
	for _, o := range c.fpCore {
		worst = worse(worst, c.master[base+o.off])
	}
	return worst
}

// ringCost folds into worst, the core's fold, each ring cell of the
// window around center (at master index base, the window wholly on the
// map) that touches the footprint at p. Only a cell whose cost would
// raise the worst so far is tested.
func (c *Costmap) ringCost(p geom.Vec2, center geom.Cell, base int, worst uint8) uint8 {
	m := c.master
	for _, o := range c.fpRing {
		// worse never raises the worst above the raw cost.
		if cost := m[base+o.off]; cost > worst {
			if v := worse(worst, cost); v > worst && c.touches(p, center, o) {
				worst = v
			}
		}
	}
	return worst
}

// FootprintTable answers FootprintCost from two bytes per center cell
// of a square of the map: the fold of the window's core, and the
// largest folded cost of its ring. Where the ring's largest is no
// higher than the core's fold, no ring cell can raise it, and that
// fold is the answer. Otherwise the ring loop runs from it, as in
// FootprintCost. A point whose center cell lies outside the square goes
// to FootprintCost. So every answer is FootprintCost's, for the master
// grid the table was filled from.
//
// A table answers for its costmap until the next Update, SetStatic or
// LoadStatic; Fill it again after those. Cost only reads, so any number
// of goroutines may call it between fills. The zero value is an empty
// table that must be filled before use.
type FootprintTable struct {
	c      *Costmap
	x0, y0 int      // the square's first center cell
	w, h   int      // the square's size in cells
	folds  []fpFold // row by row over the square
}

type fpFold struct{ core, ring uint8 }

// Fill folds the windows of every center cell that a point within
// reach meters of p can have: the square of cells within
// floor(reach/Resolution) + 1 of p's cell, clipped to the centers whose
// windows lie wholly on c's map. The cell count is clamped to the map's
// larger side before it becomes an integer, so a NaN, infinite or huge
// reach fills the whole clipped map, and the table's buffer, kept
// across fills, never holds more entries than the map has cells.
func (t *FootprintTable) Fill(c *Costmap, p geom.Vec2, reach float64) {
	t.c = c
	w, h := c.cfg.Width, c.cfg.Height
	cells := reach / c.cfg.Resolution
	if lim := float64(max(w, h)); !(cells <= lim) { // NaN and +Inf too
		cells = lim
	}
	r := int(max(cells, 0)) + 1
	// Centers whose windows lie wholly on the map: [lo, w-lo) × [lo, h-lo).
	lo := max(c.fpCells, 0)
	center := c.WorldToCell(p)
	t.x0, t.y0, t.w, t.h = 0, 0, 0, 0
	if center.X >= lo-r && center.X < w-lo+r && center.Y >= lo-r && center.Y < h-lo+r {
		t.x0, t.y0 = max(center.X-r, lo), max(center.Y-r, lo)
		t.w = max(min(center.X+r+1, w-lo)-t.x0, 0)
		t.h = max(min(center.Y+r+1, h-lo)-t.y0, 0)
	}
	n := t.w * t.h
	if cap(t.folds) < n {
		t.folds = make([]fpFold, n)
	}
	t.folds = t.folds[:n]
	m, k := c.master, 0
	for y := t.y0; y < t.y0+t.h; y++ {
		for x := t.x0; x < t.x0+t.w; x++ {
			base := y*w + x
			ring := FreeCost
			for _, o := range c.fpRing {
				ring = worse(ring, m[base+o.off])
			}
			t.folds[k] = fpFold{core: c.coreCost(base), ring: ring}
			k++
		}
	}
}

// Cost returns the table's costmap's FootprintCost(p).
func (t *FootprintTable) Cost(p geom.Vec2) uint8 {
	c := t.c
	center := c.WorldToCell(p)
	x, y := center.X-t.x0, center.Y-t.y0
	if x < 0 || x >= t.w || y < 0 || y >= t.h {
		return c.FootprintCost(p)
	}
	f := t.folds[y*t.w+x]
	if f.ring <= f.core {
		return f.core
	}
	return c.ringCost(p, center, center.Y*c.cfg.Width+center.X, f.core)
}

// touches reports whether window cell o's square intersects the
// footprint disc at p, with the expressions of the per-cell check: the
// square's point closest to p is within the robot radius. A NaN
// distance counts as inside.
func (c *Costmap) touches(p geom.Vec2, center geom.Cell, o fpCell) bool {
	cx := c.cfg.Origin.X + (float64(center.X+o.dx)+0.5)*c.cfg.Resolution
	cy := c.cfg.Origin.Y + (float64(center.Y+o.dy)+0.5)*c.cfg.Resolution
	dx := geom.Clamp(p.X, cx-c.fpHalf, cx+c.fpHalf) - p.X
	dy := geom.Clamp(p.Y, cy-c.fpHalf, cy+c.fpHalf) - p.Y
	return !(dx*dx+dy*dy > c.fpR2)
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
