// Package grid implements 2-D occupancy grids: the probabilistic log-odds
// map used by SLAM, the ternary occupancy map used by planners and
// costmaps, a Euclidean distance transform for inflation and trajectory
// scoring, and a simple text format for map I/O.
package grid

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"lgvoffload/internal/geom"
)

// Occupancy states for ternary maps.
const (
	Free     int8 = 0
	Occupied int8 = 100
	Unknown  int8 = -1
)

// Map is a ternary occupancy grid anchored at Origin (world coordinates of
// cell (0,0)'s lower-left corner) with square cells of Resolution meters.
type Map struct {
	Width, Height int
	Resolution    float64
	Origin        geom.Vec2
	Cells         []int8
}

// NewMap allocates a map filled with the given initial state.
func NewMap(w, h int, res float64, origin geom.Vec2, fill int8) *Map {
	m := &Map{Width: w, Height: h, Resolution: res, Origin: origin,
		Cells: make([]int8, w*h)}
	if fill != 0 {
		for i := range m.Cells {
			m.Cells[i] = fill
		}
	}
	return m
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() *Map {
	c := *m
	c.Cells = make([]int8, len(m.Cells))
	copy(c.Cells, m.Cells)
	return &c
}

// InBounds reports whether the cell is inside the grid.
func (m *Map) InBounds(c geom.Cell) bool {
	return c.X >= 0 && c.X < m.Width && c.Y >= 0 && c.Y < m.Height
}

// At returns the state of the cell, or Unknown if out of bounds.
func (m *Map) At(c geom.Cell) int8 {
	if !m.InBounds(c) {
		return Unknown
	}
	return m.Cells[c.Y*m.Width+c.X]
}

// Set writes the state of a cell; out-of-bounds writes are ignored.
func (m *Map) Set(c geom.Cell, v int8) {
	if m.InBounds(c) {
		m.Cells[c.Y*m.Width+c.X] = v
	}
}

// WorldToCell converts world coordinates to a cell index (may be out of
// bounds; check with InBounds).
func (m *Map) WorldToCell(p geom.Vec2) geom.Cell {
	return geom.Cell{
		X: int(math.Floor((p.X - m.Origin.X) / m.Resolution)),
		Y: int(math.Floor((p.Y - m.Origin.Y) / m.Resolution)),
	}
}

// CellToWorld returns the world coordinates of the cell's center.
func (m *Map) CellToWorld(c geom.Cell) geom.Vec2 {
	return geom.Vec2{
		X: m.Origin.X + (float64(c.X)+0.5)*m.Resolution,
		Y: m.Origin.Y + (float64(c.Y)+0.5)*m.Resolution,
	}
}

// OccupiedAtWorld reports whether the world point lies in an occupied or
// out-of-bounds cell. Unknown cells are treated as free; callers that need
// conservative behaviour should inspect At directly.
func (m *Map) OccupiedAtWorld(p geom.Vec2) bool {
	c := m.WorldToCell(p)
	if !m.InBounds(c) {
		return true
	}
	return m.At(c) == Occupied
}

// Raycast casts a ray from world point from toward heading theta, up to
// maxRange meters, and returns the distance to the first occupied cell.
// If nothing is hit within maxRange (or the ray exits the map), it returns
// maxRange and hit=false.
func (m *Map) Raycast(from geom.Vec2, theta, maxRange float64) (dist float64, hit bool) {
	to := from.Add(geom.V(maxRange, 0).Rotate(theta))
	a := m.WorldToCell(from)
	b := m.WorldToCell(to)
	dist, hit = maxRange, false
	geom.Bresenham(a, b, func(c geom.Cell) bool {
		if !m.InBounds(c) {
			return false
		}
		if m.At(c) == Occupied {
			d := m.CellToWorld(c).Dist(from)
			if d < dist {
				dist = d
			}
			hit = true
			return false
		}
		return true
	})
	if !hit {
		dist = maxRange
	}
	return dist, hit
}

// CountState returns the number of cells with the given state.
func (m *Map) CountState(v int8) int {
	n := 0
	for _, c := range m.Cells {
		if c == v {
			n++
		}
	}
	return n
}

// KnownFraction returns the fraction of cells that are not Unknown.
func (m *Map) KnownFraction() float64 {
	if len(m.Cells) == 0 {
		return 0
	}
	known := 0
	for _, c := range m.Cells {
		if c != Unknown {
			known++
		}
	}
	return float64(known) / float64(len(m.Cells))
}

// ---------------------------------------------------------------------------
// Log-odds probabilistic grid (SLAM mapping layer).

// Tile geometry for the copy-on-write storage below. 32×32 cells × 2 B
// = 2 KB per tile: small enough that a scan's dirty set is a handful of
// tiles (and a whole tile spans just 32 cache lines), big enough that
// the tile table stays tiny.
const (
	tileShift = 5
	tileDim   = 1 << tileShift
	tileMask  = tileDim - 1
	// TileCells is the cell count of one COW tile; CopyOps accounting in
	// the SLAM filter charges this much copy work per duplicated tile.
	TileCells = tileDim * tileDim
)

// Fixed-point log-odds representation. Cells store log odds as int16
// quanta of 1/4096: the representable range (±7.99) comfortably covers
// the default ±4 clamp, the quantization error (≤ 1/8192 log-odds,
// ~3e-5 in probability) is far below the per-observation increments,
// and integer accumulate-and-clamp replaces the float64 add plus
// math.Min/math.Max pair on the beam-integration hot path.
const (
	// QuantShift is the fixed-point fractional bit count.
	QuantShift = 12
	// QuantScale converts log-odds to quanta: q = round(l * QuantScale).
	QuantScale = 1 << QuantShift
	// quantMax saturates quantization so ±Inf or huge parameter values
	// stay representable (and symmetric) rather than wrapping.
	quantMax = 32767
)

// Quantize converts a log-odds value to its int16 fixed-point
// representation, saturating at the representable range.
func Quantize(l float64) int16 {
	q := math.Round(l * QuantScale)
	if q > quantMax {
		q = quantMax
	} else if q < -quantMax {
		q = -quantMax
	}
	return int16(q)
}

// Dequantize converts a fixed-point log-odds value back to float64.
func Dequantize(q int16) float64 { return float64(q) * (1.0 / QuantScale) }

// The logistic lookup tables: one entry per representable fixed-point
// log-odds value. logisticTab[q+lutOff] = 1/(1+exp(-q/QuantScale)) is
// THE occupancy-probability definition — every probe path (Prob, ToMap,
// the SLAM matcher) reads it instead of re-deriving math.Exp, so the
// occupancy semantics cannot drift between call sites. scoreTab holds
// the matcher's 2p-1 form; its zero entry is exactly 0.0, which makes
// the "untouched cell is neutral" rule branch-free.
const lutOff = 32768

var (
	logisticTab [2 * lutOff]float64
	scoreTab    [2 * lutOff]float64
)

// The tables are filled once at package initialisation, so the probe
// path reads them with no guard.
func init() {
	for i := range logisticTab {
		p := 1 / (1 + math.Exp(-Dequantize(int16(i-lutOff))))
		logisticTab[i] = p
		scoreTab[i] = 2*p - 1
	}
}

// Logistic returns the occupancy probability for a fixed-point log-odds
// value via the shared lookup table: 1/(1+exp(-Dequantize(q))).
func Logistic(q int16) float64 { return logisticTab[int(q)+lutOff] }

// Score returns the scan-matcher cell score 2·Logistic(q)−1: +1 for
// certainly occupied, −1 for certainly free, exactly 0 for untouched.
func Score(q int16) float64 { return scoreTab[int(q)+lutOff] }

// The beam update rule in quanta: p_occ = 0.7 and p_free = 0.4 per
// observation, clamped to [-4, 4] log odds. qOcc and qFree are
// Quantize(logit(0.7)) and Quantize(logit(0.4)). A cell starts at 0 and
// moves only by these steps, so it stays in [qMin, qMax], and neither
// step can leave the int16 range.
const (
	qOcc  int16 = 3471
	qFree int16 = -1661
	qMin  int16 = -4 * QuantScale
	qMax  int16 = 4 * QuantScale
)

// tile is one reference-counted block of fixed-point log-odds values.
// The refcount is atomic because tiles shared between particles are
// copy-on-written from the parallel section of the SLAM update: a
// writer that observes ref > 1 copies the tile and release-decrements,
// so an in-place write (ref == 1) can only happen after every other
// owner has already detached.
type tile struct {
	ref atomic.Int32
	l   [TileCells]int16
}

// tilePool recycles tiles across COW copies and released grids, so the
// steady-state filter (resample → clone → dirty-tile copies → drop)
// churns through the free list instead of the allocator.
var tilePool = sync.Pool{New: func() any { return new(tile) }}

// newTileZero returns an exclusively-owned all-zero tile.
func newTileZero() *tile {
	t := tilePool.Get().(*tile)
	clear(t.l[:])
	t.ref.Store(1)
	return t
}

// newTileCopy returns an exclusively-owned copy of src's cells.
func newTileCopy(src *tile) *tile {
	t := tilePool.Get().(*tile)
	t.l = src.l
	t.ref.Store(1)
	return t
}

// LogOdds is a probabilistic occupancy grid storing per-cell log odds.
// It shares geometry with Map. Storage is tiled with reference-counted
// copy-on-write sharing (the classic RBPF map-sharing optimization):
// Clone shares every tile with the original, and writes copy only the
// tiles they touch, so resampling M particles costs O(dirty tiles)
// instead of O(M · map).
type LogOdds struct {
	Width, Height int
	Resolution    float64
	Origin        geom.Vec2

	tilesW int
	tiles  []*tile
	copied int // cells duplicated by COW since the last TakeCopied
}

// NewLogOdds allocates a log-odds grid that integrates beams with the
// update rule qOcc/qFree/qMin/qMax above. Tiles are allocated eagerly
// (drawn from the free list when possible) so the steady-state update
// path never hits the allocator: writes into an exclusively-owned grid
// are pure stores, and only COW detaches copy.
func NewLogOdds(w, h int, res float64, origin geom.Vec2) *LogOdds {
	tw := (w + tileMask) >> tileShift
	th := (h + tileMask) >> tileShift
	g := &LogOdds{
		Width: w, Height: h, Resolution: res, Origin: origin,
		tilesW: tw, tiles: make([]*tile, tw*th),
	}
	for i := range g.tiles {
		g.tiles[i] = newTileZero()
	}
	return g
}

// tileIndex splits an in-bounds cell into its tile and inner indices.
func (g *LogOdds) tileIndex(c geom.Cell) (ti, inner int) {
	return (c.Y>>tileShift)*g.tilesW + c.X>>tileShift,
		(c.Y&tileMask)<<tileShift | c.X&tileMask
}

// At returns the log-odds value of a cell (0 when untouched or out of
// bounds), dequantized from the fixed-point storage.
func (g *LogOdds) At(c geom.Cell) float64 { return Dequantize(g.AtQ(c)) }

// AtQ returns the raw fixed-point log-odds of a cell (0 when untouched
// or out of bounds). This is the probe the scan-matching hot path uses:
// the value indexes the shared logistic/score lookup tables directly.
func (g *LogOdds) AtQ(c geom.Cell) int16 {
	if !g.InBounds(c) {
		return 0
	}
	ti, inner := g.tileIndex(c)
	t := g.tiles[ti]
	if t == nil {
		return 0
	}
	return t.l[inner]
}

// writable returns the tile at ti ready for in-place writes, allocating
// an untouched tile or copying a shared one first (copy-on-write).
func (g *LogOdds) writable(ti int) *tile {
	t := g.tiles[ti]
	if t == nil {
		t = newTileZero()
		g.tiles[ti] = t
		return t
	}
	if t.ref.Load() > 1 {
		nt := newTileCopy(t)
		g.tiles[ti] = nt
		// Release after the copy: a peer observing the decremented count
		// is guaranteed to see our reads complete, so its in-place writes
		// (once it is the sole owner) cannot race the copy above. A
		// writer that drops the count to zero was the last owner after
		// all, and run serially it would have written in place: leaving
		// its copy uncharged keeps the count independent of how the
		// parallel SLAM update interleaves its writers.
		if t.ref.Add(-1) > 0 {
			g.copied += TileCells
		}
		return nt
	}
	return t
}

// Clone returns a copy-on-write duplicate: both grids share every tile
// until one of them writes. The duplicate's work is O(tiles), not
// O(cells) — TileCount is the matching op count for work accounting.
func (g *LogOdds) Clone() *LogOdds {
	c := *g
	c.copied = 0
	c.tiles = make([]*tile, len(g.tiles))
	copy(c.tiles, g.tiles)
	for _, t := range c.tiles {
		if t != nil {
			t.ref.Add(1)
		}
	}
	return &c
}

// TileCount returns the size of the tile table (allocated or not).
func (g *LogOdds) TileCount() int { return len(g.tiles) }

// NewShell returns a grid with g's geometry and parameters but an empty
// tile table (every slot nil, meaning untouched). Shells are cheap —
// no tile data — and exist to pre-size CloneInto destinations, e.g.
// spare particle shells for resampling.
func (g *LogOdds) NewShell() *LogOdds {
	c := *g
	c.copied = 0
	c.tiles = make([]*tile, len(g.tiles))
	return &c
}

// CloneInto turns dst — a released shell, typically a particle dropped by
// an earlier resample — into a copy-on-write duplicate of g, reusing
// dst's tile table so steady-state resampling allocates nothing. Falls
// back to allocating a table when the geometry differs.
func (g *LogOdds) CloneInto(dst *LogOdds) {
	tiles := dst.tiles
	if len(tiles) != len(g.tiles) {
		tiles = make([]*tile, len(g.tiles))
	}
	*dst = *g
	dst.copied = 0
	dst.tiles = tiles
	copy(tiles, g.tiles)
	for _, t := range tiles {
		if t != nil {
			t.ref.Add(1)
		}
	}
}

// Release drops this grid's reference on every tile and recycles the ones
// it owned exclusively into the free list. Call it when a grid is being
// discarded (e.g. a particle dropped at resampling) — the grid must not
// be read or written afterward. Tiles still shared with live clones stay
// untouched: only a refcount that reaches zero is recycled.
func (g *LogOdds) Release() {
	for i, t := range g.tiles {
		if t != nil && t.ref.Add(-1) == 0 {
			tilePool.Put(t)
		}
		g.tiles[i] = nil
	}
}

// TakeCopied returns the number of cells duplicated by copy-on-write
// since the last call, and resets the counter. The SLAM filter folds
// this into UpdateStats.CopyOps so cycle accounting still reflects the
// real copy work performed.
func (g *LogOdds) TakeCopied() int {
	n := g.copied
	g.copied = 0
	return n
}

// InBounds reports whether the cell is inside the grid.
func (g *LogOdds) InBounds(c geom.Cell) bool {
	return c.X >= 0 && c.X < g.Width && c.Y >= 0 && c.Y < g.Height
}

// WorldToCell converts world coordinates to a cell index.
func (g *LogOdds) WorldToCell(p geom.Vec2) geom.Cell {
	return geom.Cell{
		X: int(math.Floor((p.X - g.Origin.X) / g.Resolution)),
		Y: int(math.Floor((p.Y - g.Origin.Y) / g.Resolution)),
	}
}

// CellToWorld returns the world coordinates of the cell's center.
func (g *LogOdds) CellToWorld(c geom.Cell) geom.Vec2 {
	return geom.Vec2{
		X: g.Origin.X + (float64(c.X)+0.5)*g.Resolution,
		Y: g.Origin.Y + (float64(c.Y)+0.5)*g.Resolution,
	}
}

// Prob returns the occupancy probability of a cell (0.5 when untouched or
// out of bounds), via the shared logistic lookup table.
func (g *LogOdds) Prob(c geom.Cell) float64 {
	return Logistic(g.AtQ(c))
}

// Touched reports whether the cell has received any observation.
func (g *LogOdds) Touched(c geom.Cell) bool {
	return g.AtQ(c) != 0
}

// IntegrateBeam updates the grid along one laser beam: cells between the
// sensor and the endpoint are observed free; the endpoint cell is observed
// occupied when the beam actually hit something (hit=true).
// The number of cells updated is returned so callers can account work.
func (g *LogOdds) IntegrateBeam(from geom.Vec2, theta, dist float64, hit bool) int {
	return g.IntegrateBeamTo(from, from.Add(geom.V(dist, 0).Rotate(theta)), hit)
}

// IntegrateBeamTo is IntegrateBeam with the world-frame endpoint already
// computed — the SLAM/AMCL hot paths derive endpoints from per-scan trig
// tables instead of a Sincos per beam, and hand them in directly.
// Only tiles actually written are allocated or copy-on-written, so a beam
// through already-exclusive tiles costs no allocation. The traversal is
// the standard Bresenham walk (same cell sequence as geom.Bresenham),
// inlined so the per-cell work is an integer accumulate-and-clamp with
// no callback dispatch. The update steps are compile-time quanta, so a
// beam quantizes nothing.
//
// The walk is monotone in x and y, so when both ends are in the grid
// every cell between them is too, and the walk reaches the end cell
// after exactly max(|dx|, |dy|) steps: that path runs with no bounds or
// end-cell test per cell. A beam with an end outside the grid takes the
// checked walk, which stops at the first cell off the grid.
func (g *LogOdds) IntegrateBeamTo(from, end geom.Vec2, hit bool) int {
	a := g.WorldToCell(from)
	b := g.WorldToCell(end)
	if !g.InBounds(a) || !g.InBounds(b) {
		return g.integrateChecked(a, b, hit)
	}
	dx, dy := b.X-a.X, b.Y-a.Y
	sx, sy := 1, 1
	if dx < 0 {
		dx, sx = -dx, -1
	}
	if dy < 0 {
		dy, sy = -dy, -1
	}
	steps := max(dx, dy)
	// Bresenham walks cross tile borders every ≤32 steps; cache the last
	// writable tile so the common in-tile step is compare-and-store with
	// no table lookup (and no tile-row multiply). writable runs on the
	// first write into each tile, in walk order.
	curTx, curTy := -1, -1
	var cur *tile
	errv := dx - dy
	x, y := a.X, a.Y
	for range steps {
		if tx, ty := x>>tileShift, y>>tileShift; tx != curTx || ty != curTy {
			cur, curTx, curTy = g.writable(ty*g.tilesW+tx), tx, ty
		}
		inner := (y&tileMask)<<tileShift | x&tileMask
		cur.l[inner] = max(cur.l[inner]+qFree, qMin)
		// The Bresenham step without branches: a mask is -1 when its
		// axis steps, x when e2 > -dy and y when e2 < dx.
		e2 := 2 * errv
		mx := (-dy - e2) >> 63
		my := (e2 - dx) >> 63
		errv += dx&my - dy&mx
		x += sx & mx
		y += sy & my
	}
	// A max-range miss leaves the endpoint untouched: the beam only
	// proves freeness up to (not at) max range.
	if hit {
		if tx, ty := x>>tileShift, y>>tileShift; tx != curTx || ty != curTy {
			cur = g.writable(ty*g.tilesW + tx)
		}
		inner := (y&tileMask)<<tileShift | x&tileMask
		cur.l[inner] = min(cur.l[inner]+qOcc, qMax)
	}
	return steps + 1
}

// integrateChecked is IntegrateBeamTo's walk for a beam with an end off
// the grid: the geom.Bresenham walk, which stops at the first cell
// outside.
func (g *LogOdds) integrateChecked(a, b geom.Cell, hit bool) int {
	n := 0
	curTx, curTy := -1, -1
	var cur *tile
	geom.Bresenham(a, b, func(c geom.Cell) bool {
		if !g.InBounds(c) {
			return false
		}
		n++
		if c == b && !hit {
			return false
		}
		if tx, ty := c.X>>tileShift, c.Y>>tileShift; tx != curTx || ty != curTy {
			cur, curTx, curTy = g.writable(ty*g.tilesW+tx), tx, ty
		}
		inner := (c.Y&tileMask)<<tileShift | c.X&tileMask
		if c == b {
			cur.l[inner] = min(cur.l[inner]+qOcc, qMax)
			return false
		}
		cur.l[inner] = max(cur.l[inner]+qFree, qMin)
		return true
	})
	return n
}

// ToMap thresholds the log-odds grid into the ternary map m, which must
// have g's width and height, writing every cell: prob > occThresh is
// Occupied, prob < freeThresh is Free, untouched cells are Unknown.
func (g *LogOdds) ToMap(m *Map, freeThresh, occThresh float64) {
	for y := 0; y < g.Height; y++ {
		row := m.Cells[y*g.Width:][:g.Width]
		ty := y >> tileShift
		for tx := 0; tx < g.tilesW; tx++ {
			dst := row[tx<<tileShift : min((tx+1)<<tileShift, g.Width)]
			t := g.tiles[ty*g.tilesW+tx]
			if t == nil {
				for i := range dst {
					dst[i] = Unknown
				}
				continue
			}
			src := t.l[(y&tileMask)<<tileShift:][:len(dst)]
			for i, q := range src {
				v := Unknown
				if q != 0 {
					switch p := Logistic(q); {
					case p > occThresh:
						v = Occupied
					case p < freeThresh:
						v = Free
					}
				}
				dst[i] = v
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Distance transform.

// DistanceTransform computes, for every cell, the Euclidean distance in
// meters to the nearest Occupied cell, using the two-pass chamfer
// approximation (3-4 mask) which is accurate to within ~8% — sufficient
// for inflation layers and trajectory obstacle costs.
func DistanceTransform(m *Map) []float64 {
	const inf = math.MaxFloat64 / 4
	w, h := m.Width, m.Height
	d := make([]float64, w*h)
	for i, c := range m.Cells {
		if c == Occupied {
			d[i] = 0
		} else {
			d[i] = inf
		}
	}
	straight := m.Resolution
	diag := m.Resolution * math.Sqrt2
	idx := func(x, y int) int { return y*w + x }
	relax := func(i int, j int, cost float64) {
		if d[j]+cost < d[i] {
			d[i] = d[j] + cost
		}
	}
	// Forward pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := idx(x, y)
			if x > 0 {
				relax(i, idx(x-1, y), straight)
			}
			if y > 0 {
				relax(i, idx(x, y-1), straight)
				if x > 0 {
					relax(i, idx(x-1, y-1), diag)
				}
				if x < w-1 {
					relax(i, idx(x+1, y-1), diag)
				}
			}
		}
	}
	// Backward pass.
	for y := h - 1; y >= 0; y-- {
		for x := w - 1; x >= 0; x-- {
			i := idx(x, y)
			if x < w-1 {
				relax(i, idx(x+1, y), straight)
			}
			if y < h-1 {
				relax(i, idx(x, y+1), straight)
				if x < w-1 {
					relax(i, idx(x+1, y+1), diag)
				}
				if x > 0 {
					relax(i, idx(x-1, y+1), diag)
				}
			}
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Text map format. '#' = occupied, '.' = free, '?' = unknown; row 0 of the
// text is the TOP of the map (highest y), matching how humans draw maps.

// ParseText builds a map from an ASCII drawing. All lines must have equal
// length after trailing-space trimming is NOT applied (use explicit '.').
func ParseText(text string, res float64, origin geom.Vec2) (*Map, error) {
	lines := strings.Split(strings.Trim(text, "\n"), "\n")
	if len(lines) == 0 || len(lines[0]) == 0 {
		return nil, fmt.Errorf("grid: empty map text")
	}
	w, h := len(lines[0]), len(lines)
	m := NewMap(w, h, res, origin, Free)
	for row, line := range lines {
		if len(line) != w {
			return nil, fmt.Errorf("grid: line %d has width %d, want %d", row, len(line), w)
		}
		y := h - 1 - row
		for x, ch := range line {
			var v int8
			switch ch {
			case '#':
				v = Occupied
			case '.', ' ':
				v = Free
			case '?':
				v = Unknown
			default:
				return nil, fmt.Errorf("grid: bad char %q at row %d col %d", ch, row, x)
			}
			m.Set(geom.Cell{X: x, Y: y}, v)
		}
	}
	return m, nil
}

// WriteText renders the map in the same ASCII format ParseText reads.
func WriteText(w io.Writer, m *Map) error {
	bw := bufio.NewWriter(w)
	for row := 0; row < m.Height; row++ {
		y := m.Height - 1 - row
		for x := 0; x < m.Width; x++ {
			var ch byte
			switch m.At(geom.Cell{X: x, Y: y}) {
			case Occupied:
				ch = '#'
			case Free:
				ch = '.'
			default:
				ch = '?'
			}
			if err := bw.WriteByte(ch); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
