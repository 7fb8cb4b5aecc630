package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lgvoffload/internal/geom"
)

// TestQuantizeRoundTrip pins the fixed-point contract: any log-odds value
// in the representable range survives a Quantize/Dequantize round trip
// within half a quantum (the rounding bound), and quantization is exact
// on quantum multiples.
func TestQuantizeRoundTrip(t *testing.T) {
	const half = 0.5 / QuantScale
	f := func(raw int16) bool {
		// Map the int16 onto the representable log-odds range ±quantMax/QuantScale.
		l := float64(raw) / 32768.0 * (float64(quantMax) / QuantScale)
		back := Dequantize(Quantize(l))
		return math.Abs(back-l) <= half+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Quantum multiples are exact.
	for _, q := range []int16{0, 1, -1, 4096, -4096, quantMax, -quantMax} {
		if Quantize(Dequantize(q)) != q {
			t.Errorf("quantum multiple %d did not round-trip", q)
		}
	}
}

// TestQuantizeSaturation checks values beyond the representable range
// clamp symmetrically instead of wrapping.
func TestQuantizeSaturation(t *testing.T) {
	for _, tc := range []struct {
		l    float64
		want int16
	}{
		{8.0, quantMax},
		{-8.0, -quantMax},
		{1e18, quantMax},
		{-1e18, -quantMax},
		{math.Inf(1), quantMax},
		{math.Inf(-1), -quantMax},
		{float64(quantMax) / QuantScale, quantMax}, // exactly representable edge
	} {
		if got := Quantize(tc.l); got != tc.want {
			t.Errorf("Quantize(%v) = %d, want %d", tc.l, got, tc.want)
		}
	}
}

// TestLogisticTableDefinition checks the lookup tables against their
// defining expressions, including the exact neutral entries the
// branch-free matcher relies on.
func TestLogisticTableDefinition(t *testing.T) {
	if Logistic(0) != 0.5 {
		t.Errorf("Logistic(0) = %v, want exactly 0.5", Logistic(0))
	}
	if Score(0) != 0.0 {
		t.Errorf("Score(0) = %v, want exactly 0.0", Score(0))
	}
	for _, q := range []int16{1, -1, 100, -100, 4096, -4096, 16384, quantMax, -quantMax} {
		want := 1 / (1 + math.Exp(-Dequantize(q)))
		if got := Logistic(q); got != want {
			t.Errorf("Logistic(%d) = %v, want %v", q, got, want)
		}
		if got, want := Score(q), 2*Logistic(q)-1; got != want {
			t.Errorf("Score(%d) = %v, want %v", q, got, want)
		}
	}
	// Monotone in q (a logistic must be).
	prev := math.Inf(-1)
	for q := -quantMax; q <= quantMax; q += 257 {
		p := Logistic(int16(q))
		if p < prev {
			t.Fatalf("Logistic not monotone at q=%d", q)
		}
		prev = p
	}
}

// The update rule in log-odds units, before quantization. The exact
// reference below quantizes these, which pins qOcc, qFree, qMin and qMax.
var (
	lOcc  = logit(0.7)
	lFree = logit(0.4)
)

const lMin, lMax = -4.0, 4.0

func logit(p float64) float64 { return math.Log(p / (1 - p)) }

// floatRefGrid is a plain float64 log-odds grid implementing the same
// beam update rule as LogOdds, used as the reference the fixed-point
// implementation is checked against.
type floatRefGrid struct {
	g *LogOdds
	l []float64
}

func (r *floatRefGrid) integrate(from, end geom.Vec2, hit bool) {
	a := r.g.WorldToCell(from)
	b := r.g.WorldToCell(end)
	geom.Bresenham(a, b, func(c geom.Cell) bool {
		if !r.g.InBounds(c) {
			return false
		}
		i := c.Y*r.g.Width + c.X
		if c == b {
			if hit {
				r.l[i] = math.Min(r.l[i]+lOcc, lMax)
			}
			return false
		}
		r.l[i] = math.Max(r.l[i]+lFree, lMin)
		return true
	})
}

// TestIntegrateBeamMatchesFloatReference integrates a realistic workload
// of beams through both the fixed-point grid and a float64 reference and
// bounds the divergence: per-observation quantization error is at most
// half a quantum, and the clamp bounds keep the accumulated error well
// under one quantum per observation.
func TestIntegrateBeamMatchesFloatReference(t *testing.T) {
	g := NewLogOdds(80, 80, 0.05, geom.V(0, 0))
	ref := &floatRefGrid{g: g, l: make([]float64, g.Width*g.Height)}
	from := geom.V(2.0, 2.0)
	const beams = 180
	const sweeps = 12
	for s := 0; s < sweeps; s++ {
		for i := 0; i < beams; i++ {
			theta := -math.Pi + 2*math.Pi*float64(i)/beams
			dist := 0.4 + 1.4*math.Abs(math.Sin(3*theta+float64(s)))
			hit := i%7 != 0
			end := from.Add(geom.V(dist, 0).Rotate(theta))
			g.IntegrateBeamTo(from, end, hit)
			ref.integrate(from, end, hit)
		}
	}
	// Each cell saw at most sweeps*k observations; allow one quantum of
	// drift per observation plus the clamp-boundary rounding.
	tol := float64(sweeps*beams) / QuantScale
	worst := 0.0
	for y := 0; y < g.Height; y++ {
		for x := 0; x < g.Width; x++ {
			c := geom.Cell{X: x, Y: y}
			d := math.Abs(g.At(c) - ref.l[y*g.Width+x])
			if d > worst {
				worst = d
			}
			if d > tol {
				t.Fatalf("cell (%d,%d): fixed=%v ref=%v diff=%v > tol %v",
					x, y, g.At(c), ref.l[y*g.Width+x], d, tol)
			}
			// Touched must agree exactly: a cell the reference saw is
			// non-zero in fixed point too (increments are ≥ many quanta).
			if (ref.l[y*g.Width+x] != 0) != g.Touched(c) {
				t.Fatalf("cell (%d,%d): touched mismatch (ref=%v fixed q=%d)",
					x, y, ref.l[y*g.Width+x], g.AtQ(c))
			}
		}
	}
	if worst > 0.01 {
		t.Errorf("worst divergence %v exceeds 0.01 log-odds", worst)
	}
}

// TestIntegrateBeamClampSaturation drives cells against both clamp
// bounds, which they must reach exactly and never cross.
func TestIntegrateBeamClampSaturation(t *testing.T) {
	g := NewLogOdds(20, 20, 0.1, geom.V(0, 0))
	from := geom.V(0.15, 1.05)
	for i := 0; i < 500; i++ {
		g.IntegrateBeam(from, 0, 1.0, true)
	}
	endCell := g.WorldToCell(from.Add(geom.V(1, 0)))
	if got := g.AtQ(endCell); got != qMax {
		t.Errorf("occupied clamp: AtQ = %d, want %d", got, qMax)
	}
	midCell := g.WorldToCell(from.Add(geom.V(0.5, 0)))
	if got := g.AtQ(midCell); got != qMin {
		t.Errorf("free clamp: AtQ = %d, want %d", got, qMin)
	}
}

// TestIntegrateBeamToMatchesIntegrateBeam pins that the endpoint-form
// entry point is exactly the polar-form one (same cells, same counts).
func TestIntegrateBeamToMatchesIntegrateBeam(t *testing.T) {
	ga := NewLogOdds(60, 60, 0.05, geom.V(0, 0))
	gb := NewLogOdds(60, 60, 0.05, geom.V(0, 0))
	from := geom.V(1.5, 1.5)
	for i := 0; i < 90; i++ {
		theta := -math.Pi + 2*math.Pi*float64(i)/90
		dist := 0.3 + float64(i%11)*0.1
		hit := i%5 != 0
		na := ga.IntegrateBeam(from, theta, dist, hit)
		nb := gb.IntegrateBeamTo(from, from.Add(geom.V(dist, 0).Rotate(theta)), hit)
		if na != nb {
			t.Fatalf("beam %d: cell counts differ (%d vs %d)", i, na, nb)
		}
	}
	for y := 0; y < ga.Height; y++ {
		for x := 0; x < ga.Width; x++ {
			c := geom.Cell{X: x, Y: y}
			if ga.AtQ(c) != gb.AtQ(c) {
				t.Fatalf("cell (%d,%d) differs", x, y)
			}
		}
	}
}

// exactRefGrid is the fixed-point reference for the beam walk: a plain
// int16 grid walked by geom.Bresenham, with the update rule applied
// through int32 arithmetic and explicit clamps.
type exactRefGrid struct {
	g *LogOdds
	q []int16
}

func newExactRef(g *LogOdds) *exactRefGrid {
	return &exactRefGrid{g: g, q: make([]int16, g.Width*g.Height)}
}

// integrate applies one beam and returns the cells the walk visited and
// the number of distinct tiles it wrote.
func (r *exactRefGrid) integrate(from, end geom.Vec2, hit bool) (n, tiles int) {
	occ, free := int32(Quantize(lOcc)), int32(Quantize(lFree))
	lo, hi := int32(Quantize(lMin)), int32(Quantize(lMax))
	a, b := r.g.WorldToCell(from), r.g.WorldToCell(end)
	written := map[geom.Cell]bool{}
	geom.Bresenham(a, b, func(c geom.Cell) bool {
		if !r.g.InBounds(c) {
			return false
		}
		n++
		i := c.Y*r.g.Width + c.X
		switch {
		case c != b:
			r.q[i] = int16(max(int32(r.q[i])+free, lo))
		case hit:
			r.q[i] = int16(min(int32(r.q[i])+occ, hi))
		default:
			return false
		}
		written[geom.Cell{X: c.X / tileDim, Y: c.Y / tileDim}] = true
		return c != b
	})
	return n, len(written)
}

// exactBeamCheck integrates one beam into a copy-on-write clone of *g
// and into the reference, and requires the same visited count, one
// tile's copy charged per distinct tile written, an untouched source
// and identical cells. *g becomes the clone.
func exactBeamCheck(t *testing.T, g **LogOdds, ref *exactRefGrid, from, end geom.Vec2, hit bool) {
	t.Helper()
	src := *g
	before := src.Clone()
	c := src.Clone()
	n := c.IntegrateBeamTo(from, end, hit)
	wantN, tiles := ref.integrate(from, end, hit)
	if n != wantN {
		t.Fatalf("beam %v→%v hit=%v: count %d, want %d", from, end, hit, n, wantN)
	}
	if got := c.TakeCopied(); got != tiles*TileCells {
		t.Fatalf("beam %v→%v hit=%v: copied %d cells, want %d tiles × %d",
			from, end, hit, got, tiles, TileCells)
	}
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width; x++ {
			cell := geom.Cell{X: x, Y: y}
			if got, want := c.AtQ(cell), ref.q[y*c.Width+x]; got != want {
				t.Fatalf("beam %v→%v hit=%v: cell %v q=%d, want %d", from, end, hit, cell, got, want)
			}
			if src.AtQ(cell) != before.AtQ(cell) {
				t.Fatalf("beam %v→%v hit=%v: write leaked into the source at %v", from, end, hit, cell)
			}
		}
	}
	before.Release()
	src.Release()
	*g = c
}

// TestIntegrateBeamMatchesExactReference checks the beam walk cell for
// cell, count for count and copy for copy against the Bresenham
// reference: every octant and both axes, tile-border crossings,
// zero-length beams, beams that start off the grid and beams that leave
// it, repeated until cells sit on both clamps, then random beams.
func TestIntegrateBeamMatchesExactReference(t *testing.T) {
	// 70×45 cells: two full tile columns plus a partial one, one full
	// tile row plus a partial one, and an origin off the lattice.
	g := NewLogOdds(70, 45, 0.1, geom.V(-1.3, 0.7))
	ref := newExactRef(g)
	center := func(x, y int) geom.Vec2 { return g.CellToWorld(geom.Cell{X: x, Y: y}) }
	type beam struct {
		a, b [2]int
		hit  bool
	}
	var beams []beam
	// Every octant and axis from a cell one short of a tile corner.
	for _, d := range [][2]int{{9, 0}, {9, 4}, {9, 9}, {4, 9}, {0, 9}, {-4, 9}, {-9, 9},
		{-9, 4}, {-9, 0}, {-9, -4}, {-9, -9}, {-4, -9}, {0, -9}, {4, -9}, {9, -9}, {9, -4}} {
		beams = append(beams, beam{[2]int{31, 31}, [2]int{31 + d[0], 31 + d[1]}, true},
			beam{[2]int{32, 32}, [2]int{32 + 3*d[0], 12 + d[1]}, false})
	}
	beams = append(beams,
		beam{[2]int{5, 5}, [2]int{5, 5}, true},     // zero length, hit
		beam{[2]int{6, 5}, [2]int{6, 5}, false},    // zero length, miss
		beam{[2]int{0, 0}, [2]int{69, 44}, true},   // corner to corner
		beam{[2]int{69, 0}, [2]int{0, 44}, false},  // the other diagonal
		beam{[2]int{-5, 10}, [2]int{20, 10}, true}, // starts off the grid
		beam{[2]int{10, -3}, [2]int{-4, -3}, true}, // never on the grid
		beam{[2]int{60, 40}, [2]int{80, 50}, true}, // leaves across the corner
		beam{[2]int{35, 20}, [2]int{35, 45}, true}, // leaves through the top edge
		beam{[2]int{3, 20}, [2]int{-1, 22}, false}, // leaves through the left edge
	)
	for rep := 0; rep < 12; rep++ { // enough hits and misses to reach both clamps
		for _, bm := range beams {
			exactBeamCheck(t, &g, ref, center(bm.a[0], bm.a[1]), center(bm.b[0], bm.b[1]), bm.hit)
		}
	}
	if g.AtQ(geom.Cell{X: 5, Y: 5}) != qMax || g.AtQ(geom.Cell{X: 1, Y: 1}) != qMin {
		t.Fatal("repeated beams did not reach the clamps")
	}
	rng := rand.New(rand.NewSource(16))
	world := func() geom.Vec2 { // up to 2 m past every edge
		return geom.V(-3.3+11*rng.Float64(), -1.3+8.5*rng.Float64())
	}
	for i := 0; i < 400; i++ {
		exactBeamCheck(t, &g, ref, world(), world(), rng.Intn(3) > 0)
	}
}
