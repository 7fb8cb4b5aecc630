package grid

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"lgvoffload/internal/geom"
)

func TestMapBasics(t *testing.T) {
	m := NewMap(10, 5, 0.1, geom.V(-0.5, -0.25), Free)
	if m.At(geom.Cell{X: 0, Y: 0}) != Free {
		t.Error("fresh cell not free")
	}
	m.Set(geom.Cell{X: 3, Y: 2}, Occupied)
	if m.At(geom.Cell{X: 3, Y: 2}) != Occupied {
		t.Error("Set/At roundtrip failed")
	}
	if m.At(geom.Cell{X: -1, Y: 0}) != Unknown {
		t.Error("out of bounds should be Unknown")
	}
	m.Set(geom.Cell{X: 100, Y: 100}, Occupied) // must not panic
	if m.CountState(Occupied) != 1 {
		t.Errorf("CountState = %d", m.CountState(Occupied))
	}
}

func TestWorldCellRoundtrip(t *testing.T) {
	m := NewMap(20, 20, 0.05, geom.V(-0.5, -0.5), Free)
	f := func(xr, yr uint8) bool {
		c := geom.Cell{X: int(xr) % 20, Y: int(yr) % 20}
		// Center of a cell must map back to the same cell.
		return m.WorldToCell(m.CellToWorld(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorldToCellNegativeCoords(t *testing.T) {
	m := NewMap(10, 10, 1.0, geom.V(-5, -5), Free)
	c := m.WorldToCell(geom.V(-4.5, -4.5))
	if c != (geom.Cell{X: 0, Y: 0}) {
		t.Errorf("negative world coord mapped to %v", c)
	}
	c = m.WorldToCell(geom.V(4.5, 4.5))
	if c != (geom.Cell{X: 9, Y: 9}) {
		t.Errorf("positive world coord mapped to %v", c)
	}
}

const boxMap = `
##########
#........#
#........#
#...##...#
#........#
##########
`

func mustParse(t *testing.T, text string) *Map {
	t.Helper()
	m, err := ParseText(text, 0.1, geom.V(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseText(t *testing.T) {
	m := mustParse(t, boxMap)
	if m.Width != 10 || m.Height != 6 {
		t.Fatalf("dims %dx%d", m.Width, m.Height)
	}
	// Top row of text is the highest y row.
	if m.At(geom.Cell{X: 0, Y: 5}) != Occupied {
		t.Error("top-left should be occupied")
	}
	if m.At(geom.Cell{X: 1, Y: 4}) != Free {
		t.Error("interior should be free")
	}
	// The ## island at text row 3 => y = 2, x = 4..5.
	if m.At(geom.Cell{X: 4, Y: 2}) != Occupied || m.At(geom.Cell{X: 5, Y: 2}) != Occupied {
		t.Error("island not parsed")
	}
}

func TestParseTextErrors(t *testing.T) {
	if _, err := ParseText("", 0.1, geom.V(0, 0)); err == nil {
		t.Error("empty map should error")
	}
	if _, err := ParseText("##\n#", 0.1, geom.V(0, 0)); err == nil {
		t.Error("ragged map should error")
	}
	if _, err := ParseText("#x", 0.1, geom.V(0, 0)); err == nil {
		t.Error("bad char should error")
	}
}

func TestWriteTextRoundtrip(t *testing.T) {
	m := mustParse(t, boxMap)
	m.Set(geom.Cell{X: 2, Y: 2}, Unknown)
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ParseText(buf.String(), m.Resolution, m.Origin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Cells {
		if m.Cells[i] != m2.Cells[i] {
			t.Fatalf("cell %d differs after roundtrip", i)
		}
	}
}

func TestRaycastHit(t *testing.T) {
	m := mustParse(t, boxMap)
	// From the center of the box looking in +x: wall at x=9 (world 0.95
	// center). Start at (0.15, 0.45).
	from := geom.V(0.15, 0.45)
	d, hit := m.Raycast(from, 0, 5)
	if !hit {
		t.Fatal("expected hit")
	}
	want := 0.95 - 0.15
	if math.Abs(d-want) > 0.11 {
		t.Errorf("raycast dist = %v, want ≈ %v", d, want)
	}
}

func TestRaycastMiss(t *testing.T) {
	m := NewMap(100, 100, 0.1, geom.V(0, 0), Free)
	d, hit := m.Raycast(geom.V(5, 5), 0, 2)
	if hit || d != 2 {
		t.Errorf("expected clean miss at max range, got d=%v hit=%v", d, hit)
	}
}

func TestRaycastHitsIsland(t *testing.T) {
	m := mustParse(t, boxMap)
	// From left of the island (x cells 4..5 at y=2), looking +x from (0.15, 0.25).
	d, hit := m.Raycast(geom.V(0.15, 0.25), 0, 5)
	if !hit {
		t.Fatal("expected island hit")
	}
	if d > 0.4 {
		t.Errorf("should hit island first, d=%v", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := mustParse(t, boxMap)
	c := m.Clone()
	c.Set(geom.Cell{X: 1, Y: 1}, Occupied)
	if m.At(geom.Cell{X: 1, Y: 1}) == Occupied {
		t.Error("Clone shares storage")
	}
}

func TestLogOddsBeamIntegration(t *testing.T) {
	g := NewLogOdds(50, 50, 0.1, geom.V(0, 0))
	from := geom.V(0.55, 2.55)
	// Integrate 10 hits at 2 m straight ahead.
	for i := 0; i < 10; i++ {
		g.IntegrateBeam(from, 0, 2.0, true)
	}
	endCell := g.WorldToCell(from.Add(geom.V(2, 0)))
	if p := g.Prob(endCell); p < 0.9 {
		t.Errorf("endpoint prob = %v, want > 0.9", p)
	}
	midCell := g.WorldToCell(from.Add(geom.V(1, 0)))
	if p := g.Prob(midCell); p > 0.1 {
		t.Errorf("mid-beam prob = %v, want < 0.1", p)
	}
	// Untouched cell stays 0.5 and not Touched.
	side := geom.Cell{X: 5, Y: 40}
	if g.Prob(side) != 0.5 || g.Touched(side) {
		t.Error("untouched cell should be 0.5 / untouched")
	}
}

func TestLogOddsMaxRangeMissLeavesEndpoint(t *testing.T) {
	g := NewLogOdds(50, 50, 0.1, geom.V(0, 0))
	from := geom.V(0.55, 2.55)
	g.IntegrateBeam(from, 0, 2.0, false)
	endCell := g.WorldToCell(from.Add(geom.V(2, 0)))
	if g.Touched(endCell) {
		t.Error("miss endpoint must stay untouched")
	}
	midCell := g.WorldToCell(from.Add(geom.V(1, 0)))
	if p := g.Prob(midCell); p >= 0.5 {
		t.Errorf("mid-beam prob = %v, want < 0.5", p)
	}
}

func TestLogOddsClamping(t *testing.T) {
	g := NewLogOdds(20, 20, 0.1, geom.V(0, 0))
	from := geom.V(0.15, 1.05)
	for i := 0; i < 1000; i++ {
		g.IntegrateBeam(from, 0, 1.0, true)
	}
	endCell := g.WorldToCell(from.Add(geom.V(1, 0)))
	l := g.At(endCell)
	if l > lMax+1e-9 {
		t.Errorf("log odds %v exceeded max %v", l, lMax)
	}
	midCell := g.WorldToCell(from.Add(geom.V(0.5, 0)))
	if lm := g.At(midCell); lm < lMin-1e-9 {
		t.Errorf("log odds %v under min %v", lm, lMin)
	}
}

// TestLogOddsCloneSharesUntilWrite pins the copy-on-write contract:
// clones observe the original's data without copying it, diverge only in
// tiles they write, and never leak writes back to the source.
func TestLogOddsCloneSharesUntilWrite(t *testing.T) {
	g := NewLogOdds(100, 100, 0.1, geom.V(0, 0))
	from := geom.V(0.55, 5.05)
	for i := 0; i < 2; i++ { // stay well under the LMax clamp
		g.IntegrateBeam(from, 0, 3.0, true)
	}
	c := g.Clone()
	endCell := g.WorldToCell(from.Add(geom.V(3, 0)))
	if c.At(endCell) != g.At(endCell) {
		t.Fatal("clone does not see original's data")
	}
	if n := c.TakeCopied(); n != 0 {
		t.Fatalf("clone copied %d cells before any write", n)
	}

	// Writing through the clone must not disturb the original.
	before := g.At(endCell)
	c.IntegrateBeam(from, 0, 3.0, true)
	if g.At(endCell) != before {
		t.Error("clone write leaked into original")
	}
	if c.At(endCell) <= before {
		t.Error("clone write had no effect")
	}
	// The write dirtied only the beam's tiles, charged in whole tiles.
	n := c.TakeCopied()
	if n == 0 || n%TileCells != 0 {
		t.Errorf("copied %d cells, want a positive multiple of %d", n, TileCells)
	}
	if n > 4*TileCells {
		t.Errorf("copied %d cells for a 3 m beam, want at most 4 tiles", n)
	}

	// Writing through the original must likewise not disturb the clone.
	cEnd := c.At(endCell)
	g.IntegrateBeam(from, 0, 3.0, true)
	if c.At(endCell) != cEnd {
		t.Error("original write leaked into clone")
	}
}

// TestLogOddsCloneChain checks refcounts survive multi-way sharing: the
// same tile shared by three grids is detached independently by each.
func TestLogOddsCloneChain(t *testing.T) {
	g := NewLogOdds(64, 64, 0.1, geom.V(0, 0))
	from := geom.V(0.35, 3.15)
	g.IntegrateBeam(from, 0, 2.0, true)
	a, b := g.Clone(), g.Clone()
	end := g.WorldToCell(from.Add(geom.V(2, 0)))
	base := g.At(end)
	a.IntegrateBeam(from, 0, 2.0, true)
	b.IntegrateBeam(from, 0, 2.0, true)
	b.IntegrateBeam(from, 0, 2.0, true)
	if g.At(end) != base {
		t.Error("source changed by clone writes")
	}
	if a.At(end) == b.At(end) || a.At(end) <= base {
		t.Errorf("clones not independent: src=%v a=%v b=%v", base, a.At(end), b.At(end))
	}
	// After everyone detached, writes to g are in-place again (no copy).
	g.TakeCopied()
	g.IntegrateBeam(from, 0, 2.0, true)
	if n := g.TakeCopied(); n != 0 {
		t.Errorf("sole-owner write copied %d cells, want 0", n)
	}
}

// TestLogOddsConcurrentCopyCountMatchesSerial: when every owner of a
// shared tile writes it at once, as the parallel SLAM update does, the
// charged copies equal the serial count (one owner writes in place),
// however the writers interleave.
func TestLogOddsConcurrentCopyCountMatchesSerial(t *testing.T) {
	const owners = 8
	from := geom.V(0.35, 3.15)
	shared := func() []*LogOdds {
		g := NewLogOdds(64, 64, 0.1, geom.V(0, 0))
		g.IntegrateBeam(from, 0, 2.0, true)
		gs := make([]*LogOdds, owners)
		for i := range gs {
			gs[i] = g.Clone()
		}
		g.Release()
		return gs
	}
	want := 0
	for _, g := range shared() {
		g.IntegrateBeam(from, 0, 2.0, true)
		want += g.TakeCopied()
	}
	if want == 0 {
		t.Fatal("serial writes copied nothing; the tiles are not shared")
	}
	for iter := 0; iter < 300; iter++ {
		gs := shared()
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(owners)
		for _, g := range gs {
			go func() {
				defer done.Done()
				start.Wait()
				g.IntegrateBeam(from, 0, 2.0, true)
			}()
		}
		start.Done()
		done.Wait()
		got := 0
		for _, g := range gs {
			got += g.TakeCopied()
		}
		if got != want {
			t.Fatalf("iteration %d: concurrent writers charged %d copied cells, serial %d", iter, got, want)
		}
	}
}

// TestLogOddsReleaseKeepsSharedTiles pins the free-list contract: a
// released grid recycles only tiles it owned exclusively, so a surviving
// clone keeps reading its shared tiles unharmed, even after the recycled
// tiles are handed out again and overwritten.
func TestLogOddsReleaseKeepsSharedTiles(t *testing.T) {
	g := NewLogOdds(64, 64, 0.1, geom.V(0, 0))
	from := geom.V(0.35, 3.15)
	for i := 0; i < 2; i++ {
		g.IntegrateBeam(from, 0, 2.0, true)
	}
	c := g.Clone()
	end := g.WorldToCell(from.Add(geom.V(2, 0)))
	want := c.At(end)
	g.Release()
	// Churn the free list: fresh grids must come back zeroed and writes to
	// them must not alias the survivor's tiles.
	for i := 0; i < 3; i++ {
		f := NewLogOdds(64, 64, 0.1, geom.V(0, 0))
		if l := f.At(end); l != 0 {
			t.Fatalf("recycled tile not zeroed: At = %v", l)
		}
		f.IntegrateBeam(from, 0, 2.0, true)
		f.Release()
	}
	if got := c.At(end); got != want {
		t.Errorf("surviving clone corrupted after Release: At = %v, want %v", got, want)
	}
	// The survivor is now sole owner: its writes are in-place, not copies.
	c.TakeCopied()
	c.IntegrateBeam(from, 0, 2.0, true)
	if n := c.TakeCopied(); n != 0 {
		t.Errorf("sole-owner write after Release copied %d cells, want 0", n)
	}
}

func TestLogOddsToMap(t *testing.T) {
	g := NewLogOdds(50, 50, 0.1, geom.V(0, 0))
	from := geom.V(0.55, 2.55)
	for i := 0; i < 10; i++ {
		g.IntegrateBeam(from, 0, 2.0, true)
	}
	// Every cell is written, so a stale destination is fully replaced.
	m := NewMap(g.Width, g.Height, g.Resolution, g.Origin, Occupied)
	g.ToMap(m, 0.25, 0.65)
	endCell := m.WorldToCell(from.Add(geom.V(2, 0)))
	if m.At(endCell) != Occupied {
		t.Error("endpoint should threshold to Occupied")
	}
	midCell := m.WorldToCell(from.Add(geom.V(1, 0)))
	if m.At(midCell) != Free {
		t.Error("mid should threshold to Free")
	}
	if m.At(geom.Cell{X: 5, Y: 40}) != Unknown {
		t.Error("untouched should stay Unknown")
	}
}

func TestDistanceTransform(t *testing.T) {
	m := NewMap(11, 11, 1.0, geom.V(0, 0), Free)
	m.Set(geom.Cell{X: 5, Y: 5}, Occupied)
	d := DistanceTransform(m)
	at := func(x, y int) float64 { return d[y*11+x] }
	if at(5, 5) != 0 {
		t.Error("occupied cell should be 0")
	}
	if at(6, 5) != 1.0 {
		t.Errorf("adjacent = %v", at(6, 5))
	}
	if math.Abs(at(6, 6)-math.Sqrt2) > 1e-9 {
		t.Errorf("diagonal = %v", at(6, 6))
	}
	// Chamfer 3-4 is within ~8% of Euclidean.
	want := math.Hypot(5, 5)
	if got := at(0, 0); math.Abs(got-want)/want > 0.09 {
		t.Errorf("corner = %v, want ≈ %v", got, want)
	}
}

func TestDistanceTransformMonotone(t *testing.T) {
	m := mustParse(t, boxMap)
	d := DistanceTransform(m)
	// Every free cell's distance exceeds that of at least one neighbor by
	// at most resolution*sqrt2 (continuity of the transform).
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			i := y*m.Width + x
			if m.Cells[i] == Occupied {
				continue
			}
			best := math.MaxFloat64
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					nx, ny := x+dx, y+dy
					if nx < 0 || ny < 0 || nx >= m.Width || ny >= m.Height {
						continue
					}
					if v := d[ny*m.Width+nx]; v < best {
						best = v
					}
				}
			}
			if d[i] > best+m.Resolution*math.Sqrt2+1e-9 {
				t.Fatalf("discontinuity at (%d,%d): %v vs min nbr %v", x, y, d[i], best)
			}
		}
	}
}

func TestKnownFraction(t *testing.T) {
	m := NewMap(10, 10, 0.1, geom.V(0, 0), Unknown)
	if m.KnownFraction() != 0 {
		t.Error("all unknown should be 0")
	}
	for i := 0; i < 50; i++ {
		m.Cells[i] = Free
	}
	if f := m.KnownFraction(); f != 0.5 {
		t.Errorf("KnownFraction = %v", f)
	}
}

func TestOccupiedAtWorld(t *testing.T) {
	m := mustParse(t, boxMap)
	if !m.OccupiedAtWorld(geom.V(0.05, 0.05)) {
		t.Error("wall should be occupied")
	}
	if m.OccupiedAtWorld(geom.V(0.15, 0.15)) {
		t.Error("interior should be free")
	}
	if !m.OccupiedAtWorld(geom.V(-1, -1)) {
		t.Error("out of bounds should be treated occupied")
	}
}

func TestWriteTextFormat(t *testing.T) {
	m := NewMap(3, 2, 0.1, geom.V(0, 0), Free)
	m.Set(geom.Cell{X: 0, Y: 1}, Occupied)
	m.Set(geom.Cell{X: 2, Y: 0}, Unknown)
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	want := "#..\n..?\n"
	if buf.String() != want {
		t.Errorf("got %q want %q", buf.String(), want)
	}
}

func TestParseTextSpacesAreFree(t *testing.T) {
	m, err := ParseText("# #\n###", 0.1, geom.V(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(geom.Cell{X: 1, Y: 1}) != Free {
		t.Error("space should parse as Free")
	}
}

// BenchmarkIntegrateBeam times one beam of a lidar scan integrated into a
// lab-sized grid (12 m × 6 m at 5 cm): origins spread over the grid,
// ranges up to the 3.5 m LDS-01 limit, nine in ten beams hits. Every
// beam ends on the grid, as over 99% of the exploration missions' beams
// do, so this times the unchecked walk.
func BenchmarkIntegrateBeam(b *testing.B) {
	g := NewLogOdds(240, 120, 0.05, geom.V(0, 0))
	rng := rand.New(rand.NewSource(1))
	type beam struct {
		from, end geom.Vec2
		hit       bool
	}
	beams := make([]beam, 4096)
	for i := range beams {
		from := geom.V(0.5+11*rng.Float64(), 0.5+5*rng.Float64())
		end := from.Add(geom.V(0.1+3.4*rng.Float64(), 0).Rotate(2 * math.Pi * rng.Float64()))
		if !g.InBounds(g.WorldToCell(end)) {
			i--
			continue
		}
		beams[i] = beam{from, end, rng.Intn(10) > 0}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm := &beams[i%len(beams)]
		beamSink = g.IntegrateBeamTo(bm.from, bm.end, bm.hit)
	}
}

var beamSink int
