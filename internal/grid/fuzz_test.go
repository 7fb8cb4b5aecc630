package grid

import (
	"math"
	"testing"

	"lgvoffload/internal/geom"
)

// FuzzParseText throws arbitrary text at the map parser: it must either
// return a well-formed map or an error, never panic.
func FuzzParseText(f *testing.F) {
	f.Add("####\n#..#\n####")
	f.Add("")
	f.Add("#\n##")
	f.Add("?.#\n.#?")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseText(text, 0.1, geom.V(0, 0))
		if err != nil {
			return
		}
		if m.Width <= 0 || m.Height <= 0 {
			t.Fatalf("parsed map with degenerate dims %dx%d", m.Width, m.Height)
		}
		if len(m.Cells) != m.Width*m.Height {
			t.Fatal("cell slice size mismatch")
		}
	})
}

// FuzzIntegrateBeamFixed throws arbitrary beams at the fixed-point
// log-odds grid. Whatever the beam, the walk must not panic, every cell
// must stay inside the clamp bounds, and the result must agree with a
// float64 reference implementation of the same update rule to within the
// quantization error of a single observation.
func FuzzIntegrateBeamFixed(f *testing.F) {
	f.Add(0.55, 2.55, 0.0, 2.0, true)
	f.Add(0.55, 2.55, math.Pi/3, 3.5, false)
	f.Add(-1.0, -1.0, -2.5, 10.0, true)     // starts out of bounds
	f.Add(3.15, 3.15, 2.0, 0.0, true)       // zero-length beam
	f.Add(1.0, 1.0, 0.7853981, 500.0, true) // exits the map
	f.Add(2.0, 2.0, math.Pi, 1e-9, false)
	f.Fuzz(func(t *testing.T, fx, fy, theta, dist float64, hit bool) {
		for _, v := range []float64{fx, fy, theta, dist} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return
			}
		}
		g := NewLogOdds(64, 64, 0.1, geom.V(0, 0))
		ref := &floatRefGrid{g: g, l: make([]float64, g.Width*g.Height)}
		from := geom.V(fx, fy)
		end := from.Add(geom.V(dist, 0).Rotate(theta))
		n := g.IntegrateBeamTo(from, end, hit)
		ref.integrate(from, end, hit)
		if n < 0 {
			t.Fatalf("negative cell count %d", n)
		}
		lo, hi := qMin, qMax
		for y := 0; y < g.Height; y++ {
			for x := 0; x < g.Width; x++ {
				c := geom.Cell{X: x, Y: y}
				q := g.AtQ(c)
				if q < lo || q > hi {
					t.Fatalf("cell (%d,%d) q=%d outside clamp [%d,%d]", x, y, q, lo, hi)
				}
				if d := math.Abs(Dequantize(q) - ref.l[y*g.Width+x]); d > 1.0/QuantScale {
					t.Fatalf("cell (%d,%d) diverged from float reference by %v", x, y, d)
				}
			}
		}
	})
}

// FuzzIntegrateBeamExact throws arbitrary beams, each repeated up to 16
// times, at the beam walk and requires exact agreement with the
// Bresenham reference: every cell, the visited count and the
// copy-on-write charge.
func FuzzIntegrateBeamExact(f *testing.F) {
	f.Add(0.35, 2.45, 3.05, 2.45, true, uint8(0))   // along a row, across a tile border
	f.Add(1.95, 1.95, -0.75, 4.05, false, uint8(3)) // steep, up and to the left
	f.Add(-2.0, 1.0, 3.0, 2.0, true, uint8(1))      // starts off the grid
	f.Add(4.0, 3.0, 9.5, 6.5, true, uint8(2))       // leaves across the corner
	f.Add(2.0, 2.0, 2.0, 2.0, true, uint8(15))      // zero length, to the clamp
	f.Add(5.65, 5.15, -1.25, 0.75, false, uint8(15))
	f.Fuzz(func(t *testing.T, fx, fy, ex, ey float64, hit bool, reps uint8) {
		for _, v := range []float64{fx, fy, ex, ey} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return
			}
		}
		g := NewLogOdds(70, 45, 0.1, geom.V(-1.3, 0.7))
		ref := newExactRef(g)
		for i := 0; i <= int(reps%16); i++ {
			exactBeamCheck(t, &g, ref, geom.V(fx, fy), geom.V(ex, ey), hit)
		}
	})
}
