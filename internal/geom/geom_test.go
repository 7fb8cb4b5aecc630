package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestVec2Arithmetic(t *testing.T) {
	a, b := V(1, 2), V(3, -4)
	if got := a.Add(b); got != V(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
	if got := b.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := b.NormSq(); got != 25 {
		t.Errorf("NormSq = %v", got)
	}
}

func TestVec2Rotate(t *testing.T) {
	v := V(1, 0).Rotate(math.Pi / 2)
	if !approx(v.X, 0) || !approx(v.Y, 1) {
		t.Errorf("Rotate 90° = %v", v)
	}
	v = V(1, 1).Rotate(math.Pi)
	if !approx(v.X, -1) || !approx(v.Y, -1) {
		t.Errorf("Rotate 180° = %v", v)
	}
}

func TestVec2Unit(t *testing.T) {
	if got := V(3, 4).Unit(); !approx(got.Norm(), 1) {
		t.Errorf("Unit norm = %v", got.Norm())
	}
	if got := V(0, 0).Unit(); got != V(0, 0) {
		t.Errorf("Unit of zero = %v", got)
	}
}

func TestVec2Lerp(t *testing.T) {
	a, b := V(0, 0), V(10, -10)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != V(5, -5) {
		t.Errorf("Lerp 0.5 = %v", got)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-3 * math.Pi / 2, math.Pi / 2},
		{math.Pi / 4, math.Pi / 4},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !approx(got, c.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e12 {
			return true
		}
		n := NormalizeAngle(a)
		if n <= -math.Pi || n > math.Pi+eps {
			return false
		}
		// Must represent the same direction.
		return approx(math.Sin(n), math.Sin(a)) && approx(math.Cos(n), math.Cos(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(math.Pi-0.1, -math.Pi+0.1); !approx(got, -0.2) {
		t.Errorf("AngleDiff across wrap = %v", got)
	}
	if got := AngleDiff(0.5, 0.2); !approx(got, 0.3) {
		t.Errorf("AngleDiff = %v", got)
	}
}

func TestPoseComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := P(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*10-5)
		q := p.Compose(p.Inverse())
		if q.Pos.Norm() > 1e-9 || math.Abs(q.Theta) > 1e-9 {
			t.Fatalf("p∘p⁻¹ != id: %v", q)
		}
	}
}

func TestPoseDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		p := P(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*10-5)
		o := P(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*10-5)
		d := p.Delta(o)
		back := p.Compose(d)
		if back.Pos.Dist(o.Pos) > 1e-9 || math.Abs(AngleDiff(back.Theta, o.Theta)) > 1e-9 {
			t.Fatalf("p∘delta != o: %v vs %v", back, o)
		}
	}
}

func TestPoseApply(t *testing.T) {
	p := P(1, 2, math.Pi/2)
	// A point 1 m ahead of the robot should land at (1, 3).
	w := p.Apply(V(1, 0))
	if !approx(w.X, 1) || !approx(w.Y, 3) {
		t.Errorf("Apply = %v", w)
	}
}

func TestTwistIntegrateStraight(t *testing.T) {
	p := P(0, 0, 0)
	q := Twist{V: 1, W: 0}.Integrate(p, 2)
	if !approx(q.Pos.X, 2) || !approx(q.Pos.Y, 0) || !approx(q.Theta, 0) {
		t.Errorf("straight integrate = %v", q)
	}
}

func TestTwistIntegrateArc(t *testing.T) {
	// Quarter circle of radius 1: v=1, w=1, t=π/2.
	p := P(0, 0, 0)
	q := Twist{V: 1, W: 1}.Integrate(p, math.Pi/2)
	if !approx(q.Pos.X, 1) || !approx(q.Pos.Y, 1) || !approx(q.Theta, math.Pi/2) {
		t.Errorf("arc integrate = %v", q)
	}
}

func TestTwistIntegrateConsistency(t *testing.T) {
	// Integrating in two half steps must match one full step for the arc
	// model (the exact solution is flow-composable).
	tw := Twist{V: 0.7, W: -0.9}
	p := P(1, -2, 0.4)
	full := tw.Integrate(p, 1.0)
	half := tw.Integrate(tw.Integrate(p, 0.5), 0.5)
	if full.Pos.Dist(half.Pos) > 1e-9 || math.Abs(AngleDiff(full.Theta, half.Theta)) > 1e-9 {
		t.Errorf("two half steps %v != full step %v", half, full)
	}
}

// refIntegrate is the unicycle step Integrate computed before it split
// into Arc and Apply, recomputing the arc's sin and cos on every call.
// Kept as the reference a chain of Arc.Apply must match bit for bit.
func refIntegrate(t Twist, p Pose, dt float64) Pose {
	if math.Abs(t.W) < 1e-9 {
		return Pose{
			Pos:   p.Pos.Add(V(t.V*dt, 0).Rotate(p.Theta)),
			Theta: p.Theta,
		}
	}
	r := t.V / t.W
	dth := t.W * dt
	dx := r * math.Sin(dth)
	dy := r * (1 - math.Cos(dth))
	return Pose{
		Pos:   p.Pos.Add(V(dx, dy).Rotate(p.Theta)),
		Theta: NormalizeAngle(p.Theta + dth),
	}
}

func TestArcChainMatchesIntegrate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	same := func(a, b Pose) bool {
		return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
			math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
			math.Float64bits(a.Theta) == math.Float64bits(b.Theta)
	}
	twists := []Twist{{V: 0.2}, {V: 0.1, W: 5e-10}, {V: 0.1, W: -1e-9}, {V: 0, W: 1.3}, {V: -0.05, W: -2}}
	for i := 0; i < 200; i++ {
		twists = append(twists, Twist{V: rng.Float64()*0.5 - 0.1, W: rng.Float64()*4 - 2})
	}
	for _, tw := range twists {
		for _, dt := range []float64{0.1, 0.05, 0, 1.7} {
			// Unnormalized and negative-zero headings pass through the
			// straight-line model untouched.
			for _, start := range []Pose{P(1, -2, 0.4), {Pos: V(3, 1), Theta: 4.0}, {Theta: math.Copysign(0, -1)}} {
				if got, want := tw.Integrate(start, dt), refIntegrate(tw, start, dt); !same(got, want) {
					t.Fatalf("%+v dt=%v from %v: Integrate = %v, reference %v", tw, dt, start, got, want)
				}
				// The split chain steps headings on an arc of the same
				// angular velocity and no linear one, as a rollout sharing
				// its headings does.
				arc, turn := tw.Arc(dt), Twist{W: tw.W}.Arc(dt)
				ref, chain, split := start, start, start
				for s := 0; s < 12; s++ {
					ref = refIntegrate(tw, ref, dt)
					chain = arc.Apply(chain)
					sin, cos := math.Sincos(split.Theta)
					split = Pose{Pos: arc.Move(split.Pos, sin, cos), Theta: turn.Heading(split.Theta)}
					if !same(chain, ref) || !same(split, ref) {
						t.Fatalf("%+v dt=%v from %v: step %d = %v and %v, reference %v", tw, dt, start, s, chain, split, ref)
					}
				}
			}
		}
	}
}

func TestBresenhamHorizontal(t *testing.T) {
	var got []Cell
	Bresenham(Cell{0, 0}, Cell{3, 0}, func(c Cell) bool {
		got = append(got, c)
		return true
	})
	want := []Cell{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestBresenhamDiagonalAndStop(t *testing.T) {
	var got []Cell
	Bresenham(Cell{0, 0}, Cell{-3, -3}, func(c Cell) bool {
		got = append(got, c)
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Fatalf("early stop failed: %v", got)
	}
	if got[2] != (Cell{-2, -2}) {
		t.Fatalf("diagonal walk wrong: %v", got)
	}
}

func TestBresenhamEndpointsProperty(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := Cell{int(ax), int(ay)}
		b := Cell{int(bx), int(by)}
		var first, last Cell
		n := 0
		Bresenham(a, b, func(c Cell) bool {
			if n == 0 {
				first = c
			}
			last = c
			n++
			return true
		})
		// Must start at a, end at b, and visit the right number of cells.
		wantN := max(absInt(int(bx)-int(ax)), absInt(int(by)-int(ay))) + 1
		return first == a && last == b && n == wantN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{V(0, 0), V(10, 0)}
	if got := s.ClosestPoint(V(5, 3)); got != V(5, 0) {
		t.Errorf("mid = %v", got)
	}
	if got := s.ClosestPoint(V(-5, 3)); got != V(0, 0) {
		t.Errorf("before = %v", got)
	}
	if got := s.ClosestPoint(V(15, 3)); got != V(10, 0) {
		t.Errorf("after = %v", got)
	}
	if got := s.Dist(V(5, 3)); got != 3 {
		t.Errorf("Dist = %v", got)
	}
	// Degenerate segment.
	d := Segment{V(1, 1), V(1, 1)}
	if got := d.ClosestPoint(V(5, 5)); got != V(1, 1) {
		t.Errorf("degenerate = %v", got)
	}
}

func TestPathLength(t *testing.T) {
	if got := PathLength(nil); got != 0 {
		t.Errorf("nil path = %v", got)
	}
	if got := PathLength([]Vec2{V(0, 0)}); got != 0 {
		t.Errorf("single = %v", got)
	}
	if got := PathLength([]Vec2{V(0, 0), V(3, 4), V(3, 5)}); !approx(got, 6) {
		t.Errorf("path = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
}
