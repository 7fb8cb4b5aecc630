package world

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
)

func emptyWorld() *World {
	return New(EmptyRoomMap(10, 10, 0.05), Turtlebot3(), geom.P(5, 5, 0))
}

func TestStepStraightLine(t *testing.T) {
	w := emptyWorld()
	w.SetCommand(geom.Twist{V: 0.2})
	for i := 0; i < 100; i++ {
		w.Step(0.05) // 5 s total
	}
	// After ramp-up (fast: 2.5 m/s²), the robot covers nearly 0.2*5 = 1 m.
	if w.Robot.Pose.Pos.X < 5.9 || w.Robot.Pose.Pos.X > 6.05 {
		t.Errorf("x = %v, want ≈ 5.99", w.Robot.Pose.Pos.X)
	}
	if math.Abs(w.Robot.Pose.Pos.Y-5) > 1e-9 {
		t.Errorf("y drifted: %v", w.Robot.Pose.Pos.Y)
	}
	if math.Abs(w.Time-5.0) > 1e-9 {
		t.Errorf("time = %v", w.Time)
	}
}

func TestAccelerationLimit(t *testing.T) {
	w := emptyWorld()
	w.SetCommand(geom.Twist{V: 1.0})
	res := w.Step(0.1)
	maxDv := w.Robot.Spec.MaxAccel * 0.1
	if w.Robot.Vel.V > maxDv+1e-9 {
		t.Errorf("velocity jumped to %v, accel limit allows %v", w.Robot.Vel.V, maxDv)
	}
	if math.Abs(res.Accel-w.Robot.Spec.MaxAccel) > 1e-9 {
		t.Errorf("reported accel = %v", res.Accel)
	}
}

func TestCommandClamping(t *testing.T) {
	w := emptyWorld()
	w.SetCommand(geom.Twist{V: 99, W: -99})
	if w.Command().V != w.Robot.Spec.MaxV {
		t.Errorf("V not clamped: %v", w.Command().V)
	}
	if w.Command().W != -w.Robot.Spec.MaxW {
		t.Errorf("W not clamped: %v", w.Command().W)
	}
}

func TestCollisionStopsRobot(t *testing.T) {
	m := EmptyRoomMap(4, 4, 0.05)
	w := New(m, Turtlebot3(), geom.P(2, 2, 0))
	w.SetCommand(geom.Twist{V: 1.0})
	collided := false
	for i := 0; i < 400; i++ {
		res := w.Step(0.05)
		if res.Collided {
			collided = true
			break
		}
	}
	if !collided {
		t.Fatal("robot never collided with the wall")
	}
	// Robot must be stopped and still inside free space.
	if w.Robot.Vel.V != 0 {
		t.Errorf("velocity after collision = %v", w.Robot.Vel.V)
	}
	if FootprintCollides(m, w.Robot.Pose.Pos, w.Robot.Spec.Radius) {
		t.Error("robot ended inside an obstacle")
	}
	// And near the wall (x ≈ 4 - radius).
	if w.Robot.Pose.Pos.X < 3.5 {
		t.Errorf("stopped too early: x = %v", w.Robot.Pose.Pos.X)
	}
}

func TestOdometryTracksPoseWithoutCollision(t *testing.T) {
	w := emptyWorld()
	start := w.Robot.Pose
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		w.SetCommand(geom.Twist{V: 0.1 + 0.1*rng.Float64(), W: rng.Float64() - 0.5})
		w.Step(0.05)
	}
	if w.Collided() {
		t.Skip("random walk collided; odometry check not applicable")
	}
	// Ground truth pose must equal start ∘ odom.
	want := start.Compose(w.Robot.Odom)
	if want.Pos.Dist(w.Robot.Pose.Pos) > 1e-6 {
		t.Errorf("odom-composed pose %v != true pose %v", want, w.Robot.Pose)
	}
}

func TestTractionPower(t *testing.T) {
	s := Turtlebot3()
	if p := s.TractionPower(0, 0); p != 0 {
		t.Errorf("stationary power = %v", p)
	}
	// Cruising: P = P_l + m g μ v.
	v := 0.2
	want := s.TransfLoss + s.Mass*Gravity*s.Friction*v
	if p := s.TractionPower(v, 0); math.Abs(p-want) > 1e-9 {
		t.Errorf("cruise power = %v, want %v", p, want)
	}
	// Accelerating draws more.
	if s.TractionPower(v, 1.0) <= s.TractionPower(v, 0) {
		t.Error("acceleration should increase power")
	}
	// Deceleration does not add negative traction (braking is free).
	if s.TractionPower(v, -1.0) != s.TractionPower(v, 0) {
		t.Error("deceleration should not reduce below cruise")
	}
}

func TestTractionPowerMonotoneInV(t *testing.T) {
	s := Turtlebot3()
	f := func(v1, v2 float64) bool {
		v1, v2 = math.Abs(v1), math.Abs(v2)
		if math.IsNaN(v1) || math.IsNaN(v2) || v1 > 1e6 || v2 > 1e6 {
			return true
		}
		if v1 < 1e-6 || v2 < 1e-6 {
			return true
		}
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return s.TractionPower(v1, 0) <= s.TractionPower(v2, 0)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFootprintCollides(t *testing.T) {
	m := EmptyRoomMap(2, 2, 0.05)
	if !FootprintCollides(m, geom.V(0.02, 1.0), 0.1) {
		t.Error("touching the wall should collide")
	}
	if FootprintCollides(m, geom.V(1.0, 1.0), 0.1) {
		t.Error("center of room should be free")
	}
	if !FootprintCollides(m, geom.V(-5, -5), 0.1) {
		t.Error("outside the map should collide")
	}
	// Reaches refFootprintCollides cannot answer: a NaN or infinite
	// radius, and a robot-sized disc on 1000x1000-cell maps at 1e-12 m
	// and 1e-300 m. The first square would hold about 10^23 cells; the
	// second's size overflows int, so the reference walks no cell and
	// reports a free disc.
	for _, r := range []float64{math.NaN(), math.Inf(1)} {
		if !FootprintCollides(m, geom.V(1, 1), r) {
			t.Errorf("radius %v: no collision", r)
		}
	}
	for _, res := range []float64{1e-12, 1e-300} {
		tiny := EmptyRoomMap(1000*res, 1000*res, res)
		if !FootprintCollides(tiny, geom.V(500*res, 500*res), 0.105) {
			t.Errorf("resolution %g: a 0.105 m disc fits a %g m map", res, 1000*res)
		}
	}
}

// refFootprintCollides is FootprintCollides without its reach guard:
// the search square is sized from the reach however large it is.
func refFootprintCollides(m *grid.Map, pos geom.Vec2, radius float64) bool {
	cr := int(math.Ceil(radius/m.Resolution)) + 1
	center := m.WorldToCell(pos)
	r2 := radius * radius
	half := m.Resolution / 2
	for dy := -cr; dy <= cr; dy++ {
		for dx := -cr; dx <= cr; dx++ {
			c := geom.Cell{X: center.X + dx, Y: center.Y + dy}
			cw := m.CellToWorld(c)
			closest := geom.V(
				geom.Clamp(pos.X, cw.X-half, cw.X+half),
				geom.Clamp(pos.Y, cw.Y-half, cw.Y+half),
			)
			if closest.DistSq(pos) > r2 {
				continue
			}
			if !m.InBounds(c) || m.At(c) == grid.Occupied {
				return true
			}
		}
	}
	return false
}

// TestFootprintCollidesMatchesReference checks the reach guard against
// the unguarded function on random maps of up to 16x16 cells with a few
// occupied and unknown cells, centers on the map or just off it, and
// reaches in three bands: within 1.5 cells of the map's larger side, up
// to a third of it (where most free discs are), and up to three times
// it.
func TestFootprintCollidesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	states := []int8{grid.Free, grid.Occupied, grid.Unknown}
	for trial := 0; trial < 5000; trial++ {
		w, h := 1+rng.Intn(16), 1+rng.Intn(16)
		res := []float64{0.05, 0.1, 0.3, 1}[rng.Intn(4)]
		origin := geom.V(rng.Float64()*4-2, rng.Float64()*4-2)
		m := grid.NewMap(w, h, res, origin, grid.Free)
		for i := range m.Cells {
			if rng.Float64() < 0.05 {
				m.Cells[i] = states[rng.Intn(len(states))]
			}
		}
		pos := geom.V(origin.X+(rng.Float64()*1.2-0.1)*float64(w)*res,
			origin.Y+(rng.Float64()*1.2-0.1)*float64(h)*res)
		side := float64(max(w, h))
		var reach float64
		switch trial % 3 {
		case 0:
			reach = side + (rng.Float64()*2-1)*1.5
		case 1:
			reach = rng.Float64() * side / 3
		default:
			reach = rng.Float64() * 3 * side
		}
		radius := reach * res
		if got, want := FootprintCollides(m, pos, radius), refFootprintCollides(m, pos, radius); got != want {
			t.Fatalf("trial %d: %dx%d map at %g m, pos %v, radius %g (%g cells): got %v, reference %v",
				trial, w, h, res, pos, radius, reach, got, want)
		}
	}
}

func TestZeroAndNegativeDt(t *testing.T) {
	w := emptyWorld()
	w.SetCommand(geom.Twist{V: 0.2})
	before := w.Robot.Pose
	w.Step(0)
	w.Step(-1)
	if w.Robot.Pose != before || w.Time != 0 {
		t.Error("zero/negative dt must be a no-op")
	}
}

func TestLabMapProperties(t *testing.T) {
	m := LabMap()
	if m.Width != 240 || m.Height != 120 {
		t.Fatalf("lab dims %dx%d", m.Width, m.Height)
	}
	occ := m.CountState(grid.Occupied)
	free := m.CountState(grid.Free)
	if occ == 0 || free == 0 {
		t.Fatal("lab map degenerate")
	}
	// Borders closed.
	for x := 0; x < m.Width; x++ {
		if m.At(geom.Cell{X: x, Y: 0}) != grid.Occupied {
			t.Fatal("bottom border open")
		}
	}
	// Standard start position is free.
	if FootprintCollides(m, geom.V(0.6, 0.6), 0.11) {
		t.Error("start position blocked")
	}
	// Door gap between wall stubs is passable.
	if FootprintCollides(m, geom.V(3.1, 3.0), 0.11) {
		t.Error("door gap blocked")
	}
}

func TestObstacleCourseMap(t *testing.T) {
	m := ObstacleCourseMap()
	if m.CountState(grid.Occupied) == 0 {
		t.Fatal("no obstacles")
	}
	// Slalom gap between pillar 1 (ends y=3.0) and top wall must be passable.
	if FootprintCollides(m, geom.V(1.6, 4.5), 0.11) {
		t.Error("slalom gap 1 blocked")
	}
	if FootprintCollides(m, geom.V(2.9, 1.4), 0.11) {
		t.Error("slalom gap 2 blocked")
	}
}

func TestRandomClutterDeterministic(t *testing.T) {
	a := RandomClutterMap(8, 8, 0.1, 10, rand.New(rand.NewSource(7)))
	b := RandomClutterMap(8, 8, 0.1, 10, rand.New(rand.NewSource(7)))
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatal("same seed produced different maps")
		}
	}
	c := RandomClutterMap(8, 8, 0.1, 10, rand.New(rand.NewSource(8)))
	same := true
	for i := range a.Cells {
		if a.Cells[i] != c.Cells[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical maps")
	}
}

func TestDistanceAccumulation(t *testing.T) {
	w := emptyWorld()
	w.SetCommand(geom.Twist{V: 0.2})
	for i := 0; i < 100; i++ {
		w.Step(0.05)
	}
	if d := w.Distance(); d < 0.9 || d > 1.0 {
		t.Errorf("distance = %v, want ≈ 0.99", d)
	}
}

func TestArcTurn(t *testing.T) {
	w := emptyWorld()
	w.SetCommand(geom.Twist{V: 0.1, W: 0.5})
	for i := 0; i < 200; i++ {
		w.Step(0.05)
	}
	if math.Abs(w.Robot.Vel.W-0.5) > 1e-9 {
		t.Errorf("angular velocity = %v", w.Robot.Vel.W)
	}
	if w.Robot.Pose.Theta == 0 {
		t.Error("heading did not change on arc")
	}
}

func TestWheelConversionsRoundtrip(t *testing.T) {
	f := func(vr, wr int8) bool {
		tw := geom.Twist{V: float64(vr) * 0.01, W: float64(wr) * 0.02}
		l, r := TwistToWheels(tw, WheelBase)
		back := WheelsToTwist(l, r, WheelBase)
		return math.Abs(back.V-tw.V) < 1e-12 && math.Abs(back.W-tw.W) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWheelKinematics(t *testing.T) {
	// Pure rotation: wheels spin opposite at w·base/2.
	l, r := TwistToWheels(geom.Twist{V: 0, W: 1}, WheelBase)
	if l != -0.08 || r != 0.08 {
		t.Errorf("pure rotation wheels = %v, %v", l, r)
	}
	// Pure translation: wheels equal.
	l, r = TwistToWheels(geom.Twist{V: 0.2, W: 0}, WheelBase)
	if l != 0.2 || r != 0.2 {
		t.Errorf("pure translation wheels = %v, %v", l, r)
	}
}
