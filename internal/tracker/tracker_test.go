package tracker

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/costmap"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/world"
)

func openCostmap() *costmap.Costmap {
	m := world.EmptyRoomMap(8, 8, 0.05)
	cfg := costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	c := costmap.New(cfg)
	c.SetStatic(m)
	return c
}

func straightInput(cm *costmap.Costmap) Input {
	return Input{
		Pose:    geom.P(2, 4, 0),
		Vel:     geom.Twist{V: 0.1},
		Path:    []geom.Vec2{geom.V(2, 4), geom.V(6, 4)},
		Costmap: cm,
	}
}

func TestPlanDrivesTowardGoal(t *testing.T) {
	tr := New(DefaultConfig())
	out, err := tr.Plan(straightInput(openCostmap()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cmd.V <= 0 {
		t.Errorf("should drive forward, v = %v", out.Cmd.V)
	}
	if math.Abs(out.Cmd.W) > 0.5 {
		t.Errorf("straight path should need little turning, w = %v", out.Cmd.W)
	}
	if out.Evaluated != tr.Config().NumTrajectories() {
		t.Errorf("evaluated %d of %d", out.Evaluated, tr.Config().NumTrajectories())
	}
	if out.Ops == 0 {
		t.Error("no work accounted")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	tr := New(DefaultConfig())
	in := straightInput(openCostmap())
	serial, err := tr.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 3, 4, 8, 16} {
		for _, part := range []Partition{Block, Interleaved} {
			par, err := tr.PlanParallel(in, threads, part)
			if err != nil {
				t.Fatalf("threads=%d: %v", threads, err)
			}
			if par.Cmd != serial.Cmd {
				t.Errorf("threads=%d part=%v: cmd %v != serial %v", threads, part, par.Cmd, serial.Cmd)
			}
			if par.Score != serial.Score {
				t.Errorf("threads=%d: score %v != %v", threads, par.Score, serial.Score)
			}
			if par.Evaluated != serial.Evaluated || par.Ops != serial.Ops {
				t.Errorf("threads=%d: work accounting differs", threads)
			}
		}
	}
}

// refCandidate and refPlan are the planner as it was before the heading
// and footprint tables: a serial loop over every candidate whose rollout
// calls Arc.Apply, with its Sincos, and Costmap.FootprintCost at every
// step, and scores with refDistToPath. Kept as the reference Plan and
// PlanParallel must match in every Output field.
func refCandidate(c Config, i int, cur geom.Twist, maxV float64) geom.Twist {
	vi, wi := i/c.WSamples, i%c.WSamples
	vLo := math.Max(c.MinV, cur.V-c.AccV*c.Period)
	vHi := math.Min(maxV, cur.V+c.AccV*c.Period)
	if vHi < vLo {
		vHi = vLo
	}
	wLo := math.Max(-c.MaxW, cur.W-c.AccW*c.Period)
	wHi := math.Min(c.MaxW, cur.W+c.AccW*c.Period)
	var v, w float64
	if c.VSamples == 1 {
		v = vLo
	} else {
		v = vLo + (vHi-vLo)*float64(vi)/float64(c.VSamples-1)
	}
	if c.WSamples == 1 {
		w = wLo
	} else {
		w = wLo + (wHi-wLo)*float64(wi)/float64(c.WSamples-1)
	}
	return geom.Twist{V: v, W: w}
}

func refPlan(c Config, in Input, carrot geom.Vec2) (Output, error) {
	maxV := c.MaxV
	if in.MaxVCap > 0 && in.MaxVCap < maxV {
		maxV = in.MaxVCap
	}
	out, best := Output{Score: math.Inf(1)}, -1
	for i := 0; i < c.NumTrajectories(); i++ {
		tw := refCandidate(c, i, in.Vel, maxV)
		arc := tw.Arc(c.SimDt)
		pose, worstCell, blocked := in.Pose, uint8(0), false
		n := int(c.SimTime / c.SimDt)
		for s := 0; s < n && !blocked; s++ {
			pose = arc.Apply(pose)
			out.Ops++
			fc := in.Costmap.FootprintCost(pose.Pos)
			blocked = fc >= costmap.InscribedCost
			worstCell = max(worstCell, fc)
		}
		out.Evaluated++
		cost := math.Inf(1)
		if !blocked {
			cost = c.GoalWeight*pose.Pos.Dist(carrot) +
				c.PathWeight*refDistToPath(pose.Pos, in.Path) +
				c.ObstacleWeight*float64(worstCell) -
				c.SpeedWeight*tw.V
		}
		if math.IsInf(cost, 1) {
			out.Discarded++
			continue
		}
		if cost < out.Score {
			out.Score, best = cost, i
		}
	}
	if best < 0 {
		return out, ErrAllBlocked
	}
	out.Cmd = refCandidate(c, best, in.Vel, maxV)
	return out, nil
}

// refDistToPath is distToPath before it picked segments by squared
// distance: the minimum of every segment's Segment.Dist.
func refDistToPath(p geom.Vec2, path []geom.Vec2) float64 {
	if len(path) == 0 {
		return 0
	}
	if len(path) == 1 {
		return p.Dist(path[0])
	}
	best := math.Inf(1)
	for i := 0; i+1 < len(path); i++ {
		if d := (geom.Segment{A: path[i], B: path[i+1]}).Dist(p); d < best {
			best = d
		}
	}
	return best
}

// FuzzDistToPath holds distToPath to refDistToPath, bit for bit, for a
// point and a path of up to four points (n mod 5 of them), over any
// coordinates: subnormal ones, squares that underflow or overflow, NaN
// and infinite ones, and points at exactly or nearly the same distance
// from two segments.
func FuzzDistToPath(f *testing.F) {
	f.Add(1.0, 2.0, 0.0, 0.0, 3.0, 0.0, 3.0, 4.0, 0.0, 4.0, uint8(4))
	f.Add(0.0, 0.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, uint8(4))                       // three segments at distance 1
	f.Add(0.0, math.Nextafter(0, 1), -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, uint8(4))      // a subnormal step off the middle
	f.Add(5e-324, 0.0, 0.0, 0.0, 1e-310, 2e-310, -3e-320, 4e-320, 0.0, 1e-315, uint8(4))        // subnormal
	f.Add(0.0, 0.0, 2.63e-162, 2.63e-162, 7.168e-162, 0.0, 3.584e-162, 0.0, 0.0, 0.0, uint8(3)) // the nearer segment's subnormal square is larger
	f.Add(-162.0, 21.0, 73.0, 0.0, 4.0/3, 79.0, 4.0, 92.0, 45.0, 0.0, uint8(4))                 // equal squares, Hypots an ulp apart
	f.Add(0.0, 0.0, 0x1p-450, -1.0, 0x1p-450, 1.0, -0x1p-451, 1.0, 0.0, 5.0, uint8(3))          // squares near 2⁻⁹⁰⁰
	f.Add(1e200, -1e200, -1e300, 0.0, 1e308, 1e308, 0.0, 0.0, 1.0, 1.0, uint8(4))               // overflowing squares
	f.Add(0.0, 0.0, 1.3e154, 0.0, 1.3e154, 1.0, 1.4e154, 0.0, 1.4e154, 1.0, uint8(4))           // one square overflows
	f.Add(math.NaN(), 1.0, 0.0, 0.0, 3.0, 0.0, 3.0, 4.0, 0.0, 4.0, uint8(4))                    // NaN point
	f.Add(1.0, 1.0, 0.0, 0.0, math.NaN(), 0.0, 3.0, 4.0, 0.0, 4.0, uint8(4))                    // NaN path point
	f.Add(math.Inf(1), 0.0, 0.0, 0.0, 3.0, math.NaN(), 3.0, 4.0, 0.0, 4.0, uint8(3))            // Inf and NaN: Hypot +Inf
	f.Add(2.0, 0.0, 0.0, 0.0, 4.0, 0.0, 4.0, 0.0, 0.0, 0.0, uint8(4))                           // on the path, repeated points
	f.Fuzz(func(t *testing.T, px, py, ax, ay, bx, by, cx, cy, dx, dy float64, n uint8) {
		p := geom.V(px, py)
		path := []geom.Vec2{geom.V(ax, ay), geom.V(bx, by), geom.V(cx, cy), geom.V(dx, dy)}[:n%5]
		got, want := distToPath(p, path), refDistToPath(p, path)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("distToPath(%v, %v) = %v, reference %v", p, path, got, want)
		}
	})
}

// labCostmap is the Fig. 13 lab map's costmap after one update from a
// random 90-beam scan, so its obstacle layer holds random lethal cells.
func labCostmap(seed int64) *costmap.Costmap {
	m := world.LabMap()
	cm := costmap.New(costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin))
	cm.SetStatic(m)
	rng := rand.New(rand.NewSource(seed))
	scan := &sensor.Scan{AngleMin: -math.Pi, AngleInc: 2 * math.Pi / 90, MaxRange: 3.5, Ranges: make([]float64, 90)}
	for i := range scan.Ranges {
		scan.Ranges[i] = 0.2 + rng.Float64()*3.5 // past MaxRange is a miss
	}
	cm.Update(geom.P(1+rng.Float64()*10, 1+rng.Float64()*4, 0), scan)
	return cm
}

// matchesReference fails t unless Plan, and PlanParallel at 2, 3 and 8
// threads under both partitions, return refPlan's command, score bits,
// error and work counts for in.
func matchesReference(t *testing.T, cfg Config, tr *Tracker, in Input) {
	t.Helper()
	want, wantErr := refPlan(cfg, in, tr.carrot(in.Pose, in.Path))
	check := func(name string, got Output, err error) {
		t.Helper()
		bits := math.Float64bits
		if err != wantErr || bits(got.Cmd.V) != bits(want.Cmd.V) || bits(got.Cmd.W) != bits(want.Cmd.W) ||
			bits(got.Score) != bits(want.Score) || got.Evaluated != want.Evaluated ||
			got.Discarded != want.Discarded || got.Ops != want.Ops {
			t.Fatalf("%s = %+v, %v; reference %+v, %v", name, got, err, want, wantErr)
		}
	}
	got, err := tr.Plan(in)
	check("Plan", got, err)
	for _, threads := range []int{2, 3, 8} {
		for _, part := range []Partition{Block, Interleaved} {
			got, err := tr.PlanParallel(in, threads, part)
			check(fmt.Sprintf("PlanParallel(%d, %v)", threads, part), got, err)
		}
	}
}

// FuzzPlanMatchesReference holds Plan and PlanParallel, at 2, 3 and 8
// threads under both partitions, to the per-step reference: the same
// command, score bits, error and work counts, from arbitrary poses
// (unnormalized and non-finite headings included), velocities, speed
// caps and sample counts.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Add(int64(1), 0.6, 0.6, 0.3, 0.15, 0.2, 0.0, uint8(24), uint8(39))    // the engine's 25 × 40
	f.Add(int64(2), 2.0, 1.5, -2.5, 0.8, -1.0, 0.1, uint8(9), uint8(19))    // cap below the current speed: vHi < vLo
	f.Add(int64(3), 6.0, 3.0, 1.0, 0.1, 0.0, 0.0, uint8(7), uint8(20))      // 21 W samples, the middle one exactly 0
	f.Add(int64(4), 2.0, 1.5, 7.0, 0.1, 0.5, 0.0, uint8(0), uint8(0))       // one sample
	f.Add(int64(5), 9.5, 4.2, 3.1, 0.2, 1.5, 0.05, uint8(0), uint8(6))      // every rollout blocked
	f.Add(int64(6), 2.72, 1.08, 0.7, 0.18, -0.3, 0.0, uint8(12), uint8(16)) // beside a wall: some blocked
	f.Add(int64(7), 6.0, 3.0, 1000.3, 0.12, 0.4, 0.0, uint8(9), uint8(15))  // a heading far outside (-π, π]
	f.Add(int64(8), 0.33, 3.1, 3.0, 0.2, 0.1, 0.0, uint8(24), uint8(39))    // within one window of the left wall
	f.Add(int64(9), 11.7, 5.75, 0.6, 0.22, -0.4, 0.0, uint8(24), uint8(39)) // the top right corner
	f.Add(int64(10), 6.0, 0.3, -1.4, 0.1, 0.0, 0.3, uint8(24), uint8(39))   // heading into the bottom wall
	f.Add(int64(11), 6.0, 3.0, 0.2, 1e308, 0.3, 0.0, uint8(24), uint8(39))
	f.Add(int64(12), 6.0, 3.0, 0.2, -1e308, 0.3, 0.0, uint8(24), uint8(39))
	f.Add(int64(13), 6.0, 3.0, 0.2, 0.1, 0.3, 1e308, uint8(24), uint8(39))
	f.Add(int64(14), 6.0, 3.0, 0.2, 0.1, 0.3, -1e308, uint8(24), uint8(39))
	path := []geom.Vec2{geom.V(0.6, 0.6), geom.V(2.0, 2.9), geom.V(4.0, 2.9), geom.V(11, 5)}
	f.Fuzz(func(t *testing.T, seed int64, x, y, theta, v, w, vcap float64, vs, ws uint8) {
		cfg := DefaultConfig()
		cfg.VSamples, cfg.WSamples = 1+int(vs)%32, 1+int(ws)%48
		tr := New(cfg)
		in := Input{
			Pose:    geom.Pose{Pos: geom.V(x, y), Theta: theta},
			Vel:     geom.Twist{V: v, W: w},
			Path:    path,
			Costmap: labCostmap(seed),
			MaxVCap: vcap,
		}
		matchesReference(t, cfg, tr, in)
	})
}

// TestPlanOutOfRangeSpeeds holds Plan and PlanParallel to the reference
// when the speed limit (a mission's v_ceil), the current speed or the
// cap is NaN, infinite or ±1e308, values that reach the footprint
// table's reach unchecked.
func TestPlanOutOfRangeSpeeds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type speeds struct{ maxV, v, vcap float64 }
	var cases []speeds
	for _, maxV := range []float64{nan, inf, -inf, 1e308, -1e308} {
		cases = append(cases, speeds{maxV, 0.15, 0}, speeds{maxV, 0.15, 0.3})
	}
	for _, x := range []float64{nan, 1e308, -1e308} {
		cases = append(cases, speeds{0.22, x, 0}, speeds{0.22, 0.15, x})
	}
	cases = append(cases, speeds{1e308, 1e308, 0}, speeds{inf, -inf, inf})
	cm := labCostmap(3)
	cfg := DefaultConfig()
	cfg.VSamples, cfg.WSamples = 5, 8
	for _, sc := range cases {
		cfg.MaxV = sc.maxV
		tr := New(cfg)
		in := Input{
			Pose:    geom.P(6, 3, 0.4),
			Vel:     geom.Twist{V: sc.v, W: 0.2},
			Path:    []geom.Vec2{geom.V(6, 3), geom.V(9, 4.5)},
			Costmap: cm,
			MaxVCap: sc.vcap,
		}
		t.Run(fmt.Sprintf("%+v", sc), func(t *testing.T) { matchesReference(t, cfg, tr, in) })
	}
}

func TestObstacleAvoidance(t *testing.T) {
	m := world.EmptyRoomMap(8, 8, 0.05)
	// Wall directly ahead of the robot, just within the rollout horizon
	// (robot at x=2, max travel ≈ 0.27 m, wall at x = 2.3).
	for y := 70; y < 90; y++ {
		for x := 46; x < 50; x++ {
			m.Set(geom.Cell{X: x, Y: y}, grid.Occupied)
		}
	}
	cfg := costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	cm := costmap.New(cfg)
	cm.SetStatic(m)

	tr := New(DefaultConfig())
	in := Input{
		Pose:    geom.P(2, 4, 0),
		Vel:     geom.Twist{V: 0.2},
		Path:    []geom.Vec2{geom.V(2, 4), geom.V(6, 4)},
		Costmap: cm,
	}
	out, err := tr.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Discarded == 0 {
		t.Error("trajectories into the wall should be discarded")
	}
	// The chosen command must not lead straight into the wall: simulate it.
	pose := in.Pose
	for s := 0; s < 12; s++ {
		pose = out.Cmd.Integrate(pose, 0.1)
		if cm.FootprintCost(pose.Pos) >= costmap.LethalCost {
			t.Fatalf("chosen command collides at %v", pose)
		}
	}
}

func TestAllBlockedReturnsError(t *testing.T) {
	m := world.EmptyRoomMap(2, 2, 0.05)
	// Box the robot in so tightly that its footprint already overlaps the
	// inscribed inflation zone — even rotating in place is infeasible.
	for y := 17; y <= 23; y++ {
		for x := 17; x <= 23; x++ {
			if x == 17 || x == 23 || y == 17 || y == 23 {
				m.Set(geom.Cell{X: x, Y: y}, grid.Occupied)
			}
		}
	}
	cfg := costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	cfg.InflationRadius = 0.3
	cm := costmap.New(cfg)
	cm.SetStatic(m)
	tr := New(DefaultConfig())
	in := Input{
		Pose:    geom.P(1, 1, 0),
		Vel:     geom.Twist{V: 0.2},
		Path:    []geom.Vec2{geom.V(1, 1), geom.V(1.8, 1)},
		Costmap: cm,
	}
	_, err := tr.Plan(in)
	if err != ErrAllBlocked {
		t.Fatalf("err = %v, want ErrAllBlocked", err)
	}
}

func TestMaxVCapRespected(t *testing.T) {
	tr := New(DefaultConfig())
	in := straightInput(openCostmap())
	in.Vel = geom.Twist{V: 0.2}
	in.MaxVCap = 0.05
	out, err := tr.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cmd.V > 0.05+1e-9 {
		t.Errorf("command %v exceeds cap 0.05", out.Cmd.V)
	}
}

func TestHigherCapAllowsFasterCommand(t *testing.T) {
	tr := New(DefaultConfig())
	cm := openCostmap()
	slow, fast := straightInput(cm), straightInput(cm)
	slow.MaxVCap = 0.05
	fast.MaxVCap = 0.22
	so, err := tr.Plan(slow)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := tr.Plan(fast)
	if err != nil {
		t.Fatal(err)
	}
	if fo.Cmd.V <= so.Cmd.V {
		t.Errorf("higher cap should give faster command: %v vs %v", fo.Cmd.V, so.Cmd.V)
	}
}

func TestCarrotFollowsPath(t *testing.T) {
	tr := New(DefaultConfig())
	path := []geom.Vec2{geom.V(0, 0), geom.V(2, 0), geom.V(2, 2)}
	// Robot at origin: carrot should be CarrotDist along the path.
	c := tr.carrot(geom.P(0, 0, 0), path)
	if c.Dist(geom.V(0.8, 0)) > 1e-9 {
		t.Errorf("carrot = %v, want (0.8, 0)", c)
	}
	// Robot near the corner: carrot wraps around it.
	c = tr.carrot(geom.P(1.9, 0, 0), path)
	if c.X != 2 || c.Y < 0.5 {
		t.Errorf("carrot after corner = %v", c)
	}
	// Near the end: carrot clamps to the final point.
	c = tr.carrot(geom.P(2, 1.9, 0), path)
	if c.Dist(geom.V(2, 2)) > 1e-9 {
		t.Errorf("carrot at end = %v", c)
	}
	// Empty and single-point paths.
	if got := tr.carrot(geom.P(1, 1, 0), nil); got != geom.V(1, 1) {
		t.Errorf("empty path carrot = %v", got)
	}
	if got := tr.carrot(geom.P(1, 1, 0), []geom.Vec2{geom.V(5, 5)}); got != geom.V(5, 5) {
		t.Errorf("single point carrot = %v", got)
	}
}

func TestTurnTowardOffAxisPath(t *testing.T) {
	tr := New(DefaultConfig())
	cm := openCostmap()
	in := Input{
		Pose:    geom.P(4, 4, 0), // facing +x
		Vel:     geom.Twist{},
		Path:    []geom.Vec2{geom.V(4, 4), geom.V(4, 7)}, // path goes +y
		Costmap: cm,
	}
	out, err := tr.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cmd.W <= 0 {
		t.Errorf("should turn left toward +y path, w = %v", out.Cmd.W)
	}
}

func TestRecoveryCmdRotatesTowardPath(t *testing.T) {
	tr := New(DefaultConfig())
	// Path is behind the robot (at bearing π): recovery should rotate.
	cmd := tr.RecoveryCmd(geom.P(4, 4, 0), []geom.Vec2{geom.V(2, 4)})
	if cmd.V != 0 {
		t.Error("recovery must not translate")
	}
	if cmd.W == 0 {
		t.Error("recovery must rotate")
	}
	// Path to the left: positive rotation.
	cmd = tr.RecoveryCmd(geom.P(4, 4, 0), []geom.Vec2{geom.V(4, 6)})
	if cmd.W <= 0 {
		t.Errorf("should rotate left, w = %v", cmd.W)
	}
}

func TestNilCostmapError(t *testing.T) {
	tr := New(DefaultConfig())
	if _, err := tr.Plan(Input{}); err == nil {
		t.Error("nil costmap must error")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero samples should panic")
		}
	}()
	New(Config{VSamples: 0, WSamples: 5})
}

func BenchmarkPlanSerial(b *testing.B) {
	tr := New(DefaultConfig())
	in := straightInput(openCostmap())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan1000 times one serial plan at the engine's 1000-sample
// setting (25 × 40) on the Fig. 13 lab map, from the mission's start
// toward the door gap.
func BenchmarkPlan1000(b *testing.B) {
	m := world.LabMap()
	cm := costmap.New(costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin))
	cm.SetStatic(m)
	cfg := DefaultConfig()
	cfg.VSamples, cfg.WSamples = 25, 40
	tr := New(cfg)
	in := Input{
		Pose:    geom.P(0.6, 0.6, 0.3),
		Vel:     geom.Twist{V: 0.15, W: 0.2},
		Path:    []geom.Vec2{geom.V(0.6, 0.6), geom.V(2.0, 2.9), geom.V(4.0, 2.9), geom.V(11, 5)},
		Costmap: cm,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanParallel4(b *testing.B) {
	tr := New(DefaultConfig())
	in := straightInput(openCostmap())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.PlanParallel(in, 4, Block); err != nil {
			b.Fatal(err)
		}
	}
}
