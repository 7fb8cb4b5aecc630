// Package world simulates the physical environment of a Low-cost Ground
// Vehicle: a static occupancy map, a differential-drive robot with
// acceleration limits and traction physics, and discrete-time stepping.
//
// The physics follows the paper's motor model (Eq. 1d): traction force
// m(a + gμ) while moving, converted to mechanical power P = F·v plus a
// constant transforming loss P_l. The world is the ground truth that
// sensors observe and against which collisions are checked.
package world

import (
	"fmt"
	"math"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
)

// RobotSpec holds the mechanical characteristics of an LGV. The defaults
// (Turtlebot3 Burger) match the paper's platform.
type RobotSpec struct {
	Name       string
	Mass       float64 // kg
	Radius     float64 // footprint radius, m
	MaxV       float64 // hardware velocity cap, m/s
	MaxW       float64 // hardware angular velocity cap, rad/s
	MaxAccel   float64 // m/s²
	MaxWAccel  float64 // rad/s²
	Friction   float64 // ground friction constant μ
	StopDist   float64 // required stopping distance d for obstacle avoidance, m
	TransfLoss float64 // motor transforming loss P_l, W
}

// Turtlebot3 returns the spec of the paper's evaluation vehicle.
//
// Friction is an *effective* lumped coefficient: it folds rolling
// friction together with gearbox and motor-conversion losses, calibrated
// so the Eq. 1d traction power reaches the Table I motor maximum
// (≈6.7 W) near the stock 0.22 m/s top speed — the same calibration the
// paper inherits from its power-model references [34], [52]. The purely
// physical rolling-friction value (~0.04) would make motor energy
// negligible, contradicting Table I's measured 44% motor share.
func Turtlebot3() RobotSpec {
	return RobotSpec{
		Name:       "Turtlebot3",
		Mass:       1.8,
		Radius:     0.105,
		MaxV:       0.22 * 5, // hardware cap is lifted in the paper by offloading; allow up to 5× stock
		MaxW:       2.84,
		MaxAccel:   2.5,
		MaxWAccel:  3.2,
		Friction:   1.5,
		StopDist:   0.25,
		TransfLoss: 1.0,
	}
}

// Gravity is the standard gravity constant used by the traction model.
const Gravity = 9.81

// TractionPower returns the instantaneous mechanical motor power (W) for
// the given velocity and acceleration per Eq. 1d: P = P_l + m(a + gμ)v.
// A stationary robot draws no traction power (P_l applies only while the
// motors are energized by a nonzero velocity command).
func (s RobotSpec) TractionPower(v, a float64) float64 {
	v = math.Abs(v)
	if v < 1e-9 {
		return 0
	}
	f := s.Mass * (math.Max(a, 0) + Gravity*s.Friction)
	return s.TransfLoss + f*v
}

// Robot is the simulated vehicle state.
type Robot struct {
	Spec RobotSpec
	Pose geom.Pose
	Vel  geom.Twist // current body velocity

	cmd geom.Twist // last commanded velocity

	// Odometry integration (what wheel encoders would report), which
	// accumulates the commanded motion without knowledge of collisions.
	Odom geom.Pose

	distance float64 // total distance traveled, m
	collided bool
}

// World is the complete simulation state.
type World struct {
	Map   *grid.Map
	Robot Robot
	Time  float64 // simulated seconds since start
}

// New creates a world with the robot at the given start pose.
func New(m *grid.Map, spec RobotSpec, start geom.Pose) *World {
	return &World{
		Map: m,
		Robot: Robot{
			Spec: spec,
			Pose: start,
			Odom: geom.Pose{}, // odometry frame starts at identity
		},
	}
}

// SetCommand sets the robot's commanded velocity. The command is clamped
// to the hardware caps; acceleration limits are applied during Step.
func (w *World) SetCommand(t geom.Twist) {
	t.V = geom.Clamp(t.V, -w.Robot.Spec.MaxV, w.Robot.Spec.MaxV)
	t.W = geom.Clamp(t.W, -w.Robot.Spec.MaxW, w.Robot.Spec.MaxW)
	w.Robot.cmd = t
}

// Command returns the currently commanded velocity.
func (w *World) Command() geom.Twist { return w.Robot.cmd }

// StepResult reports what happened during one simulation step.
type StepResult struct {
	Moved      float64 // distance traveled this step, m
	Accel      float64 // linear acceleration applied, m/s²
	MotorPower float64 // instantaneous traction power, W
	Collided   bool    // robot hit an obstacle this step
}

// Step advances the simulation by dt seconds: ramps the velocity toward
// the command under acceleration limits, integrates the pose along the
// unicycle arc, checks for collision (in which case the robot stops at its
// pre-step position), and accumulates odometry.
func (w *World) Step(dt float64) StepResult {
	if dt <= 0 {
		return StepResult{}
	}
	r := &w.Robot
	// Ramp toward command.
	dv := geom.Clamp(r.cmd.V-r.Vel.V, -r.Spec.MaxAccel*dt, r.Spec.MaxAccel*dt)
	dw := geom.Clamp(r.cmd.W-r.Vel.W, -r.Spec.MaxWAccel*dt, r.Spec.MaxWAccel*dt)
	accel := dv / dt
	r.Vel.V += dv
	r.Vel.W += dw

	next := r.Vel.Integrate(r.Pose, dt)
	moved := next.Pos.Dist(r.Pose.Pos)
	collided := w.collides(next)
	if collided {
		// Robot stops dead against the obstacle.
		r.Vel = geom.Twist{}
		moved = 0
	} else {
		// Odometry integrates the same motion in the odom frame.
		r.Odom = r.Vel.Integrate(r.Odom, dt)
		r.Pose = next
		r.distance += moved
	}
	r.collided = collided
	w.Time += dt
	return StepResult{
		Moved:      moved,
		Accel:      accel,
		MotorPower: r.Spec.TractionPower(r.Vel.V, accel),
		Collided:   collided,
	}
}

// collides reports whether the robot footprint at pose p overlaps an
// occupied or out-of-map cell. The footprint is sampled as a disc.
func (w *World) collides(p geom.Pose) bool {
	return FootprintCollides(w.Map, p.Pos, w.Robot.Spec.Radius)
}

// FootprintCollides checks a disc footprint of the given radius centered
// at pos against the map. Unknown cells are not collisions (the physical
// world has no unknowns; this is used with ground-truth maps). A cell
// collides when any part of its square intersects the disc — the check
// uses the closest point on the cell rectangle, so coarse grids cannot
// hide an obstacle between cell centers.
//
// A disc that reaches past the map's larger side holds an off-map cell
// within its radius wherever it is centered, so such a reach, and a NaN
// one, collides before the search square is sized from it: the square
// could otherwise overflow int or take hours to walk.
func FootprintCollides(m *grid.Map, pos geom.Vec2, radius float64) bool {
	reach := radius / m.Resolution
	if !(reach <= float64(max(m.Width, m.Height))) {
		return true
	}
	cr := int(math.Ceil(reach)) + 1
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

// Distance returns the total distance the robot has traveled.
func (w *World) Distance() float64 { return w.Robot.distance }

// Collided reports whether the last step ended in a collision.
func (w *World) Collided() bool { return w.Robot.collided }

func (w *World) String() string {
	return fmt.Sprintf("t=%.2fs robot=%v v=%.2f", w.Time, w.Robot.Pose, w.Robot.Vel.V)
}

// WheelBase is the Turtlebot3 Burger's wheel separation, m.
const WheelBase = 0.16

// TwistToWheels converts a body twist into left/right wheel linear
// speeds for a differential drive with the given wheel base.
func TwistToWheels(t geom.Twist, base float64) (left, right float64) {
	half := base / 2
	return t.V - t.W*half, t.V + t.W*half
}

// WheelsToTwist converts left/right wheel speeds back into a body twist.
func WheelsToTwist(left, right, base float64) geom.Twist {
	return geom.Twist{V: (left + right) / 2, W: (right - left) / base}
}
