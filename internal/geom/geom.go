// Package geom provides the 2-D geometric primitives shared by every
// subsystem of the LGV offloading simulator: points, poses, angle
// arithmetic, rigid transforms and grid line traversal.
//
// Conventions: the world frame is right-handed with x forward and y left
// (ROS REP-103). Angles are radians, normalized to (-π, π]. Distances are
// meters.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2-D vector or point in meters.
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product of v and o.
func (v Vec2) Dot(o Vec2) float64 { return v.X*o.X + v.Y*o.Y }

// Cross returns the z component of the 3-D cross product of v and o.
func (v Vec2) Cross(o Vec2) float64 { return v.X*o.Y - v.Y*o.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// NormSq returns the squared length of v, avoiding the sqrt.
func (v Vec2) NormSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Norm() }

// DistSq returns the squared distance between v and o.
func (v Vec2) DistSq(o Vec2) float64 { return v.Sub(o).NormSq() }

// Angle returns the heading of v, in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Rotate returns v rotated by theta radians counterclockwise.
func (v Vec2) Rotate(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{c*v.X - s*v.Y, s*v.X + c*v.Y}
}

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec2) Unit() Vec2 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Lerp linearly interpolates between v and o by t in [0, 1].
func (v Vec2) Lerp(o Vec2, t float64) Vec2 {
	return Vec2{v.X + (o.X-v.X)*t, v.Y + (o.Y-v.Y)*t}
}

func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// Pose is a 2-D rigid pose: position plus heading.
type Pose struct {
	Pos   Vec2
	Theta float64 // heading in radians, normalized to (-π, π]
}

// P constructs a Pose with a normalized heading.
func P(x, y, theta float64) Pose {
	return Pose{Pos: Vec2{x, y}, Theta: NormalizeAngle(theta)}
}

// Apply maps a point expressed in the pose's local frame into the world
// frame.
func (p Pose) Apply(local Vec2) Vec2 {
	return p.Pos.Add(local.Rotate(p.Theta))
}

// Compose returns the pose obtained by applying o in p's frame
// (the usual SE(2) group operation p ∘ o).
func (p Pose) Compose(o Pose) Pose {
	return Pose{
		Pos:   p.Apply(o.Pos),
		Theta: NormalizeAngle(p.Theta + o.Theta),
	}
}

// Inverse returns the pose q such that p.Compose(q) is the identity.
func (p Pose) Inverse() Pose {
	inv := p.Pos.Scale(-1).Rotate(-p.Theta)
	return Pose{Pos: inv, Theta: NormalizeAngle(-p.Theta)}
}

// Delta returns the motion o expressed in p's frame, i.e. the pose d with
// p.Compose(d) == o. It is the relative transform used by odometry models.
func (p Pose) Delta(o Pose) Pose {
	return p.Inverse().Compose(o)
}

func (p Pose) String() string {
	return fmt.Sprintf("[%.3f, %.3f; %.1f°]", p.Pos.X, p.Pos.Y, p.Theta*180/math.Pi)
}

// Twist is a body-frame velocity command: linear velocity along the robot's
// heading plus angular velocity. Differential-drive LGVs cannot translate
// sideways, so there is no lateral component.
type Twist struct {
	V float64 // linear velocity, m/s
	W float64 // angular velocity, rad/s
}

// Integrate advances pose p by twist t over dt seconds using the exact
// unicycle arc model (falls back to straight-line for |w| ≈ 0).
func (t Twist) Integrate(p Pose, dt float64) Pose { return t.Arc(dt).Apply(p) }

// Arc is the body-frame step of a constant twist over a fixed time: the
// displacement in the frame of the pose it starts from, and the heading
// change. It depends only on the twist and the duration, so a rollout
// computes it once and applies it at every step.
type Arc struct {
	d    Vec2    // displacement in the starting pose's frame, m
	dth  float64 // heading change, rad
	turn bool    // false on the straight-line model: heading kept as is
}

// Arc returns the step of twist t over dt seconds on the exact unicycle
// arc model (straight-line for |w| ≈ 0).
func (t Twist) Arc(dt float64) Arc {
	if math.Abs(t.W) < 1e-9 {
		return Arc{d: V(t.V*dt, 0)}
	}
	// Arc of radius v/w.
	r := t.V / t.W
	dth := t.W * dt
	return Arc{d: V(r*math.Sin(dth), r*(1-math.Cos(dth))), dth: dth, turn: true}
}

// Apply advances pose p by the step.
func (a Arc) Apply(p Pose) Pose {
	pos := p.Pos.Add(a.d.Rotate(p.Theta))
	if !a.turn {
		return Pose{Pos: pos, Theta: p.Theta}
	}
	return Pose{Pos: pos, Theta: NormalizeAngle(p.Theta + a.dth)}
}

// NormalizeAngle wraps an angle into (-π, π].
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the smallest signed difference a-b wrapped into
// (-π, π].
func AngleDiff(a, b float64) float64 { return NormalizeAngle(a - b) }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Cell is an integer grid coordinate.
type Cell struct {
	X, Y int
}

// Bresenham traverses the grid cells on the line segment from a to b
// (inclusive), calling visit for each. Traversal stops early if visit
// returns false. It is the standard integer Bresenham walk used for ray
// casting and costmap clearing.
func Bresenham(a, b Cell, visit func(Cell) bool) {
	dx, dy := b.X-a.X, b.Y-a.Y
	sx, sy := 1, 1
	if dx < 0 {
		dx, sx = -dx, -1
	}
	if dy < 0 {
		dy, sy = -dy, -1
	}
	err := dx - dy
	c := a
	for {
		if !visit(c) {
			return
		}
		if c == b {
			return
		}
		e2 := 2 * err
		if e2 > -dy {
			err -= dy
			c.X += sx
		}
		if e2 < dx {
			err += dx
			c.Y += sy
		}
	}
}

// Segment is a line segment between two points.
type Segment struct {
	A, B Vec2
}

// Length returns the segment's length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Vec2) Vec2 {
	d := s.B.Sub(s.A)
	l2 := d.NormSq()
	if l2 == 0 {
		return s.A
	}
	t := Clamp(p.Sub(s.A).Dot(d)/l2, 0, 1)
	return s.A.Add(d.Scale(t))
}

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Vec2) float64 { return p.Dist(s.ClosestPoint(p)) }

// PathLength returns the cumulative length of a polyline.
func PathLength(pts []Vec2) float64 {
	var l float64
	for i := 1; i < len(pts); i++ {
		l += pts[i].Dist(pts[i-1])
	}
	return l
}
