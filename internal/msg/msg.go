// Package msg defines the concrete middleware message types exchanged by
// the LGV workload nodes: laser scans, poses, velocity commands, paths,
// goals, map patches and profiling records. Each type implements
// wire.Message so it can travel over the simulated wireless link exactly
// as the paper's protobuf-serialized ROS messages do.
package msg

import (
	"lgvoffload/internal/geom"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/wire"
)

// Message kinds. Stable over the wire.
const (
	KindTwist uint16 = iota + 1
	KindScan
	KindPose
	KindGoal
	KindPath
	KindGridPatch
	KindProfile
	KindOdom
	KindHeartbeat
)

func init() {
	wire.Register(KindTwist, func() wire.Message { return &Twist{} })
	wire.Register(KindScan, func() wire.Message { return &Scan{} })
	wire.Register(KindPose, func() wire.Message { return &Pose{} })
	wire.Register(KindGoal, func() wire.Message { return &Goal{} })
	wire.Register(KindPath, func() wire.Message { return &Path{} })
	wire.Register(KindGridPatch, func() wire.Message { return &GridPatch{} })
	wire.Register(KindProfile, func() wire.Message { return &Profile{} })
	wire.Register(KindOdom, func() wire.Message { return &Odom{} })
	wire.Register(KindHeartbeat, func() wire.Message { return &Heartbeat{} })
}

// Header carries per-message sequencing and the temporal information the
// Switcher attaches (paper §VII): when the message was created in
// simulation time and when it was sent, enabling RTT and VDP makespan
// accounting at the Profiler. Since header v2 it also carries the
// causal trace context (internal/spans): a worker that echoes the
// header back hands the reply's spans to the sender's trace tree.
type Header struct {
	Seq    uint64
	Stamp  float64 // creation time of the carried data
	SentAt float64 // transmission time, set by the switcher

	// Trace context (header v2). Zero values mean "untraced"; the two
	// extra uvarints then cost one byte each on the wire.
	TraceID    uint64 // spans.Tracer trace id this message belongs to
	ParentSpan uint64 // span the receiver should parent its spans under
}

func (h *Header) marshal(e *wire.Encoder) {
	e.Uvarint(h.Seq)
	e.Float64(h.Stamp)
	e.Float64(h.SentAt)
	e.Uvarint(h.TraceID)
	e.Uvarint(h.ParentSpan)
}

func (h *Header) unmarshal(d *wire.Decoder) {
	h.Seq = d.Uvarint()
	h.Stamp = d.Float64()
	h.SentAt = d.Float64()
	if d.HeaderVersion() >= wire.HeaderV2 {
		h.TraceID = d.Uvarint()
		h.ParentSpan = d.Uvarint()
	}
}

// Twist is a velocity command (the paper's 48-byte example payload).
type Twist struct {
	Header
	V, W float64
}

func (*Twist) Kind() uint16 { return KindTwist }

func (m *Twist) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.Float64(m.V)
	e.Float64(m.W)
}

func (m *Twist) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.V = d.Float64()
	m.W = d.Float64()
	return d.Err()
}

// AsTwist converts to the geometry type.
func (m *Twist) AsTwist() geom.Twist { return geom.Twist{V: m.V, W: m.W} }

// Scan wraps a laser sweep (the paper's 2.94 KB maximum payload).
type Scan struct {
	Header
	AngleMin float64
	AngleInc float64
	MaxRange float64
	Ranges   []float64
}

func (*Scan) Kind() uint16 { return KindScan }

// FromSensor builds a Scan message from a sensor sweep.
func FromSensor(s *sensor.Scan, seq uint64) *Scan {
	return FromSensorInto(&Scan{}, s, seq)
}

// FromSensorInto fills dst from a sensor sweep and returns it, letting
// per-tick senders reuse one message value instead of allocating. The
// Ranges slice is shared with the sweep, exactly as FromSensor does.
func FromSensorInto(dst *Scan, s *sensor.Scan, seq uint64) *Scan {
	*dst = Scan{
		Header:   Header{Seq: seq, Stamp: s.Stamp},
		AngleMin: s.AngleMin,
		AngleInc: s.AngleInc,
		MaxRange: s.MaxRange,
		Ranges:   s.Ranges,
	}
	return dst
}

// ToSensor converts back to the sensor type.
func (m *Scan) ToSensor() *sensor.Scan {
	return &sensor.Scan{
		AngleMin: m.AngleMin,
		AngleInc: m.AngleInc,
		MaxRange: m.MaxRange,
		Ranges:   m.Ranges,
		Stamp:    m.Stamp,
	}
}

func (m *Scan) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.Float64(m.AngleMin)
	e.Float64(m.AngleInc)
	e.Float64(m.MaxRange)
	e.Float64Slice(m.Ranges)
}

func (m *Scan) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.AngleMin = d.Float64()
	m.AngleInc = d.Float64()
	m.MaxRange = d.Float64()
	// Decode into the existing backing array when re-unmarshaling into a
	// retained message (transport read loops), allocating only on growth.
	m.Ranges = d.Float64SliceInto(m.Ranges[:0])
	return d.Err()
}

// Pose is a stamped pose estimate (localization/SLAM output).
type Pose struct {
	Header
	X, Y, Theta float64
}

func (*Pose) Kind() uint16 { return KindPose }

// FromPose builds a Pose message.
func FromPose(p geom.Pose, seq uint64, stamp float64) *Pose {
	return &Pose{Header: Header{Seq: seq, Stamp: stamp}, X: p.Pos.X, Y: p.Pos.Y, Theta: p.Theta}
}

// AsPose converts to the geometry type.
func (m *Pose) AsPose() geom.Pose { return geom.P(m.X, m.Y, m.Theta) }

func (m *Pose) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.Float64(m.X)
	e.Float64(m.Y)
	e.Float64(m.Theta)
}

func (m *Pose) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.X = d.Float64()
	m.Y = d.Float64()
	m.Theta = d.Float64()
	return d.Err()
}

// Odom is a stamped odometry estimate with instantaneous velocity.
type Odom struct {
	Header
	X, Y, Theta float64
	V, W        float64
}

func (*Odom) Kind() uint16 { return KindOdom }

// AsPose converts the odometry position to a pose.
func (m *Odom) AsPose() geom.Pose { return geom.P(m.X, m.Y, m.Theta) }

func (m *Odom) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.Float64(m.X)
	e.Float64(m.Y)
	e.Float64(m.Theta)
	e.Float64(m.V)
	e.Float64(m.W)
}

func (m *Odom) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.X = d.Float64()
	m.Y = d.Float64()
	m.Theta = d.Float64()
	m.V = d.Float64()
	m.W = d.Float64()
	return d.Err()
}

// Goal is a navigation or exploration target.
type Goal struct {
	Header
	X, Y float64
}

func (*Goal) Kind() uint16 { return KindGoal }

func (m *Goal) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.Float64(m.X)
	e.Float64(m.Y)
}

func (m *Goal) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.X = d.Float64()
	m.Y = d.Float64()
	return d.Err()
}

// Path is a planned global path as a polyline.
type Path struct {
	Header
	Xs, Ys []float64
}

func (*Path) Kind() uint16 { return KindPath }

// FromPoints builds a Path message from a polyline.
func FromPoints(pts []geom.Vec2, seq uint64, stamp float64) *Path {
	p := &Path{Header: Header{Seq: seq, Stamp: stamp}}
	p.Xs = make([]float64, len(pts))
	p.Ys = make([]float64, len(pts))
	for i, v := range pts {
		p.Xs[i] = v.X
		p.Ys[i] = v.Y
	}
	return p
}

// Points converts back to a polyline.
func (m *Path) Points() []geom.Vec2 {
	n := len(m.Xs)
	if len(m.Ys) < n {
		n = len(m.Ys)
	}
	pts := make([]geom.Vec2, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.V(m.Xs[i], m.Ys[i])
	}
	return pts
}

func (m *Path) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.Float64Slice(m.Xs)
	e.Float64Slice(m.Ys)
}

func (m *Path) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.Xs = d.Float64SliceInto(m.Xs[:0])
	m.Ys = d.Float64SliceInto(m.Ys[:0])
	return d.Err()
}

// GridPatch is a rectangular update to an occupancy grid, used to ship
// costmap and SLAM map regions between hosts.
type GridPatch struct {
	Header
	X0, Y0        int64 // cell offset of the patch in the destination grid
	Width, Height int64
	Resolution    float64
	OriginX       float64
	OriginY       float64
	Cells         []int8
}

func (*GridPatch) Kind() uint16 { return KindGridPatch }

func (m *GridPatch) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.Varint(m.X0)
	e.Varint(m.Y0)
	e.Varint(m.Width)
	e.Varint(m.Height)
	e.Float64(m.Resolution)
	e.Float64(m.OriginX)
	e.Float64(m.OriginY)
	e.Int8Slice(m.Cells)
}

func (m *GridPatch) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.X0 = d.Varint()
	m.Y0 = d.Varint()
	m.Width = d.Varint()
	m.Height = d.Varint()
	m.Resolution = d.Float64()
	m.OriginX = d.Float64()
	m.OriginY = d.Float64()
	m.Cells = d.Int8SliceInto(m.Cells[:0])
	return d.Err()
}

// Heartbeat is the liveness beacon exchanged by the real-socket Switcher
// and Worker: the worker beats periodically (and echoes the switcher's
// hello probes) so a killed worker is detected by silence rather than by
// the absence of replies to real work.
type Heartbeat struct {
	Header
	From   string // sender identity (host name)
	Served int64  // scans served so far: monotone worker progress
}

func (*Heartbeat) Kind() uint16 { return KindHeartbeat }

func (m *Heartbeat) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.String(m.From)
	e.Varint(m.Served)
}

func (m *Heartbeat) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.From = d.String()
	m.Served = d.Varint()
	return d.Err()
}

// Profile is the Profiler's record of one node execution: which node ran,
// where, and how long it took (paper §VII "Profiler"). Remote switchers
// attach these to returning messages so the local profiler can compute
// the VDP makespan.
type Profile struct {
	Header
	Node     string
	Host     string
	ProcTime float64 // processing time, s
}

func (*Profile) Kind() uint16 { return KindProfile }

func (m *Profile) MarshalWire(e *wire.Encoder) {
	m.Header.marshal(e)
	e.String(m.Node)
	e.String(m.Host)
	e.Float64(m.ProcTime)
}

func (m *Profile) UnmarshalWire(d *wire.Decoder) error {
	m.Header.unmarshal(d)
	m.Node = d.String()
	m.Host = d.String()
	m.ProcTime = d.Float64()
	return d.Err()
}
