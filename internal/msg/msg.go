// Package msg defines the wire messages whose encodings the
// reproduction depends on: laser scans, poses and velocity commands.
// Each type implements wire.Message. The mission engine sizes the uplink
// scan frame from the Scan encoding (the uplink bytes and Eq. 1b's
// transmit energy follow from it), and bag files record Scan and Pose
// frames; Twist is the paper's 48-byte velocity command.
package msg

import (
	"lgvoffload/internal/geom"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/wire"
)

// Message kinds. Stable over the wire: bags and the committed fuzz
// corpora decode by them.
const (
	KindTwist uint16 = iota + 1
	KindScan
	KindPose
)

func init() {
	wire.Register(KindTwist, func() wire.Message { return &Twist{} })
	wire.Register(KindScan, func() wire.Message { return &Scan{} })
	wire.Register(KindPose, func() wire.Message { return &Pose{} })
}

// Header carries per-message sequencing and the temporal information of
// the paper's §VII switcher: when the carried data was created and when
// the message was sent. Missions model that exchange in virtual time
// (internal/core over internal/netsim) and use the encoding only for the
// scan frame's size; bags keep the stamps. Since header v2 it also
// carries the causal trace context (internal/spans), which LGVBAG2
// files round-trip.
type Header struct {
	Seq    uint64
	Stamp  float64 // creation time of the carried data
	SentAt float64 // transmission time

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
