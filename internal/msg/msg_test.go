package msg

import (
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/wire"
	"lgvoffload/internal/world"
)

func roundtrip(t *testing.T, m wire.Message) wire.Message {
	t.Helper()
	b := wire.EncodeFrame(m)
	out, err := wire.DecodeFrame(b)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return out
}

func TestTwistRoundtripAndSize(t *testing.T) {
	in := &Twist{Header: Header{Seq: 42, Stamp: 1.5, SentAt: 1.6}, V: 0.22, W: -1.1}
	out := roundtrip(t, in).(*Twist)
	if *out != *in {
		t.Errorf("got %+v want %+v", out, in)
	}
	// The paper quotes ~48 B velocity commands; ours should be in that range.
	n := len(wire.EncodeFrame(in))
	if n < 20 || n > 64 {
		t.Errorf("twist frame size = %d B, want tens of bytes", n)
	}
	if out.AsTwist() != (geom.Twist{V: 0.22, W: -1.1}) {
		t.Error("AsTwist mismatch")
	}
}

func TestScanRoundtripAndSize(t *testing.T) {
	l := sensor.NewLDS01(0.01, rand.New(rand.NewSource(1)))
	sc := l.Sense(world.EmptyRoomMap(4, 4, 0.05), geom.P(2, 2, 0), 3.25)
	in := FromSensor(sc, 7)
	out := roundtrip(t, in).(*Scan)
	if out.Seq != 7 || out.Stamp != 3.25 {
		t.Errorf("header %+v", out.Header)
	}
	if len(out.Ranges) != 360 {
		t.Fatalf("ranges = %d", len(out.Ranges))
	}
	for i := range out.Ranges {
		if out.Ranges[i] != in.Ranges[i] {
			t.Fatal("ranges differ")
		}
	}
	// Paper: max laser payload 2.94 KB. 360×8B + header ≈ 2.9 KB.
	n := len(wire.EncodeFrame(in))
	if n < 2800 || n > 3100 {
		t.Errorf("scan frame size = %d B, want ≈ 2.9 KB", n)
	}
	back := out.ToSensor()
	if back.Stamp != 3.25 || back.MaxRange != sc.MaxRange {
		t.Error("ToSensor lost fields")
	}
}

func TestPoseRoundtrip(t *testing.T) {
	in := FromPose(geom.P(1, -2, math.Pi/3), 9, 2.0)
	out := roundtrip(t, in).(*Pose)
	if out.AsPose().Pos.Dist(geom.V(1, -2)) > 1e-12 {
		t.Error("pose position")
	}
	if math.Abs(out.Theta-math.Pi/3) > 1e-12 {
		t.Error("pose theta")
	}
}

func TestCorruptFrameFails(t *testing.T) {
	in := FromPose(geom.P(1, 2, 3), 1, 1)
	b := wire.EncodeFrame(in)
	if _, err := wire.DecodeFrame(b[:len(b)-4]); err == nil {
		t.Error("truncated pose frame must fail")
	}
}
