package mw

import (
	"net"
	"testing"
	"time"

	"lgvoffload/internal/msg"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/wire"
)

func twist(seq uint64, v float64) *msg.Twist {
	return &msg.Twist{Header: msg.Header{Seq: seq}, V: v}
}

func TestUDPEndpointRoundtrip(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bEp, err := ListenUDP("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer bEp.Close()

	want := &msg.Twist{Header: msg.Header{Seq: 9, Stamp: 1.5}, V: 0.2, W: -0.1}
	if err := a.SendTo(bEp.Addr(), want); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if m, ok := bEp.Poll(); ok {
			got, isTwist := m.(*msg.Twist)
			if !isTwist || got.Seq != 9 || got.V != 0.2 {
				t.Fatalf("got %#v", m)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for UDP frame")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUDPEndpointOverwriteOnFull(t *testing.T) {
	bEp, err := ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bEp.Close()
	a, err := ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 1; i <= 10; i++ {
		if err := a.SendTo(bEp.Addr(), twist(uint64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for bEp.Received() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no frames received")
		}
		time.Sleep(time.Millisecond)
	}
	// Drain once the socket has gone quiet; at most 1 message may remain.
	time.Sleep(50 * time.Millisecond)
	n := 0
	for {
		if _, ok := bEp.Poll(); !ok {
			break
		}
		n++
	}
	if n > 1 {
		t.Errorf("queue depth 1 held %d messages", n)
	}
}

func TestUDPEndpointCloseIdempotent(t *testing.T) {
	ep, err := ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal("second close should be nil")
	}
}

func TestUDPEndpointOverwrittenCounter(t *testing.T) {
	tel := obs.NewTelemetry(16)
	bEp, err := ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bEp.Close()
	bEp.SetSink(tel)
	a, err := ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	for i := 1; i <= 10; i++ {
		if err := a.SendTo(bEp.Addr(), twist(uint64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for bEp.Received() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no frames received")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the socket go quiet

	polled := 0
	for {
		if _, ok := bEp.Poll(); !ok {
			break
		}
		polled++
	}
	// Every received frame either reached Poll or was overwritten in the
	// depth-1 queue; the loopback socket may legitimately drop the rest.
	if got := bEp.Overwritten() + polled; got != bEp.Received() {
		t.Errorf("overwritten(%d) + polled(%d) != received(%d)",
			bEp.Overwritten(), polled, bEp.Received())
	}
	if bEp.Overwritten() == 0 {
		t.Error("10 sends into a depth-1 queue overwrote nothing")
	}
	if got := tel.Reg.Counter(obs.MOverwrites, "udp").Value(); got != float64(bEp.Overwritten()) {
		t.Errorf("%s counter = %v, endpoint says %d", obs.MOverwrites, got, bEp.Overwritten())
	}
	if got := tel.Reg.Counter(obs.MFrames, "udp").Value(); got != float64(bEp.Received()) {
		t.Errorf("%s counter = %v, endpoint says %d", obs.MFrames, got, bEp.Received())
	}
}

// TestTraceContextSurvivesUDP round-trips a header's trace context
// through a real UDP socket: the v2 wire encoding must carry it intact.
func TestTraceContextSurvivesUDP(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	tw := &msg.Twist{V: 0.7, W: 0.1}
	tw.TraceID = 0xDEADBEEF
	tw.ParentSpan = 42
	if err := a.SendTo(b.Addr(), tw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if m, ok := b.Poll(); ok {
			got := m.(*msg.Twist)
			if got.TraceID != 0xDEADBEEF || got.ParentSpan != 42 {
				t.Fatalf("trace context lost over UDP: %+v", got.Header)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPEndpointDecodeError sends an undecodable datagram: it must
// count once on the endpoint and in the telemetry registry, never reach
// the receive queue, and leave the endpoint receiving valid frames.
func TestUDPEndpointDecodeError(t *testing.T) {
	tel := obs.NewTelemetry(16)
	bEp, err := ListenUDP("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer bEp.Close()
	bEp.SetSink(tel)

	garbage := []byte{0xff, 0xff, 0xff} // a truncated kind varint
	if _, err := wire.DecodeFrame(garbage); err == nil {
		t.Fatal("test datagram decodes; it must not")
	}
	raw, err := net.DialUDP("udp", nil, bEp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(garbage); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for bEp.DecodeErrors() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("undecodable datagram was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if m, ok := bEp.Poll(); ok {
		t.Fatalf("undecodable datagram was enqueued as %#v", m)
	}

	a, err := ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SendTo(bEp.Addr(), twist(5, 0.3)); err != nil {
		t.Fatal(err)
	}
	m, _, ok := bEp.PollWaitFrom(2 * time.Second)
	if !ok {
		t.Fatal("valid frame after the undecodable one never arrived")
	}
	if got, isTwist := m.(*msg.Twist); !isTwist || got.Seq != 5 || got.V != 0.3 {
		t.Fatalf("got %#v", m)
	}

	if got := bEp.DecodeErrors(); got != 1 {
		t.Errorf("DecodeErrors = %d, want 1", got)
	}
	if got := tel.Reg.Counter(obs.MDecodeErrors, "udp").Value(); got != 1 {
		t.Errorf("%s counter = %v, want 1", obs.MDecodeErrors, got)
	}
	if got := bEp.Received(); got != 1 {
		t.Errorf("Received = %d, want 1", got)
	}
}
