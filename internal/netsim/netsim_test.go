package netsim

import (
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/geom"
)

func link(seed int64) *Link {
	return NewLink(DefaultEdgeLink(geom.V(0, 0)), rand.New(rand.NewSource(seed)))
}

func TestSignalProfile(t *testing.T) {
	l := link(1)
	cases := []struct {
		dist float64
		want float64
	}{
		{0, 1}, {3, 1}, {6, 1}, {9, 0.5}, {12, 0}, {20, 0},
	}
	for _, c := range cases {
		l.SetRobotPos(geom.V(c.dist, 0))
		if got := l.Signal(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("signal at %v m = %v, want %v", c.dist, got, c.want)
		}
	}
}

func TestSignalBeforeFirstPosition(t *testing.T) {
	l := link(1)
	if l.Signal() != 1 {
		t.Error("unknown position should default to full signal")
	}
}

func TestDirectionEstimate(t *testing.T) {
	l := link(1)
	// Move away from the WAP.
	for i := 0; i < 20; i++ {
		l.SetRobotPos(geom.V(float64(i)*0.2, 0))
	}
	if l.Direction() >= 0 {
		t.Errorf("receding should give negative direction, got %v", l.Direction())
	}
	// Turn around and come back.
	for i := 20; i > 0; i-- {
		l.SetRobotPos(geom.V(float64(i)*0.2, 0))
	}
	if l.Direction() <= 0 {
		t.Errorf("approaching should give positive direction, got %v", l.Direction())
	}
}

func TestStrongSignalDelivery(t *testing.T) {
	l := link(2)
	l.SetRobotPos(geom.V(1, 0))
	lost := 0
	var worst float64
	for i := 0; i < 1000; i++ {
		now := float64(i) * 0.2
		arrive, dropped := l.Send(now, 100)
		if dropped {
			lost++
			continue
		}
		if lat := arrive - now; lat > worst {
			worst = lat
		}
	}
	if lost > 0 {
		t.Errorf("strong signal lost %d packets", lost)
	}
	if worst > 0.02 {
		t.Errorf("strong-signal latency too high: %v", worst)
	}
}

func TestWeakSignalLossDominates(t *testing.T) {
	l := link(3)
	l.SetRobotPos(geom.V(11.5, 0)) // signal ≈ 0.08
	lost := 0
	const n = 500
	for i := 0; i < n; i++ {
		if _, dropped := l.Send(float64(i)*0.2, 100); dropped {
			lost++
		}
	}
	if float64(lost)/n < 0.5 {
		t.Errorf("weak signal lost only %d/%d", lost, n)
	}
}

func TestFigure7KernelBufferSemantics(t *testing.T) {
	// Burst-send under weak signal: the first KernelBuf packets are held
	// (delivered late), the rest are silently discarded — exactly Fig. 7.
	cfg := DefaultEdgeLink(geom.V(0, 0))
	cfg.JitterSec = 0 // deterministic
	l := NewLink(cfg, rand.New(rand.NewSource(4)))
	l.SetRobotPos(geom.V(9.9, 0)) // signal ≈ 0.35 < BlockSignal

	delivered, held, discarded := 0, 0, 0
	now := 0.0
	for i := 0; i < 20; i++ {
		arrive, dropped := l.Send(now, 100) // same instant burst: no draining between sends
		if dropped {
			discarded++
			continue
		}
		delivered++
		if arrive-now > 0.05 {
			held++ // queue delay visible
		}
	}
	if discarded == 0 {
		t.Error("burst should overflow the kernel buffer")
	}
	if delivered == 0 || held == 0 {
		t.Errorf("some packets should be held then delivered: delivered=%d held=%d", delivered, held)
	}
	if delivered > cfg.KernelBuf {
		t.Errorf("delivered %d > kernel buffer %d", delivered, cfg.KernelBuf)
	}
}

func TestKernelBufferDrains(t *testing.T) {
	cfg := DefaultEdgeLink(geom.V(0, 0))
	cfg.JitterSec = 0
	l := NewLink(cfg, rand.New(rand.NewSource(5)))
	l.SetRobotPos(geom.V(9.9, 0))
	// Fill the buffer.
	for i := 0; i < 10; i++ {
		l.Send(0, 100)
	}
	// After enough virtual time, sends are accepted again.
	accepted := false
	for i := 0; i < 20; i++ {
		if _, dropped := l.Send(5.0+float64(i), 100); !dropped {
			accepted = true
			break
		}
	}
	if !accepted {
		t.Error("buffer never drained")
	}
}

func TestLatencyMisleadsUnderUDPLoss(t *testing.T) {
	// The §VI argument: at moderate fade, received packets keep good
	// latency while a meaningful share is already lost, so tail latency
	// under-reports the degradation that bandwidth exposes.
	cfg := DefaultEdgeLink(geom.V(0, 0))
	l := NewLink(cfg, rand.New(rand.NewSource(6)))
	l.SetRobotPos(geom.V(8.4, 0)) // signal = 0.6: pre-blocking fade

	lm := &LatencyMeter{}
	lost := 0
	const n = 2000
	for i := 0; i < n; i++ {
		now := float64(i) * 0.2
		arrive, dropped := l.Send(now, 100)
		if dropped {
			lost++
			continue
		}
		lm.Observe(arrive - now)
	}
	lossRate := float64(lost) / n
	if lossRate < 0.03 {
		t.Fatalf("expected noticeable loss at signal 0.6, got %.3f", lossRate)
	}
	p99, ok := lm.Quantile(0.99)
	if !ok {
		t.Fatal("no latency samples")
	}
	// Tail latency of *received* packets stays low (< 3× the strong-signal
	// baseline ≈ 2 ms/0.6 ≈ 3.3 ms), hiding the loss.
	if p99 > 0.015 {
		t.Errorf("p99 = %v; the model should keep received latency low at this fade", p99)
	}
}

func TestBandwidthMeterWindow(t *testing.T) {
	m := NewBandwidthMeter()
	for i := 0; i < 5; i++ {
		m.Observe(float64(i) * 0.2) // 5 Hz
	}
	if r := m.Rate(0.9); r != 5 {
		t.Errorf("rate = %v, want 5", r)
	}
	// One second later with no traffic, rate collapses.
	if r := m.Rate(2.0); r != 0 {
		t.Errorf("stale rate = %v, want 0", r)
	}
}

func TestBandwidthMeterSliding(t *testing.T) {
	m := NewBandwidthMeter()
	for i := 0; i < 10; i++ {
		m.Observe(float64(i) * 0.1)
	}
	// Window (0.1, 1.1]: messages at 0.2..0.9 -> exactly those > 0.1.
	r := m.Rate(1.1)
	if r < 7 || r > 9 {
		t.Errorf("sliding rate = %v", r)
	}
}

func TestLatencyMeterQuantiles(t *testing.T) {
	m := &LatencyMeter{}
	if _, ok := m.Quantile(0.5); ok {
		t.Error("empty meter should report !ok")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		m.Observe(v)
	}
	if q, _ := m.Quantile(0); q != 1 {
		t.Errorf("min = %v", q)
	}
	if q, _ := m.Quantile(1); q != 5 {
		t.Errorf("max = %v", q)
	}
	if q, _ := m.Quantile(0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if m.Count() != 5 {
		t.Errorf("count = %d", m.Count())
	}
	m.Reset()
	if m.Count() != 0 {
		t.Error("reset failed")
	}
}

func TestCountersAndWANLatency(t *testing.T) {
	edge := NewLink(DefaultEdgeLink(geom.V(0, 0)), rand.New(rand.NewSource(8)))
	cloud := NewLink(DefaultCloudLink(geom.V(0, 0)), rand.New(rand.NewSource(8)))
	edge.SetRobotPos(geom.V(1, 0))
	cloud.SetRobotPos(geom.V(1, 0))
	ea, _ := edge.Send(0, 100)
	ca, _ := cloud.Send(0, 100)
	if ca <= ea {
		t.Errorf("cloud latency %v should exceed edge %v (WAN leg)", ca, ea)
	}
	st := edge.Stats()
	if st.Sent != 1 || st.Dropped() != 0 {
		t.Errorf("counters = %d, %d", st.Sent, st.Dropped())
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a, b := link(42), link(42)
	a.SetRobotPos(geom.V(8, 0))
	b.SetRobotPos(geom.V(8, 0))
	for i := 0; i < 100; i++ {
		now := float64(i) * 0.1
		aa, ad := a.Send(now, 50)
		ba, bd := b.Send(now, 50)
		if aa != ba || ad != bd {
			t.Fatal("same seed diverged")
		}
	}
}

func TestInterferenceBursts(t *testing.T) {
	cfg := DefaultEdgeLink(geom.V(0, 0))
	cfg.InterferencePeriod = 10
	cfg.InterferenceDuty = 0.3
	cfg.InterferenceFloor = 0.0
	l := NewLink(cfg, rand.New(rand.NewSource(13)))
	l.SetRobotPos(geom.V(1, 0)) // strong baseline signal

	if s := l.SignalAt(1.0); s != 0 {
		t.Errorf("in-burst signal = %v, want floor 0", s)
	}
	if s := l.SignalAt(5.0); s != 1 {
		t.Errorf("out-of-burst signal = %v, want 1", s)
	}
	// Sends during the burst mostly drop; outside they succeed.
	inDrops, outDrops := 0, 0
	for i := 0; i < 200; i++ {
		if _, d := l.Send(float64(i)*10+1.0, 64); d {
			inDrops++
		}
		if _, d := l.Send(float64(i)*10+5.0, 64); d {
			outDrops++
		}
	}
	if inDrops < 150 {
		t.Errorf("in-burst drops = %d/200, want most", inDrops)
	}
	if outDrops > 5 {
		t.Errorf("out-of-burst drops = %d/200, want none", outDrops)
	}
}

func TestInterferenceDisabledByDefault(t *testing.T) {
	l := link(14)
	l.SetRobotPos(geom.V(1, 0))
	if l.SignalAt(3.3) != l.Signal() {
		t.Error("no interference configured, SignalAt must equal Signal")
	}
}

// Satellite coverage for ISSUE: interference bursts interacting with the
// kernel buffer. An in-burst floor below BlockSignal forces the driver to
// hold packets even when mobility signal is perfect, so the Fig. 7 buffer
// semantics and the burst model compose.

func burstLink(seed int64) (*Link, LinkConfig) {
	cfg := DefaultEdgeLink(geom.V(0, 0))
	cfg.JitterSec = 0
	cfg.InterferencePeriod = 10
	cfg.InterferenceDuty = 0.3  // bursts cover [0, 3) of every period
	cfg.InterferenceFloor = 0.4 // below BlockSignal: the driver holds packets
	cfg.DrainRate = 2           // slow drain so occupancy stays observable
	l := NewLink(cfg, rand.New(rand.NewSource(seed)))
	l.SetRobotPos(geom.V(1, 0)) // full mobility signal; only bursts degrade it
	return l, cfg
}

func TestKernelBufferDrainsDuringInterferenceBurst(t *testing.T) {
	l, cfg := burstLink(5)

	// Burst-fill at t=0: the first KernelBuf packets join the buffer, the
	// rest overflow at the same instant (Fig. 7 silent discard).
	overflow := 0
	for i := 0; i < cfg.KernelBuf+5; i++ {
		if _, dropped := l.Send(0, 64); dropped {
			overflow++
		}
	}
	if overflow < 5 {
		t.Fatalf("same-instant burst dropped %d packets, want >= 5 overflows", overflow)
	}

	// Still inside the burst at t=2.5 the buffer has drained at the floor
	// rate (2 pkt/s * 0.4 = 0.8 pkt/s -> 2 packets gone), so exactly two
	// slots are free: two sends join, a third overflows.
	var delays []float64
	for i := 0; i < 2; i++ {
		if at, dropped := l.Send(2.5, 64); !dropped {
			delays = append(delays, at-2.5)
		}
	}
	if _, dropped := l.Send(2.5, 64); !dropped {
		t.Error("third in-burst send found buffer space: occupancy was lost")
	}
	if len(delays) == 0 {
		t.Fatal("both in-burst joins dropped by random fade (seed-dependent); expected a delivery")
	}
	for _, d := range delays {
		// Joining behind >= 3 buffered packets costs several seconds at
		// the floor drain rate -- visibly queued, not fresh.
		if d < 2.0 {
			t.Errorf("in-burst queue delay = %.2fs, want >= 2s behind a part-full buffer", d)
		}
	}
}

func TestKernelBufferRecoversAfterInterferenceBurst(t *testing.T) {
	l, cfg := burstLink(3)

	// Overflow the buffer during the burst.
	for i := 0; i < cfg.KernelBuf+3; i++ {
		l.Send(0.5, 64)
	}

	// The instant the burst ends the signal is back above BlockSignal, so
	// new sends bypass the still-draining buffer: no queue delay, no loss.
	at, dropped := l.Send(3.1, 64)
	if dropped {
		t.Fatal("post-burst send dropped at full signal")
	}
	if lat := at - 3.1; lat > 0.01 {
		t.Errorf("post-burst latency = %.3fs, want ~BaseLat: residual occupancy must not delay unblocked sends", lat)
	}

	// By the next burst the leftover occupancy has fully drained: the
	// first in-burst send joins an otherwise empty buffer, paying one
	// packet of queue delay at the floor drain rate rather than
	// overflowing a still-full one.
	at, dropped = l.Send(10.1, 64)
	if dropped {
		t.Fatal("first send of the next burst dropped: buffer never recovered")
	}
	if d := at - 10.1; d < 1.0 || d > 2.0 {
		t.Errorf("next-burst queue delay = %.2fs, want ~1.25s (single packet at floor drain)", d)
	}
}
