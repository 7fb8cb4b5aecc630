// Package netsim models the wireless network between the LGV and the
// remote server: a WAP with distance-dependent signal strength, a
// latency/loss model driven by that signal, and the kernel-buffer
// blocking behaviour of a nonblocking UDP socket under weak signal
// (paper Fig. 7). It also provides the bandwidth meter and signal
// direction estimator that Algorithm 2 consumes.
//
// The essential phenomenon reproduced here is the one §VI argues from:
// under UDP "best-effort delivery", packets that do arrive can still show
// good latency while the link is already dropping most traffic, so
// received-packet tail latency is a misleading quality metric, whereas
// received-packet bandwidth and the robot's heading relative to the WAP
// predict quality correctly.
package netsim

import (
	"math"
	"math/rand"
	"sort"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
)

// Dir distinguishes uplink (robot → server) from downlink (server →
// robot) traffic so impairments can model one-way partitions.
type Dir int

const (
	// DirUp is robot-to-server traffic (scans, probes out).
	DirUp Dir = iota
	// DirDown is server-to-robot traffic (cmd_vel, probe echoes).
	DirDown
)

func (d Dir) String() string {
	if d == DirDown {
		return "down"
	}
	return "up"
}

// Verdict is an impairment's ruling on one packet. The zero value with
// SignalCap 1 passes the packet through untouched.
type Verdict struct {
	// SignalCap caps the effective signal in [0, 1]; 1 means no cap. A
	// cap of 0 models a blacked-out WAP: the packet joins the kernel
	// buffer (or overflows it) exactly as deep mobility fade would.
	SignalCap float64
	// Drop discards the packet outright (crashed server, blackholed
	// route) — it never touches the kernel buffer.
	Drop bool
	// Corrupt delivers the packet on time but flags it damaged; the
	// link treats it as lost since the receiver's decoder discards it.
	Corrupt bool
}

// Impairment is an external fault source consulted on every Send. The
// internal/faults package implements it; the hook lives here so netsim
// never imports faults.
type Impairment interface {
	Impair(now float64, dir Dir) Verdict
}

// LinkConfig parameterizes the wireless link.
type LinkConfig struct {
	WAP        geom.Vec2 // access point position, world frame
	GoodRange  float64   // full signal within this distance, m
	FadeRange  float64   // zero signal beyond this distance, m
	BaseLatSec float64   // one-way latency at full signal, s
	JitterSec  float64   // latency jitter standard deviation, s
	WANLatSec  float64   // extra fixed latency to a distant datacenter, s

	// Kernel buffer semantics (Fig. 7): under weak signal the driver
	// holds packets; the socket buffer overflows and further sends are
	// silently discarded.
	KernelBuf   int     // buffer capacity in packets
	BlockSignal float64 // signal below which the driver blocks/holds
	DrainRate   float64 // packets/s drained from a blocked buffer at signal 1

	UplinkBytesPerSec float64 // physical uplink rate for Eq. 1b energy

	// Periodic interference (e.g. a microwave oven or a competing
	// transmitter): every InterferencePeriod seconds the signal collapses
	// to InterferenceFloor for InterferenceDuty of the period. Zero
	// period disables it. Unlike mobility fade, interference is not
	// correlated with the robot's heading — which is exactly why
	// Algorithm 2 gates on *direction* as well as bandwidth: a burst
	// alone must not trigger a migration.
	InterferencePeriod float64
	InterferenceDuty   float64
	InterferenceFloor  float64

	// WAPs lists extra access points beyond the primary WAP above; when
	// non-empty the link roams to the strongest AP with hysteresis (see
	// roam.go). Per-WAP zero ranges inherit GoodRange/FadeRange.
	WAPs []WAP
	// HandoffMargin is the hysteresis margin: a candidate AP must beat
	// the serving AP's signal by this much before the link roams.
	HandoffMargin float64
	// HandoffHoldSec is the minimum time between consecutive handoffs.
	HandoffHoldSec float64
	// HandoffDipSec / HandoffDipFloor model the re-association gap: for
	// HandoffDipSec after a handoff the effective signal is capped at
	// HandoffDipFloor.
	HandoffDipSec   float64
	HandoffDipFloor float64

	// Trace, when set, replays recorded bandwidth/latency/loss samples
	// instead of the analytic distance-fade model (see trace.go).
	// Impairment verdicts and the kernel-buffer model still apply on top
	// of the replayed signal.
	Trace *LinkTrace
}

// DefaultEdgeLink returns a 5 GHz-band link to an edge gateway in the
// same building, tuned so the unstable area begins ~6 m from the WAP.
func DefaultEdgeLink(wap geom.Vec2) LinkConfig {
	return LinkConfig{
		WAP:               wap,
		GoodRange:         6.0,
		FadeRange:         12.0,
		BaseLatSec:        0.002,
		JitterSec:         0.0005,
		WANLatSec:         0,
		KernelBuf:         5,
		BlockSignal:       0.45,
		DrainRate:         40,
		UplinkBytesPerSec: 2.5e6,
	}
}

// DefaultCloudLink returns the same wireless hop plus a WAN leg to a
// remote datacenter.
func DefaultCloudLink(wap geom.Vec2) LinkConfig {
	c := DefaultEdgeLink(wap)
	c.WANLatSec = 0.010
	return c
}

// Stats is the link's full packet ledger: every packet offered to Send
// is either delivered or dropped, and every drop is attributed to
// exactly one cause. Invariant checkers (internal/simtest) assert
// Sent == Delivered + Dropped and Dropped == sum of the cause columns,
// and that the fault-attributed causes are zero when no fault schedule
// is attached.
type Stats struct {
	Sent      int // packets offered to Send
	Delivered int // packets that arrived at the peer

	// Drop causes, disjoint; they sum to the total drop count.
	DroppedImpair   int // blackholed by an Impairment verdict (fault window)
	DroppedOverflow int // kernel-buffer overflow under weak signal
	DroppedLoss     int // random signal-driven loss
	DroppedCorrupt  int // corrupted in a fault window, rejected by decoder
}

// Dropped returns the total packets lost to any cause.
func (s Stats) Dropped() int {
	return s.DroppedImpair + s.DroppedOverflow + s.DroppedLoss + s.DroppedCorrupt
}

// Link is the stateful wireless channel. It is not safe for concurrent
// use; the mission engine owns it and drives it from one goroutine.
type Link struct {
	cfg LinkConfig
	rng *rand.Rand

	robot     geom.Vec2
	prevDist  float64
	haveDist  bool
	direction float64 // smoothed +1 toward serving WAP / -1 away

	// Roaming state (roam.go). aps[0] is the primary LinkConfig.WAP;
	// serving indexes the AP currently associated.
	aps          []WAP
	serving      int
	associated   bool
	lastHandoff  float64
	handoffTimes []float64

	// Kernel buffer state.
	buffered  float64 // packets currently held
	lastDrain float64 // virtual time of last drain update

	stats Stats

	sink   *obs.Telemetry // nil when telemetry is off (the default)
	impair Impairment     // nil when no fault schedule is attached
}

// NewLink creates a link with deterministic randomness.
func NewLink(cfg LinkConfig, rng *rand.Rand) *Link {
	if cfg.HandoffMargin == 0 {
		cfg.HandoffMargin = DefaultHandoffMargin
	}
	if cfg.HandoffHoldSec == 0 {
		cfg.HandoffHoldSec = DefaultHandoffHoldSec
	}
	if cfg.HandoffDipSec == 0 {
		cfg.HandoffDipSec = DefaultHandoffDipSec
	}
	if cfg.HandoffDipFloor == 0 {
		cfg.HandoffDipFloor = DefaultHandoffDipFloor
	}
	return &Link{cfg: cfg, rng: rng, aps: cfg.aps()}
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// SetSink attaches a telemetry sink; pass nil to detach. The nil
// (default) path costs one receiver check per metric write.
func (l *Link) SetSink(s *obs.Telemetry) { l.sink = s }

// SetImpairment attaches a fault source consulted on every Send; pass
// nil to detach. The nil (default) path costs one branch per packet.
func (l *Link) SetImpairment(imp Impairment) { l.impair = imp }

// SetRobotPos updates the robot position and refreshes the
// signal-direction estimate: positive when the robot is approaching the
// serving WAP, negative when receding. It never evaluates handoffs —
// roaming needs virtual time for hysteresis, so multi-WAP callers must
// use SetRobotPosAt.
func (l *Link) SetRobotPos(p geom.Vec2) {
	d := p.Dist(l.aps[l.serving].Pos)
	if l.haveDist {
		delta := l.prevDist - d // >0 means approaching
		const alpha = 0.3
		var instant float64
		switch {
		case delta > 1e-9:
			instant = 1
		case delta < -1e-9:
			instant = -1
		}
		l.direction = (1-alpha)*l.direction + alpha*instant
	}
	l.prevDist = d
	l.haveDist = true
	l.robot = p
}

// SetRobotPosAt is SetRobotPos with virtual time, enabling roaming: with
// multiple access points the link first re-evaluates which AP serves it
// (hysteresis + hold-down, roam.go), then updates the direction estimate
// against the serving AP. The very first call associates silently to the
// strongest AP without counting a handoff.
func (l *Link) SetRobotPosAt(now float64, p geom.Vec2) {
	if len(l.aps) > 1 {
		if !l.associated {
			best, bestSig := 0, -1.0
			for i, ap := range l.aps {
				if s := apSignal(ap, p.Dist(ap.Pos)); s > bestSig {
					best, bestSig = i, s
				}
			}
			l.serving = best
		} else {
			l.maybeHandoff(now, p)
		}
	}
	l.associated = true
	l.SetRobotPos(p)
}

// Signal returns the current signal strength in [0, 1], not counting
// interference bursts (use SignalAt for the burst-aware value).
func (l *Link) Signal() float64 {
	if !l.haveDist {
		return 1
	}
	return l.signalAt(l.prevDist)
}

// SignalAt returns the effective signal at virtual time now: the
// trace-replayed signal when a trace is attached, otherwise the
// distance-fade signal capped by any active interference burst; in both
// cases a post-handoff re-association dip caps the result.
func (l *Link) SignalAt(now float64) float64 {
	var s float64
	if l.cfg.Trace != nil {
		s = l.cfg.Trace.SignalAt(now, l.cfg.UplinkBytesPerSec)
	} else {
		s = l.Signal()
		if l.cfg.InterferencePeriod > 0 {
			phase := math.Mod(now, l.cfg.InterferencePeriod) / l.cfg.InterferencePeriod
			if phase < l.cfg.InterferenceDuty {
				floor := l.cfg.InterferenceFloor
				if floor < s {
					s = floor
				}
			}
		}
	}
	if l.dipActive(now) && s > l.cfg.HandoffDipFloor {
		s = l.cfg.HandoffDipFloor
	}
	return s
}

func (l *Link) signalAt(dist float64) float64 {
	return apSignal(l.aps[l.serving], dist)
}

// Direction returns the smoothed signal direction in [-1, 1]; positive
// means the LGV is moving toward the WAP.
func (l *Link) Direction() float64 { return l.direction }

// Send models one packet transmission at virtual time now. It returns the
// arrival time at the peer and whether the packet was lost. Size affects
// only serialization delay (negligible at these payloads) — loss and
// latency are signal-driven, as on a real WLAN. Send assumes uplink
// direction; use SendDir when an attached Impairment must distinguish
// directions (one-way partitions, server crashes on the return path).
func (l *Link) Send(now float64, size int) (arriveAt float64, dropped bool) {
	return l.SendDir(now, size, DirUp)
}

// SendDir is Send with an explicit traffic direction.
func (l *Link) SendDir(now float64, size int, dir Dir) (arriveAt float64, dropped bool) {
	arriveAt, dropped, _ = l.SendDirDetail(now, size, dir)
	return arriveAt, dropped
}

// SendDirDetail is SendDir exposing the kernel-buffer queueing delay
// separately from the air/WAN transport latency, so the tracing layer
// can record queue and transport as distinct critical-path spans:
// arriveAt - now = queueDelay + transport.
func (l *Link) SendDirDetail(now float64, size int, dir Dir) (arriveAt float64, dropped bool, queueDelay float64) {
	l.stats.Sent++
	s := l.SignalAt(now)
	corrupt := false
	if l.impair != nil {
		v := l.impair.Impair(now, dir)
		if v.Drop {
			// Blackholed before the radio: the packet vanishes without
			// occupying the kernel buffer.
			l.stats.DroppedImpair++
			l.sink.Count(obs.MLinkDropped, "", 1)
			return 0, true, 0
		}
		if v.SignalCap < s {
			s = v.SignalCap
		}
		corrupt = v.Corrupt
	}
	l.sink.Count(obs.MLinkSent, "", 1)
	l.sink.SetGauge(obs.MLinkSignal, "", s)

	// Drain the kernel buffer for the time elapsed since the last send.
	if now > l.lastDrain {
		l.buffered -= (now - l.lastDrain) * l.cfg.DrainRate * math.Max(s, 0.05)
		if l.buffered < 0 {
			l.buffered = 0
		}
	}
	l.lastDrain = now

	if s < l.cfg.BlockSignal {
		// Driver holds packets: join the kernel buffer or overflow.
		if l.buffered >= float64(l.cfg.KernelBuf) {
			l.stats.DroppedOverflow++
			l.sink.Count(obs.MLinkDropped, "", 1)
			return 0, true, 0 // silent discard: sender never learns
		}
		l.buffered++
		drain := l.cfg.DrainRate * math.Max(s, 0.05)
		queueDelay = l.buffered / drain
	}

	// Random loss grows as signal fades even before blocking starts.
	// Under trace replay the recorded loss probability sets the floor:
	// impairment caps or a handoff dip can only make things worse.
	pLoss := math.Pow(1-s, 3)
	if l.cfg.Trace != nil {
		if rec := l.cfg.Trace.At(now).Loss; rec > pLoss {
			pLoss = rec
		}
	}
	if l.rng.Float64() < pLoss {
		l.stats.DroppedLoss++
		l.sink.Count(obs.MLinkDropped, "", 1)
		return 0, true, 0
	}

	if corrupt {
		// The frame crossed the air (it occupied buffer and spectrum)
		// but the receiver's decoder rejects it: an effective loss.
		l.stats.DroppedCorrupt++
		l.sink.Count(obs.MLinkDropped, "", 1)
		return 0, true, 0
	}

	var lat float64
	serBytesPerSec := l.cfg.UplinkBytesPerSec
	if l.cfg.Trace != nil {
		// Replay the recorded one-way latency and serialization rate; the
		// kernel-buffer queue delay still stacks on top.
		smp := l.cfg.Trace.At(now)
		lat = smp.LatencySec + l.cfg.WANLatSec + queueDelay
		if smp.BandwidthBps > 0 {
			serBytesPerSec = smp.BandwidthBps
		}
	} else {
		lat = l.cfg.BaseLatSec/math.Max(s, 0.15) + l.cfg.WANLatSec + queueDelay
	}
	if l.cfg.JitterSec > 0 {
		lat += math.Abs(l.rng.NormFloat64()) * l.cfg.JitterSec
	}
	lat += float64(size) / serBytesPerSec
	l.sink.Observe(obs.MLinkLatencySeconds, "", lat)
	l.stats.Delivered++
	return now + lat, false, queueDelay
}

// Stats returns the full packet ledger with per-cause drop attribution.
func (l *Link) Stats() Stats { return l.stats }

// BandwidthMeter computes the paper's "packet bandwidth" metric: the
// number of messages received in a sliding window (default 1 s), giving
// the received-packet rate the Profiler publishes to Algorithm 2.
type BandwidthMeter struct {
	Window float64
	times  []float64
}

// NewBandwidthMeter returns a meter with a 1-second window.
func NewBandwidthMeter() *BandwidthMeter { return &BandwidthMeter{Window: 1.0} }

// Observe records a message reception at virtual time now.
func (m *BandwidthMeter) Observe(now float64) {
	m.times = append(m.times, now)
	m.trim(now)
}

// Rate returns messages per second over the window ending at now.
func (m *BandwidthMeter) Rate(now float64) float64 {
	m.trim(now)
	if m.Window <= 0 {
		return 0
	}
	return float64(len(m.times)) / m.Window
}

func (m *BandwidthMeter) trim(now float64) {
	cut := now - m.Window
	i := 0
	for i < len(m.times) && m.times[i] <= cut {
		i++
	}
	if i > 0 {
		m.times = append(m.times[:0], m.times[i:]...)
	}
}

// LatencyMeter tracks received-packet one-way latencies and reports the
// tail statistics prior work used as quality metrics, so experiments can
// show why they mislead under UDP loss (§VI).
type LatencyMeter struct {
	samples []float64
}

// Observe records one received packet's latency.
func (m *LatencyMeter) Observe(latency float64) { m.samples = append(m.samples, latency) }

// Count returns the number of samples observed.
func (m *LatencyMeter) Count() int { return len(m.samples) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of observed latencies, or 0
// with ok=false when no samples exist. The sample slice is not mutated.
func (m *LatencyMeter) Quantile(q float64) (float64, bool) {
	n := len(m.samples)
	if n == 0 {
		return 0, false
	}
	sorted := make([]float64, n)
	copy(sorted, m.samples)
	sort.Float64s(sorted)
	idx := int(q * float64(n-1))
	return sorted[idx], true
}

// Reset clears the samples.
func (m *LatencyMeter) Reset() { m.samples = m.samples[:0] }
