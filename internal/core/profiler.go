package core

import (
	"sync"

	"lgvoffload/internal/netsim"
	"lgvoffload/internal/timing"
)

// Profiler is the §VII profiling module: it records per-node processing
// times (with exponential smoothing), the network round-trip time of the
// offloaded boundary, the received-packet bandwidth and the signal
// direction, and derives the VDP makespan that Algorithm 1 and Eq. 2c
// consume.
type Profiler struct {
	mu sync.Mutex

	alpha    float64 // EWMA smoothing factor
	procTime map[string]float64
	rtt      float64
	haveRTT  bool

	bw      *netsim.BandwidthMeter
	lat     *netsim.LatencyMeter
	dirLast float64
}

// NewProfiler returns a profiler with a 0.3 smoothing factor and a 1 s
// bandwidth window.
func NewProfiler() *Profiler {
	return &Profiler{
		alpha:    0.3,
		procTime: make(map[string]float64),
		bw:       netsim.NewBandwidthMeter(),
		lat:      &netsim.LatencyMeter{},
	}
}

// RecordProc records one node execution time.
func (p *Profiler) RecordProc(node string, seconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.procTime[node]; ok {
		p.procTime[node] = prev + p.alpha*(seconds-prev)
	} else {
		p.procTime[node] = seconds
	}
}

// ProcTimeOK returns the smoothed processing time of a node and whether
// the node has ever been profiled. A cold profiler returning a silent 0
// would make unprofiled nodes look free to Algorithm 1.
func (p *Profiler) ProcTimeOK(node string) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.procTime[node]
	return t, ok
}

// RecordRTT records one measured round-trip time across the offload
// boundary.
func (p *Profiler) RecordRTT(seconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.haveRTT {
		p.rtt += p.alpha * (seconds - p.rtt)
	} else {
		p.rtt, p.haveRTT = seconds, true
	}
}

// RTTOK returns the smoothed round-trip time and whether any round trip
// was ever measured — the cold-start companion of ProcTimeOK.
func (p *Profiler) RTTOK() (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rtt, p.haveRTT
}

// RecordPacket records a received message at virtual time now with the
// given one-way latency, feeding the bandwidth and latency meters.
func (p *Profiler) RecordPacket(now, latency float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bw.Observe(now)
	p.lat.Observe(latency)
}

// Bandwidth returns the received-packet rate (messages/s) at time now —
// Algorithm 2's r_t.
func (p *Profiler) Bandwidth(now float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bw.Rate(now)
}

// TailLatency returns the q-quantile of received-packet latencies and
// whether any samples exist — the misleading metric the paper's baseline
// uses.
func (p *Profiler) TailLatency(q float64) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lat.Quantile(q)
}

// RecordDirection stores the latest signal direction (Algorithm 2's d_t).
func (p *Profiler) RecordDirection(d float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dirLast = d
}

// Direction returns the latest signal direction.
func (p *Profiler) Direction() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirLast
}

// VDP computes the Eq. 2b makespan decomposition under a placement: the
// smoothed processing times of VDP nodes split by host, plus the RTT
// when any VDP node runs remotely.
func (p *Profiler) VDP(placement Placement) timing.VDPBreakdown {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b timing.VDPBreakdown
	remote := false
	for _, n := range VDPNodes {
		t := p.procTime[n]
		if placement.Of(n) == HostLGV {
			b.RobotProc += t
		} else {
			b.CloudProc += t
			remote = true
		}
	}
	if remote {
		b.Network = p.rtt
	}
	return b
}
