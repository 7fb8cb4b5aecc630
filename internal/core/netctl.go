package core

// NetController is Algorithm 2: offload network quality control. Instead
// of the tail latency that UDP best-effort delivery renders misleading
// (Fig. 7), it predicts network quality from the received-packet
// bandwidth over a sliding window and from the signal direction — the
// LGV's motion relative to the wireless access point:
//
//	if  r_t < threshold and d_t < 0:  invoke remote nodes locally
//	if  r_t > threshold and d_t > 0:  invoke them on the remote server
//
// Anything in between keeps the current decision, which gives the
// controller hysteresis for free: a robot hovering at the threshold does
// not flap.
type NetController struct {
	// Threshold is the bandwidth (messages/s) below which the link
	// counts as failing. The paper sets 4 for a 5 Hz sender.
	Threshold float64

	remoteOK bool // current decision: true = offloading allowed
	switches int
}

// NewNetController returns a controller that starts in the remote state
// (missions begin near the WAP).
func NewNetController(threshold float64) *NetController {
	return &NetController{Threshold: threshold, remoteOK: true}
}

// Update feeds one observation: rate is the received-packet bandwidth
// (messages/s) and direction the smoothed signal direction (positive =
// approaching the WAP). It returns true when remote execution is
// currently advisable.
func (c *NetController) Update(rate, direction float64) bool {
	switch {
	case rate < c.Threshold && direction < 0:
		if c.remoteOK {
			c.switches++
		}
		c.remoteOK = false
	case rate > c.Threshold && direction > 0:
		if !c.remoteOK {
			c.switches++
		}
		c.remoteOK = true
	}
	return c.remoteOK
}

// RemoteOK returns the current decision without feeding an observation.
func (c *NetController) RemoteOK() bool { return c.remoteOK }

// Switches returns how many times the decision has flipped — each flip
// costs a state migration, so a well-behaved controller flips rarely.
func (c *NetController) Switches() int { return c.switches }

// LatencyController is the ablation baseline the paper argues against:
// it predicts network quality from received-packet tail latency, the
// metric prior work used. Under UDP loss it keeps seeing good latencies
// from the packets that survive, so it fails to react (§VI, Fig. 7).
type LatencyController struct {
	// Threshold is the tail latency (s) above which the link counts as
	// failing.
	Threshold float64

	remoteOK bool
}

// NewLatencyController returns the baseline controller.
func NewLatencyController(threshold float64) *LatencyController {
	return &LatencyController{Threshold: threshold, remoteOK: true}
}

// Update feeds the current tail latency of received packets. A NaN (no
// packets received, so no latency samples at all) keeps the previous
// decision — which is exactly the failure mode: total loss is invisible.
func (c *LatencyController) Update(tailLatency float64, haveSamples bool) bool {
	if !haveSamples {
		return c.remoteOK
	}
	c.remoteOK = tailLatency <= c.Threshold
	return c.remoteOK
}

// RemoteOK returns the current decision.
func (c *LatencyController) RemoteOK() bool { return c.remoteOK }
