package core

// SafetyController is the engine's graceful-degradation authority. Two
// mechanisms, both driven from virtual time:
//
//   - A command-staleness watchdog: when no fresh VDP output has reached
//     the multiplexer within a deadline, the engine must issue a
//     zero-velocity safety stop rather than let the robot coast on a
//     stale cmd_vel. The muxer's per-source timeouts eventually starve a
//     stale command anyway; the watchdog formalizes the stop, fires
//     earlier than the navigation timeout, and makes the episode
//     observable.
//
//   - A consecutive-miss failover: Algorithm 2 gates offloading on
//     bandwidth AND signal direction, which is correct for mobility fade
//     but blind to a total outage while the robot is *stopped* — a
//     watchdog-stopped robot has direction d_t ≈ 0, so the "r_t <
//     threshold and d_t < 0" branch never fires and the mission wedges.
//     The failover path extends Algorithm 2's inputs with a count of
//     consecutive missed remote VDP ticks: past a limit, the engine
//     pulls the ECNs home and re-executes locally. A hold-down window
//     provides hysteresis so one failover isn't immediately reversed by
//     a still-optimistic bandwidth estimate.
type SafetyController struct {
	deadline  float64 // base watchdog deadline, s (see CheckStall)
	missLimit int     // consecutive misses that trip a failover

	lastCmd   float64 // virtual time of the last delivered command
	stalled   bool    // inside a watchdog-stop episode
	misses    int     // consecutive missed remote VDP ticks
	holdUntil float64 // remote execution vetoed until this time (FailoverHoldSec after a failover)

	// Roaming handoff hold-down: for HandoffFreezeSec after a WAP
	// handoff the adaptation loop freezes entirely — the re-association
	// dip and the reset direction estimate are transients, not evidence.
	// The failover path bypasses this (a genuinely dead link must still
	// pull home), which is safe because the handoff freeze is shorter
	// than the miss-limit trip time.
	handoffUntil float64

	stops     int // watchdog-stop episodes
	failovers int // miss-limit failovers tripped
}

// NewSafetyController builds a controller with a base watchdog deadline
// (s) and a consecutive-miss failover limit (0 disables failover); the
// engine passes the constants WatchdogDeadline and FailoverMisses. The
// two hold-downs are the constants FailoverHoldSec and HandoffFreezeSec.
func NewSafetyController(deadline float64, missLimit int) *SafetyController {
	return &SafetyController{deadline: deadline, missLimit: missLimit}
}

// CommandDelivered marks a fresh velocity command reaching the
// multiplexer at virtual time now, ending any stall episode.
func (s *SafetyController) CommandDelivered(now float64) {
	if now > s.lastCmd {
		s.lastCmd = now
	}
	s.stalled = false
}

// CheckStall evaluates the watchdog at virtual time now against an
// effective deadline (the engine passes max(configured, 3× profiled VDP
// makespan) so a legitimately slow local pipeline is not mistaken for a
// dead one). It returns whether the engine must hold a safety stop and
// whether this call opened a new episode (for counting and telemetry).
func (s *SafetyController) CheckStall(now, deadline float64) (stalled, first bool) {
	if deadline < s.deadline {
		deadline = s.deadline
	}
	if now-s.lastCmd <= deadline {
		return false, false
	}
	first = !s.stalled
	if first {
		s.stops++
	}
	s.stalled = true
	return true, first
}

// Staleness returns how long commands have been missing at time now.
func (s *SafetyController) Staleness(now float64) float64 { return now - s.lastCmd }

// Miss records one missed remote VDP tick (dropped scan uplink or lost
// command downlink) and returns the consecutive-miss count.
func (s *SafetyController) Miss() int {
	s.misses++
	return s.misses
}

// RemoteHit records a completed remote VDP round trip, clearing the
// consecutive-miss counter.
func (s *SafetyController) RemoteHit() { s.misses = 0 }

// Misses returns the current consecutive-miss count.
func (s *SafetyController) Misses() int { return s.misses }

// ShouldFailover reports whether the miss count has reached the limit.
func (s *SafetyController) ShouldFailover() bool {
	return s.missLimit > 0 && s.misses >= s.missLimit
}

// TripFailover commits a failover at time now: it counts the event,
// clears the miss counter, and opens the hold-down window during which
// HoldActive vetoes going remote again.
func (s *SafetyController) TripFailover(now float64) {
	s.failovers++
	s.misses = 0
	s.holdUntil = now + FailoverHoldSec
}

// HoldActive reports whether the post-failover hold-down still vetoes
// remote execution at time now.
func (s *SafetyController) HoldActive(now float64) bool { return now < s.holdUntil }

// NoteHandoff opens the post-handoff freeze window at time now.
func (s *SafetyController) NoteHandoff(now float64) {
	if until := now + HandoffFreezeSec; until > s.handoffUntil {
		s.handoffUntil = until
	}
}

// HandoffHoldActive reports whether adaptation is frozen at time now by
// a recent handoff.
func (s *SafetyController) HandoffHoldActive(now float64) bool { return now < s.handoffUntil }

// Stops returns the number of watchdog-stop episodes.
func (s *SafetyController) Stops() int { return s.stops }

// Failovers returns the number of failovers tripped.
func (s *SafetyController) Failovers() int { return s.failovers }
