package core

import (
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/muxer"
)

// TestNetControllerThresholdEquality pins Algorithm 2's behavior at the
// exact bandwidth threshold: both branches use strict inequalities, so
// r_t == threshold satisfies neither and the current decision must hold
// — whichever it is. This is the hysteresis the paper gets for free.
func TestNetControllerThresholdEquality(t *testing.T) {
	const thr = 4.0

	c := NewNetController(thr)
	if !c.RemoteOK() {
		t.Fatal("controller must start remote")
	}
	// Equality with an adverse direction: the local branch needs
	// r_t < threshold strictly, so the remote decision survives.
	if !c.Update(thr, -1) {
		t.Fatal("r_t == threshold flipped the decision to local")
	}
	// Force local, then test equality against the remote branch, which
	// needs r_t > threshold strictly.
	if c.Update(thr-1, -1) {
		t.Fatal("r_t < threshold with d_t < 0 must go local")
	}
	if c.Update(thr, +1) {
		t.Fatal("r_t == threshold flipped the decision to remote")
	}
	if got := c.Switches(); got != 1 {
		t.Fatalf("equality observations changed the switch count: got %d, want 1", got)
	}

	// Mixed-sign boundaries: rate crosses but direction is exactly zero
	// — both branches need a strict sign, so nothing moves.
	if c.Update(thr+2, 0) {
		t.Fatal("d_t == 0 allowed the remote branch")
	}
	if c.Update(thr-2, 0) {
		t.Fatal("d_t == 0 allowed the local branch to re-fire (already local, count must hold)")
	}
	if got := c.Switches(); got != 1 {
		t.Fatalf("zero-direction observations changed the switch count: got %d, want 1", got)
	}
}

// TestHoldDownExpiryBoundary pins the failover hold-down at its exact
// expiry tick: HoldActive is `now < holdUntil`, so the veto is active
// one instant before expiry and gone at exactly holdUntil.
func TestHoldDownExpiryBoundary(t *testing.T) {
	s := NewSafetyController(1.2, 15, 20)
	const tripAt = 100.0
	s.TripFailover(tripAt)
	if !s.HoldActive(tripAt) {
		t.Fatal("hold-down must be active immediately after the trip")
	}
	if !s.HoldActive(tripAt + 20 - 1e-9) {
		t.Fatal("hold-down must still veto an instant before expiry")
	}
	if s.HoldActive(tripAt + 20) {
		t.Fatal("hold-down must expire at exactly holdUntil (now < holdUntil is false)")
	}
	if s.HoldActive(tripAt + 20 + 1e-9) {
		t.Fatal("hold-down must stay expired after holdUntil")
	}
}

// TestFailoverTripResetsMisses pins the trip semantics at the boundary:
// reaching the limit trips exactly once, and the trip clears the
// counter so the next failover needs a full new run of misses.
func TestFailoverTripResetsMisses(t *testing.T) {
	s := NewSafetyController(1.2, 3, 20)
	for i := 0; i < 2; i++ {
		s.Miss()
	}
	if s.ShouldFailover() {
		t.Fatal("2 of 3 misses must not trip")
	}
	s.Miss()
	if !s.ShouldFailover() {
		t.Fatal("3 of 3 misses must trip")
	}
	s.TripFailover(50)
	if s.Misses() != 0 {
		t.Fatalf("trip must clear the miss counter, got %d", s.Misses())
	}
	if s.ShouldFailover() {
		t.Fatal("cleared counter must not re-trip")
	}
	if s.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", s.Failovers())
	}
}

// TestMuxOverwriteCountersConcurrentPublishers drives the multiplexer
// with several sources publishing into the same virtual-time window
// (the muxer is single-goroutine by contract; "concurrent" means
// contemporaneous offers between Selects) and pins down exactly which
// offers count as overwrites: replacing a command the motors never
// consumed counts, replacing a consumed one does not, and a
// lower-priority source being masked is not an overwrite.
func TestMuxOverwriteCountersConcurrentPublishers(t *testing.T) {
	m := muxer.New(muxer.DefaultSources())
	offer := func(src string, v float64, now float64) {
		t.Helper()
		if err := m.Offer(src, geom.Twist{V: v}, now); err != nil {
			t.Fatal(err)
		}
	}

	// Round 1: navigation and safety both publish, then navigation
	// refreshes before any Select. Only navigation's unconsumed command
	// is overwritten; safety's distinct slot is untouched.
	offer(muxer.SourceNavigation, 0.10, 0.00)
	offer(muxer.SourceSafety, 0.00, 0.01)
	offer(muxer.SourceNavigation, 0.20, 0.02)
	if got := m.Overwritten(); got != 1 {
		t.Fatalf("overwritten = %d after one unconsumed replacement, want 1", got)
	}

	// Safety (priority 100) wins the Select over fresh navigation.
	cmd, ok := m.Select(0.05)
	if !ok || cmd.V != 0 {
		t.Fatalf("Select = %+v ok=%v, want the safety stop", cmd, ok)
	}
	if m.Selected() != muxer.SourceSafety {
		t.Fatalf("selected %q, want safety", m.Selected())
	}

	// Round 2: safety refreshes its *consumed* command — not an
	// overwrite, the motors saw the previous one.
	offer(muxer.SourceSafety, 0.00, 0.06)
	if got := m.Overwritten(); got != 1 {
		t.Fatalf("overwritten = %d after replacing a consumed command, want still 1", got)
	}

	// Round 3: three publishers race within one control period; the two
	// navigation refreshes each clobber an unconsumed predecessor
	// (navigation never won a Select — safety always outranked it).
	offer(muxer.SourceJoystick, 0.30, 0.07)
	offer(muxer.SourceNavigation, 0.21, 0.08)
	offer(muxer.SourceNavigation, 0.22, 0.09)
	if got := m.Overwritten(); got != 3 {
		t.Fatalf("overwritten = %d after two more unconsumed replacements, want 3", got)
	}

	// After safety times out (0.2 s), the joystick outranks navigation.
	cmd, ok = m.Select(0.28)
	if !ok || cmd.V != 0.30 {
		t.Fatalf("Select = %+v ok=%v, want the joystick command", cmd, ok)
	}
	if m.Selected() != muxer.SourceJoystick {
		t.Fatalf("selected %q, want joystick", m.Selected())
	}

	// A masked lower-priority source is starved, not overwritten: its
	// command simply expires unconsumed.
	if got := m.Overwritten(); got != 3 {
		t.Fatalf("overwritten = %d after Selects, want unchanged 3", got)
	}
}
