package core

import (
	"fmt"
	"math"

	"lgvoffload/internal/energy"
	"lgvoffload/internal/explore"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/muxer"
	"lgvoffload/internal/spans"
)

// Mission is a resumable, step-driven mission handle: the same virtual-
// time loop Run executes, but advanced one physics step at a time by the
// caller. It exists so a scheduler (internal/serve) can interleave many
// missions on a few goroutines — park a mission mid-flight, step another,
// come back — without one blocking Run call per mission. A Mission is
// not safe for concurrent use; the owner serializes Step/Cancel/Result.
type Mission struct {
	e         *engine
	res       *Result
	nextProbe float64
	done      bool
	final     bool
}

// NewMission validates the config and builds a mission in its initial
// state, before the first physics step. Run is equivalent to NewMission
// followed by stepping to completion, so results are byte-identical
// between the two entry points.
func NewMission(cfg MissionConfig) (*Mission, error) {
	cfg.fillDefaults()
	if cfg.Map == nil {
		return nil, fmt.Errorf("core: mission needs a map")
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Mission{
		e:   e,
		res: &Result{Config: cfg, Energy: make(map[energy.Component]float64), Cycles: e.counter},
	}, nil
}

// Time returns the mission's current virtual time in seconds.
func (m *Mission) Time() float64 { return m.e.w.Time }

// Done reports whether the mission has terminated (goal, timeout or
// cancellation). Step and Result remain safe to call after Done.
func (m *Mission) Done() bool { return m.done }

// Step advances the mission by one physics step (physicsDt of
// virtual time) and reports whether the mission has terminated. It is
// the loop body Run iterates; calling it after termination is a no-op
// that keeps returning true.
func (m *Mission) Step() bool {
	if m.done {
		return true
	}
	e := m.e
	cfg := e.cfg
	if e.w.Time >= cfg.MaxSimTime {
		m.done = true // Result stamps the "timeout" reason
		return true
	}
	now := e.w.Time

	// Deliver matured remote velocity commands.
	e.deliverPending(now)

	// Command-staleness watchdog: hold a zero-velocity safety stop
	// while no fresh VDP output reaches the multiplexer. The deadline
	// stretches with the profiled makespan so a slow-but-alive local
	// pipeline is not mistaken for a dead link.
	stalledNow := false
	deadline := math.Max(WatchdogDeadline, 3*e.prof.VDP(e.placement).Total())
	if stalled, first := e.safety.CheckStall(now, deadline); stalled {
		stalledNow = true
		e.mx.Offer(muxer.SourceSafety, geom.Twist{}, now)
		if first {
			e.tel.Watchdog(now, e.safety.Staleness(now))
			e.flightDump("watchdog", "", now)
			if !e.stallOpen {
				e.stallOpen = true
				e.stallStart = now
			}
		}
	}

	// Fixed-rate heartbeat for Algorithm 2, independent of the
	// pipeline's pacing.
	if now >= m.nextProbe {
		e.sendProbe(now)
		m.nextProbe = now + ControlPeriod
	}

	// Control pipeline tick.
	if now >= e.nextControl && now >= e.pauseUntil {
		e.controlTick(now)
	}

	// Motor command from the multiplexer.
	cmd, ok := e.mx.Select(now)
	if !ok {
		cmd = geom.Twist{}
	}
	if cfg.CmdTap != nil {
		cfg.CmdTap(now, cmd, stalledNow)
	}
	e.w.SetCommand(cmd)

	// Physics step + meters.
	step := e.w.Step(physicsDt)
	e.meter.Tick(physicsDt)
	e.meter.AddMotor(step.MotorPower, physicsDt)
	e.clock.Tick(physicsDt, math.Abs(e.w.Robot.Vel.V)+0.3*math.Abs(e.w.Robot.Vel.W))
	e.link.SetRobotPosAt(e.w.Time, e.w.Robot.Pose.Pos)

	// Termination.
	if done, reason, success := e.checkDone(); done {
		m.res.Success = success
		m.res.Reason = reason
		m.done = true
	}
	return m.done
}

// Cancel terminates the mission before its natural end (scheduler
// eviction, daemon shutdown, an operator DELETE). The mission is marked
// unsuccessful with the given reason; Result still aggregates whatever
// the mission accrued so far.
func (m *Mission) Cancel(reason string) {
	if m.done {
		return
	}
	if reason == "" {
		reason = "canceled"
	}
	m.done = true
	m.res.Success = false
	m.res.Reason = reason
}

// Result finalizes the mission (closes episode spans, stamps fault
// windows, flushes the run-end record) and returns the aggregated
// Result. Idempotent: the first call terminates a still-running mission
// as a timeout-style stop; later calls return the same Result.
func (m *Mission) Result() *Result {
	if m.final {
		return m.res
	}
	m.final = true
	m.done = true
	e := m.e
	cfg := e.cfg
	res := m.res
	if res.Reason == "" {
		res.Reason = "timeout"
	}

	// Close out episode spans and stamp the injected fault windows so a
	// chaos trace shows each outage inline with the tick trees.
	if e.stallOpen {
		e.tr.Add(e.tr.NewTrace(), 0, "watchdog_stall", string(HostLGV), "safety",
			spans.Mark, e.stallStart, e.w.Time)
		e.stallOpen = false
	}
	if e.tr != nil && cfg.Faults != nil {
		for _, fw := range cfg.Faults.Windows {
			if fw.T0 > e.w.Time {
				continue
			}
			e.tr.Add(e.tr.NewTrace(), 0, "fault:"+fw.Kind.String(), "", "faults",
				spans.Mark, fw.T0, math.Min(fw.T1, e.w.Time))
		}
	}
	e.recordRunEnd()

	// Aggregate.
	res.TotalTime = e.clock.Total()
	res.MovingTime = e.clock.Moving()
	res.StandbyTime = e.clock.Standby()
	res.Distance = e.w.Distance()
	for _, row := range e.meter.Breakdown() {
		res.Energy[row.Component] = row.Joules
	}
	res.TotalEnergy = e.meter.Total()
	res.CoreSeconds = e.coreSeconds
	res.ThreadAdjustments = e.threadAdj
	res.Net = e.link.Stats()
	res.MsgsSent = e.msgsSent
	res.MsgsDropped = e.msgsDropped
	res.MsgsOverwritten = e.mx.Overwritten()
	res.BytesUplinked = e.bytesUp
	res.Switches = e.switches
	res.Decisions = e.decisions
	res.WatchdogStops = e.safety.Stops()
	res.Failovers = e.safety.Failovers()
	res.Handoffs = e.link.Handoffs()
	if ht := e.link.HandoffTimes(); len(ht) > 0 {
		res.HandoffTimes = append([]float64(nil), ht...)
	}
	if e.schedule != nil {
		res.FaultsInjected = e.schedule.Injected()
	}
	if e.vmaxCount > 0 {
		res.AvgMaxVel = e.vmaxSum / float64(e.vmaxCount)
	}
	if cfg.Workload == ExplorationNoMap {
		res.Explored = explore.Progress(e.slm.Map(), cfg.Map)
	}
	if cfg.Workload == CoverageWithMap {
		res.Covered = e.coveredFraction()
	}
	res.Trace = e.trace
	return res
}
