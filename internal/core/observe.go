package core

import (
	"math"

	"lgvoffload/internal/obs"
	"lgvoffload/internal/store"
)

// This file builds the engine's one per-tick view and hands it to every
// per-tick consumer: the mission store, the flight recorder, the SLO
// engine and the trace time series. Everything here is strictly
// additive: it reads values the tick already computed, consumes no
// randomness, and never feeds back into control decisions — an
// instrumented mission is bit-identical to a bare one. With no consumer
// attached the frame is never built.

// observeTick runs the end of a control tick: it builds the tick's
// frame once, stores it, records it in the flight ring and judges it
// against the SLOs, dumping a bundle per breach, then runs adaptation,
// then appends the trace point. The frame is recorded before the
// judgment so a breach-triggered dump always holds the breach tick.
func (e *engine) observeTick(now, pipelineLat float64) {
	var f obs.FlightFrame
	if e.rec != nil || e.fr != nil || e.slo != nil || e.cfg.RecordTrace {
		ns := e.link.Stats()
		f = obs.FlightFrame{
			T:         now,
			VDP:       pipelineLat,
			EnergyJ:   e.meter.Total(),
			Bandwidth: e.prof.Bandwidth(now),
			Direction: e.prof.Direction(),
			Signal:    e.link.Signal(),
			MaxVel:    e.vmax,
			RealVel:   math.Abs(e.w.Robot.Vel.V),
			RemoteOn:  e.remoteCount(),
			Staleness: e.safety.Staleness(now),

			Sent:     ns.Sent,
			Dropped:  ns.Dropped(),
			Misses:   e.safety.Misses(),
			Stops:    e.safety.Stops(),
			Failover: e.safety.Failovers(),
			Handoffs: e.link.Handoffs(),
			Switches: e.switches,

			Compute:   e.lastCompute,
			Queue:     e.lastQueue,
			Transport: e.lastTranspt,
		}
		e.rec.Tick(store.Tick{
			T: f.T, VDP: f.VDP, EnergyJ: f.EnergyJ,
			Bandwidth: f.Bandwidth, Direction: f.Direction, Signal: f.Signal,
			MaxVel: f.MaxVel, RealVel: f.RealVel, RemoteOn: f.RemoteOn > 0,
		})
		e.fr.Record(f)
		for _, b := range e.slo.Observe(f) {
			e.tel.SLOBreach(now, b.Metric, b.Value, b.Limit, b.Rule)
			e.flightDump("slo:"+b.Metric, b.Rule, now)
		}
	}

	if e.cfg.Deployment.Mode == Adaptive {
		e.adapt(now)
	}

	if e.cfg.RecordTrace {
		tail, _ := e.prof.TailLatency(0.99)
		e.trace = append(e.trace, TracePoint{
			T:          f.T,
			X:          e.w.Robot.Pose.Pos.X,
			Y:          e.w.Robot.Pose.Pos.Y,
			MaxVel:     f.MaxVel,
			RealVel:    f.RealVel,
			Bandwidth:  f.Bandwidth,
			TailLatSec: tail,
			Direction:  f.Direction,
			Signal:     f.Signal,
			RemoteOn:   e.remoteCount() > 0, // adapt may have moved nodes
		})
	}
}

// remoteCount returns how many nodes the placement runs off the robot.
func (e *engine) remoteCount() int {
	n := 0
	for _, h := range e.placement.Host {
		if h != HostLGV {
			n++
		}
	}
	return n
}

// flightDump requests a rate-limited bundle dump and counts the ones
// that actually happen.
func (e *engine) flightDump(reason, detail string, now float64) {
	if e.fr == nil {
		return
	}
	if b := e.fr.Dump(reason, detail, now); b != nil {
		e.tel.Count(obs.MFlightDumps, reason, 1)
	}
}
