package core

import (
	"math"

	"lgvoffload/internal/obs"
	"lgvoffload/internal/spans"
	"lgvoffload/internal/store"
)

// This file is the engine's coupling to the mission store beyond the
// per-tick record (observe.go): the per-decision and end-of-run record
// hooks and the Result → summary projection. Recording is strictly
// additive — it reads engine state the tick already computed, consumes
// no randomness and never blocks (the Recorder drops on overflow), so a
// recorded mission is bit-identical to an unrecorded one.

// recordDecision persists one adaptation decision.
func (e *engine) recordDecision(d AdaptDecision) {
	if e.rec == nil {
		return
	}
	e.rec.Decision(store.Decision{
		T: d.T, Reason: d.Reason,
		Bandwidth: d.Bandwidth, Direction: d.Direction, RemoteOK: d.RemoteOK,
		LocalVDP: d.LocalVDP, CloudVDP: d.CloudVDP,
		From: d.From, To: d.To, StateBytes: d.StateBytes,
	})
}

// recordRunEnd persists the end-of-mission bulk records: the injected
// fault windows and the critical-path decomposition of every traced
// tick (the dashboard's waterfall rows). Called once, after the mission
// loop; the producer closes the mission with Recorder.Finish.
func (e *engine) recordRunEnd() {
	if e.rec == nil {
		return
	}
	if e.cfg.Faults != nil {
		for _, fw := range e.cfg.Faults.Windows {
			if fw.T0 > e.w.Time {
				continue
			}
			e.rec.Fault(store.Fault{Kind: fw.Kind.String(),
				T0: fw.T0, T1: math.Min(fw.T1, e.w.Time)})
		}
	}
	if e.tr != nil {
		for _, p := range spans.AnalyzeTicks(e.tr.Spans()) {
			e.rec.SpanRow(store.SpanRow{
				T: p.Start, Makespan: p.Makespan,
				Compute: p.Compute, Queue: p.Queue, Transport: p.Transport,
				ComputeByHost: p.ComputeByHost, Marks: p.Marks,
			})
		}
	}
	// Snapshot the recorder's backpressure drop counter into telemetry so
	// the post-mortem can flag holes in the persisted time series.
	e.tel.SetGauge(obs.MStoreDropped, "", float64(e.rec.Dropped()))
}

// StoreSummary projects a mission Result onto the store's MissionEnd
// record. Recorder bookkeeping fields (tick counts, VDP quantiles, drop
// counter, start offset) are left zero — Recorder.Finish fills them.
func StoreSummary(res *Result) store.MissionEnd {
	end := store.MissionEnd{
		Success: res.Success,
		Reason:  res.Reason,

		TotalTime:   res.TotalTime,
		MovingTime:  res.MovingTime,
		StandbyTime: res.StandbyTime,
		Distance:    res.Distance,

		Energy:      make(map[string]float64, len(res.Energy)),
		TotalEnergy: res.TotalEnergy,

		MsgsSent:        res.MsgsSent,
		MsgsDropped:     res.MsgsDropped,
		MsgsOverwritten: res.MsgsOverwritten,
		BytesUplinked:   res.BytesUplinked,
		Switches:        res.Switches,
		WatchdogStops:   res.WatchdogStops,
		Failovers:       res.Failovers,
		FaultsInjected:  res.FaultsInjected,

		AvgMaxVel:   res.AvgMaxVel,
		Explored:    res.Explored,
		Covered:     res.Covered,
		CoreSeconds: res.CoreSeconds,
	}
	for c, j := range res.Energy {
		end.Energy[string(c)] = j
	}
	return end
}
