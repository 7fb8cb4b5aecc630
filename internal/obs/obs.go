// Package obs is the mission telemetry subsystem: a thread-safe metrics
// registry (counters, gauges, fixed-bucket histograms with p50/p95/p99
// estimation), a structured event timeline backed by a bounded ring
// buffer, and exporters (JSONL event dump, expvar-style snapshot, and a
// human-readable post-mortem report).
//
// The paper's §VII system stands on what its ROBOT/WORKER profilers can
// observe — per-node processing times, VDP makespan, packet bandwidth
// and signal direction drive Algorithms 1 and 2 — so the reproduction
// needs the same continuous view to explain *why* a mission adapted the
// way it did. Everything here is standard library only and designed so
// the disabled path costs nothing: a nil *Telemetry is a valid no-op
// sink, every method on it is nil-safe, and instrumented hot paths do no
// allocation when telemetry is off.
package obs

import (
	"sync"
	"sync/atomic"
)

// EventSink receives every event a Telemetry emits once its timeline
// holds it; attach one with Telemetry.Tee.
type EventSink interface {
	Emit(ev Event)
}

// Metric names used by the instrumented subsystems. Labels in comments.
const (
	// MNodeExecSeconds histograms per-node execution time. Label: node.
	MNodeExecSeconds = "node_exec_seconds"
	// MNodeExecs counts node executions. Label: node.
	MNodeExecs = "node_execs"
	// MHostBusySeconds accumulates execution seconds per host. Label: host.
	MHostBusySeconds = "host_busy_seconds"
	// MProbeRTTSeconds histograms heartbeat round trips. No label.
	MProbeRTTSeconds = "probe_rtt_seconds"
	// MTickSeconds histograms control-tick pipeline latency. No label.
	MTickSeconds = "tick_pipeline_seconds"
	// MBandwidth gauges Algorithm 2's r_t (msgs/s). No label.
	MBandwidth = "alg2_bandwidth"
	// MDirection gauges Algorithm 2's d_t. No label.
	MDirection = "alg2_direction"
	// MRemoteOK gauges the Algorithm 2 decision (1 remote / 0 local).
	MRemoteOK = "alg2_remote_ok"
	// MSwitches counts placement switches. No label.
	MSwitches = "placement_switches"
	// MTransfers counts cross-host transfers. Label: topic.
	MTransfers = "net_transfers"
	// MTransferBytes accumulates cross-host bytes. Label: topic.
	MTransferBytes = "net_transfer_bytes"
	// MDrops counts lost messages. Label: topic.
	MDrops = "net_drops"
	// MOverwrites counts bounded-queue freshness overwrites. Label:
	// topic.
	MOverwrites = "queue_overwrites"
	// MLinkSent / MLinkDropped count wireless-link packets. No label.
	MLinkSent    = "link_packets_sent"
	MLinkDropped = "link_packets_dropped"
	// MLinkLatencySeconds histograms delivered-packet latency. No label.
	MLinkLatencySeconds = "link_latency_seconds"
	// MLinkSignal gauges the last observed signal strength. No label.
	MLinkSignal = "link_signal"
	// MLinkHandoffs counts roaming handoffs between access points. No
	// label.
	MLinkHandoffs = "link_handoffs"
	// MAdvEvals counts mission evaluations spent by the fault-schedule
	// adversary; MAdvWorstScore gauges its best (worst-case) score so
	// far. No label.
	MAdvEvals      = "adv_evals"
	MAdvWorstScore = "adv_worst_score"
	// MStoreDropped gauges how many records the mission store's bounded
	// recording queue discarded during the run (holes in the persisted
	// time series). No label.
	MStoreDropped = "store_records_dropped"
	// MFaultsInjected counts disturbances injected by the fault
	// schedule. Label: fault kind.
	MFaultsInjected = "faults_injected"
	// MWatchdogStops counts command-staleness safety stops. No label.
	MWatchdogStops = "watchdog_stops"
	// MFailovers counts remote→local failovers forced by consecutive
	// missed control ticks. No label.
	MFailovers = "failovers"
	// Critical-path decomposition of the per-tick VDP makespan, fed by
	// the engine's control tick whenever telemetry is on (tracing not
	// required): compute seconds labelled by host, queue/transport
	// seconds labelled by link direction. The three segments of one
	// tick sum to that tick's makespan.
	MCritComputeSeconds   = "critpath_compute_seconds"   // label: host
	MCritQueueSeconds     = "critpath_queue_seconds"     // label: up|down
	MCritTransportSeconds = "critpath_transport_seconds" // label: up|down
	// MSLOBreaches counts SLO rule breaches. Label: rule metric.
	MSLOBreaches = "slo_breaches"
	// MFlightDumps counts flight-recorder bundle dumps. Label: trigger
	// reason.
	MFlightDumps = "flight_dumps"

	// MServeAdmitted counts missions admitted by the serve scheduler.
	MServeAdmitted = "serve_admitted"
	// MServeRejected counts admissions refused. Label: reason
	// (full/closed).
	MServeRejected = "serve_rejected"
	// MServeEvicted counts missions evicted over-deadline. Label: where
	// (queue/deadline).
	MServeEvicted = "serve_evicted"
	// MServeFinished counts missions reaching a terminal state. Label:
	// outcome (success/failure/canceled/evicted/failed).
	MServeFinished = "serve_finished"
	// MServeQueued gauges the current admission-queue depth.
	MServeQueued = "serve_queued"
	// MServeRunning gauges currently running (incl. materializing)
	// missions.
	MServeRunning = "serve_running"
	// MServeAdmitWaitSeconds observes admit→dispatch queue latency.
	MServeAdmitWaitSeconds = "serve_admit_wait_seconds"
)

// Telemetry bundles a registry and a timeline with the semantic hooks
// the engine calls; the wireless link and the fault schedule hold one
// too. The zero value is not usable — construct with NewTelemetry — but
// a nil *Telemetry is a valid no-op: every method checks the receiver,
// so instrumented code can call hooks unconditionally.
type Telemetry struct {
	Reg      *Registry
	Timeline *Timeline

	mu    sync.Mutex
	phase string

	// tee holds the optional EventSinks (a teeBox) every emitted event
	// is forwarded to — the live SSE hub attaches here. An atomic keeps
	// the common no-tee path at one load, no lock; attachment is
	// copy-on-write under mu.
	tee atomic.Value
}

// teeBox wraps the teed sinks so atomic.Value always stores one
// concrete type (and can represent "detached" as a box holding nil).
type teeBox struct{ sinks []EventSink }

// NewTelemetry builds an enabled telemetry sink whose timeline holds at
// most eventCap events (<= 0 means DefaultTimelineCap).
func NewTelemetry(eventCap int) *Telemetry {
	return &Telemetry{Reg: NewRegistry(), Timeline: NewTimeline(eventCap)}
}

// Enabled reports whether the receiver collects anything.
func (t *Telemetry) Enabled() bool { return t != nil }

// SetPhase sets the mission phase stamped on subsequent events.
func (t *Telemetry) SetPhase(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// Phase returns the current mission phase.
func (t *Telemetry) Phase() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phase
}

// Count increments the counter name+label by delta.
func (t *Telemetry) Count(name, label string, delta float64) {
	if t == nil {
		return
	}
	t.Reg.Add(name, label, delta)
}

// SetGauge stores the latest value of gauge name+label.
func (t *Telemetry) SetGauge(name, label string, v float64) {
	if t == nil {
		return
	}
	t.Reg.Set(name, label, v)
}

// Observe records one sample in histogram name+label.
func (t *Telemetry) Observe(name, label string, v float64) {
	if t == nil {
		return
	}
	t.Reg.Observe(name, label, v)
}

// Tee forwards every subsequently emitted event to s as well as the
// timeline. Multiple sinks may attach; each call appends, copy-on-write,
// and Tee(nil) detaches all. Nil-safe.
func (t *Telemetry) Tee(s EventSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s == nil {
		t.tee.Store(teeBox{})
		return
	}
	var sinks []EventSink
	if box, ok := t.tee.Load().(teeBox); ok {
		sinks = append(sinks, box.sinks...)
	}
	t.tee.Store(teeBox{sinks: append(sinks, s)})
}

// Emit stamps the current phase, appends ev to the timeline and
// forwards it to the teed sinks, if any.
func (t *Telemetry) Emit(ev Event) {
	if t == nil {
		return
	}
	if ev.Phase == "" {
		ev.Phase = t.Phase()
	}
	t.Timeline.Append(ev)
	if box, ok := t.tee.Load().(teeBox); ok {
		for _, s := range box.sinks {
			s.Emit(ev)
		}
	}
}

// ---------------------------------------------------------------------------
// Semantic hooks: one per instrumented site, so call sites stay one line
// and the event schema lives here.

// NodeExec records one work-node execution: a span event plus the
// per-node latency histogram and per-host occupancy counter.
func (t *Telemetry) NodeExec(node, host string, start, procSec float64, threads int) {
	if t == nil {
		return
	}
	t.Reg.Observe(MNodeExecSeconds, node, procSec)
	t.Reg.Add(MNodeExecs, node, 1)
	t.Reg.Add(MHostBusySeconds, host, procSec)
	t.Emit(Event{Kind: KindNodeExec, T0: start, T1: start + procSec,
		Node: node, Host: host, Value: procSec, Bytes: threads})
}

// TickSpan records one control-pipeline pass and its end-to-end latency.
func (t *Telemetry) TickSpan(t0, t1, pipelineLat float64) {
	if t == nil {
		return
	}
	t.Reg.Observe(MTickSeconds, "", pipelineLat)
	t.Emit(Event{Kind: KindTick, T0: t0, T1: t1, Value: pipelineLat})
}

// Probe records one heartbeat round trip.
func (t *Telemetry) Probe(now, rtt float64) {
	if t == nil {
		return
	}
	t.Reg.Observe(MProbeRTTSeconds, "", rtt)
	t.Emit(Event{Kind: KindProbe, T0: now, T1: now + rtt, Value: rtt})
}

// Alg2 records an Algorithm 2 decision flip with its inputs, and keeps
// the live gauges current.
func (t *Telemetry) Alg2(now, bw, dir float64, remoteOK bool) {
	if t == nil {
		return
	}
	t.Reg.Set(MBandwidth, "", bw)
	t.Reg.Set(MDirection, "", dir)
	ok := 0.0
	if remoteOK {
		ok = 1
	}
	t.Reg.Set(MRemoteOK, "", ok)
	t.Emit(Event{Kind: KindAlg2, T0: now, T1: now,
		Bandwidth: bw, Direction: dir, Remote: remoteOK})
}

// Switch records one placement switch with the bandwidth and direction
// inputs behind it, the migrated state size, and a "from -> to" detail.
func (t *Telemetry) Switch(now, bw, dir, stateBytes float64, remote bool, fromTo string) {
	if t == nil {
		return
	}
	t.Reg.Add(MSwitches, "", 1)
	t.Emit(Event{Kind: KindSwitch, T0: now, T1: now,
		Bandwidth: bw, Direction: dir, Value: stateBytes,
		Remote: remote, Detail: fromTo})
}

// Transfer records one message crossing hosts.
func (t *Telemetry) Transfer(sent, arrive float64, topic, to string, bytes int) {
	if t == nil {
		return
	}
	t.Reg.Add(MTransfers, topic, 1)
	t.Reg.Add(MTransferBytes, topic, float64(bytes))
	t.Emit(Event{Kind: KindTransfer, T0: sent, T1: arrive,
		Node: topic, Host: to, Bytes: bytes, Value: arrive - sent})
}

// Drop records one message lost in flight or overwritten in a queue.
func (t *Telemetry) Drop(now float64, topic, where string) {
	if t == nil {
		return
	}
	t.Reg.Add(MDrops, topic, 1)
	t.Emit(Event{Kind: KindDrop, T0: now, T1: now, Node: topic, Detail: where})
}

// Watchdog records one command-staleness safety stop.
func (t *Telemetry) Watchdog(now, staleness float64) {
	if t == nil {
		return
	}
	t.Reg.Add(MWatchdogStops, "", 1)
	t.Emit(Event{Kind: KindWatchdog, T0: now, T1: now, Value: staleness})
}

// Failover records the safety controller pulling execution home after
// misses consecutive missed control ticks.
func (t *Telemetry) Failover(now float64, misses int, detail string) {
	if t == nil {
		return
	}
	t.Reg.Add(MFailovers, "", 1)
	t.Emit(Event{Kind: KindFailover, T0: now, T1: now,
		Value: float64(misses), Detail: detail})
}

// SLOBreach records one service-level rule opening: a timeline event
// carrying the offending value and its limit, plus the per-metric
// breach counter.
func (t *Telemetry) SLOBreach(now float64, metric string, value, limit float64, detail string) {
	if t == nil {
		return
	}
	t.Reg.Add(MSLOBreaches, metric, 1)
	t.Emit(Event{Kind: KindSLOBreach, T0: now, T1: now,
		Node: metric, Value: value, Bandwidth: limit, Detail: detail})
}

// Events returns the timeline's events (nil-safe, oldest first).
func (t *Telemetry) Events() []Event {
	if t == nil {
		return nil
	}
	return t.Timeline.Events()
}

// Snapshot returns the registry's metrics (nil-safe).
func (t *Telemetry) Snapshot() []MetricPoint {
	if t == nil {
		return nil
	}
	return t.Reg.Snapshot()
}
