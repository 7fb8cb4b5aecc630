package obs

import (
	"sync"

	"lgvoffload/internal/ring"
)

// Kind classifies a timeline event.
type Kind string

// Event kinds emitted by the instrumented subsystems.
const (
	// KindTick spans one control-pipeline pass (engine controlTick).
	KindTick Kind = "tick"
	// KindNodeExec spans one work-node execution on a host.
	KindNodeExec Kind = "node_exec"
	// KindSwitch marks a placement switch with the Algorithm 1/2 inputs
	// that produced it.
	KindSwitch Kind = "switch"
	// KindAlg2 marks an Algorithm 2 decision flip (remote gating).
	KindAlg2 Kind = "alg2"
	// KindProbe records one heartbeat round trip.
	KindProbe Kind = "probe"
	// KindTransfer spans one message crossing hosts.
	KindTransfer Kind = "transfer"
	// KindDrop marks a message lost in the network or overwritten in a
	// bounded queue.
	KindDrop Kind = "drop"
	// KindFault marks the first disturbance injected by a scheduled
	// fault window (internal/faults).
	KindFault Kind = "fault"
	// KindWatchdog marks a command-staleness safety stop: the engine
	// zeroed cmd_vel because no fresh VDP output arrived in time.
	KindWatchdog Kind = "watchdog_stop"
	// KindFailover marks the safety controller pulling remote nodes
	// home after consecutive missed control ticks.
	KindFailover Kind = "failover"
	// KindHandoff marks the link roaming between access points; T0..T1
	// covers the re-association signal dip.
	KindHandoff Kind = "handoff"
	// KindSLOBreach marks a service-level rule opening: Node = rule
	// metric, Value = offending stat, Bandwidth = the limit it crossed,
	// Detail = the full rule spec.
	KindSLOBreach Kind = "slo_breach"
)

// Event is one structured timeline record. T0/T1 are virtual-time start
// and end (equal for instantaneous events). The remaining fields are
// kind-specific; unused ones stay zero and are omitted from JSONL.
//
// Field semantics per kind:
//
//	tick:      T0..T1 = control tick span; Value = pipeline latency (s)
//	node_exec: T0..T1 = execution span; Node, Host; Value = proc time (s);
//	           Bytes = acceleration threads used
//	switch:    Bandwidth/Direction = Algorithm 2 inputs; Remote = remote
//	           execution enabled after the switch; Detail = "from -> to";
//	           Value = state bytes migrated
//	alg2:      Bandwidth/Direction = r_t, d_t; Remote = new decision
//	probe:     Value = measured RTT (s)
//	transfer:  T0 = send, T1 = arrival; Node = topic; Host = destination;
//	           Bytes = encoded size
//	drop:      Node = topic; Detail = where ("uplink", "fabric", ...)
//	fault:     T0..T1 = scheduled window; Node = fault kind
//	watchdog_stop: Value = command staleness (s) when the stop fired
//	failover:  Value = consecutive misses; Detail = "remote -> local ..."
type Event struct {
	Seq       uint64  `json:"seq"`
	Kind      Kind    `json:"kind"`
	T0        float64 `json:"t0"`
	T1        float64 `json:"t1"`
	Host      string  `json:"host,omitempty"`
	Node      string  `json:"node,omitempty"`
	Phase     string  `json:"phase,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Bytes     int     `json:"bytes,omitempty"`
	Bandwidth float64 `json:"bw,omitempty"`
	Direction float64 `json:"dir,omitempty"`
	Remote    bool    `json:"remote,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// Timeline is a bounded ring buffer of events: long missions stay O(1)
// in memory, keeping the newest events and counting evictions. Safe for
// concurrent use.
type Timeline struct {
	mu   sync.Mutex
	ring ring.Ring[Event] // Pushed() assigns Seq
}

// DefaultTimelineCap bounds the ring when no capacity is given: at the
// sim's ~10 events per 0.2 s control tick this holds the last several
// minutes of mission activity.
const DefaultTimelineCap = 16384

// NewTimeline returns a ring buffer holding at most capacity events
// (<= 0 means DefaultTimelineCap).
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineCap
	}
	return &Timeline{ring: ring.New[Event](capacity)}
}

// Append stores one event, assigning its sequence number and evicting
// the oldest event when full. It never allocates.
func (t *Timeline) Append(ev Event) {
	t.mu.Lock()
	ev.Seq = t.ring.Pushed() + 1
	t.ring.Push(ev)
	t.mu.Unlock()
}

// Events returns the held events oldest-first.
func (t *Timeline) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.AppendTo(make([]Event, 0, t.ring.Len()))
}

// Window returns, oldest first, the held events that overlap the
// virtual-time window [from, to]: each ends at or after from and starts
// at or before to. It scans under the timeline lock and copies only
// those events.
func (t *Timeline) Window(from, to float64) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dst []Event
	for i := 0; i < t.ring.Len(); i++ {
		ev := t.ring.At(i)
		end := ev.T0
		if ev.T1 > end {
			end = ev.T1
		}
		if end >= from && ev.T0 <= to {
			dst = append(dst, *ev)
		}
	}
	return dst
}

// Len returns how many events are currently held.
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// Total returns how many events were ever appended.
func (t *Timeline) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Pushed()
}

// Evicted returns how many events the ring has discarded.
func (t *Timeline) Evicted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Evicted()
}
