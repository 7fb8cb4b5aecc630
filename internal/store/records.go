package store

import "encoding/json"

// MissionStart opens a mission in the store. Producers fill what they
// know; only ID is required (the store assigns one when empty). Unix is
// wall-clock seconds at mission start and is deliberately excluded from
// determinism comparisons (the simtest round-trip invariant zeroes it).
type MissionStart struct {
	ID       string `json:"id"`
	Unix     int64  `json:"unix,omitempty"`
	Label    string `json:"label,omitempty"`
	Seed     int64  `json:"seed"`
	Workload string `json:"workload,omitempty"`
	Deploy   string `json:"deploy,omitempty"`
	Goal     string `json:"goal,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	// FaultSpec is the compact internal/faults schedule spec ("" = none).
	FaultSpec  string  `json:"faults,omitempty"`
	MaxSimTime float64 `json:"max_sim_time,omitempty"`
	// Scenario carries the producer's full self-contained mission spec
	// when it has one (internal/simtest stores its Scenario JSON here),
	// so a stored mission can be replayed bit-for-bit.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// Tick is one per-tick telemetry snapshot: the VDP pipeline latency and
// cumulative mission energy alongside the Algorithm 2 inputs — the
// per-mission time series the dashboard and query layer serve.
type Tick struct {
	T         float64 `json:"t"`
	VDP       float64 `json:"vdp"` // pipeline latency of this tick, s
	EnergyJ   float64 `json:"e"`   // cumulative Eq. 1a energy, J
	Bandwidth float64 `json:"bw"`  // Algorithm 2 r_t, msgs/s
	Direction float64 `json:"dir"` // Algorithm 2 d_t
	Signal    float64 `json:"sig"` // true link signal (ground truth)
	MaxVel    float64 `json:"vmax"`
	RealVel   float64 `json:"v"`
	RemoteOn  bool    `json:"r,omitempty"`
}

// Decision is one adaptation decision (a placement switch or failover)
// — the JSON-stable mirror of core.AdaptDecision.
type Decision struct {
	T         float64 `json:"t"`
	Reason    string  `json:"reason"`
	Bandwidth float64 `json:"bw"`
	Direction float64 `json:"dir"`
	RemoteOK  bool    `json:"remote_ok"`
	LocalVDP  float64 `json:"local_vdp,omitempty"`
	CloudVDP  float64 `json:"cloud_vdp,omitempty"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	// StateBytes is the migrated mutable node state.
	StateBytes float64 `json:"state_bytes,omitempty"`
}

// Fault is one scheduled disturbance window.
type Fault struct {
	Kind string  `json:"kind"`
	T0   float64 `json:"t0"`
	T1   float64 `json:"t1"`
}

// SpanRow is the stored critical-path decomposition of one traced tick
// (the waterfall row the dashboard renders), condensed from
// spans.TickPath.
type SpanRow struct {
	T         float64 `json:"t"`
	Makespan  float64 `json:"mk"`
	Compute   float64 `json:"cp"`
	Queue     float64 `json:"qu"`
	Transport float64 `json:"tr"`
	// ComputeByHost attributes the compute segment per host.
	ComputeByHost map[string]float64 `json:"hosts,omitempty"`
	Marks         []string           `json:"marks,omitempty"`
}

// MissionEnd closes a mission: the final Result summary plus the
// recorder's bookkeeping. It is also the store's in-file index entry —
// StartOff points back at the MissionStart record, and the summary
// fields let listing and fleet aggregation skip the tick records
// entirely.
type MissionEnd struct {
	ID      string `json:"id"`
	Success bool   `json:"success"`
	Reason  string `json:"reason"`

	TotalTime   float64 `json:"time"`
	MovingTime  float64 `json:"moving"`
	StandbyTime float64 `json:"standby"`
	Distance    float64 `json:"dist"`

	// Energy is Eq. 1a joules per component (map keys marshal sorted,
	// so the encoding is deterministic).
	Energy      map[string]float64 `json:"energy"`
	TotalEnergy float64            `json:"total_energy"`

	MsgsSent        int     `json:"msgs_sent"`
	MsgsDropped     int     `json:"msgs_dropped"`
	MsgsOverwritten int     `json:"msgs_overwritten"`
	BytesUplinked   float64 `json:"bytes_uplinked"`
	Switches        int     `json:"switches"`
	WatchdogStops   int     `json:"watchdog_stops"`
	Failovers       int     `json:"failovers"`
	FaultsInjected  int     `json:"faults_injected"`

	AvgMaxVel   float64 `json:"avg_max_vel"`
	Explored    float64 `json:"explored,omitempty"`
	Covered     float64 `json:"covered,omitempty"`
	CoreSeconds float64 `json:"core_seconds,omitempty"`

	// Recorder bookkeeping, filled by Recorder.Finish (not by the
	// producer): counts of the records written, per-mission tick-VDP
	// quantiles over the written ticks, and how many records were lost
	// (dropped by the bounded queue or failed to encode).
	Ticks     int     `json:"ticks"`
	Decisions int     `json:"decisions"`
	Faults    int     `json:"fault_windows"`
	SpanRows  int     `json:"span_rows"`
	VDPMean   float64 `json:"vdp_mean"`
	VDPP50    float64 `json:"vdp_p50"`
	VDPP95    float64 `json:"vdp_p95"`
	VDPP99    float64 `json:"vdp_p99"`
	Dropped   uint64  `json:"records_dropped,omitempty"`
	StartOff  int64   `json:"start_off"`
}

// WithoutBookkeeping returns a copy of end with every Recorder-filled field
// zeroed, so producers can compare stored summaries against freshly
// computed ones (the simtest round-trip invariant does this).
func (end MissionEnd) WithoutBookkeeping() MissionEnd {
	end.Ticks = 0
	end.Decisions = 0
	end.Faults = 0
	end.SpanRows = 0
	end.VDPMean = 0
	end.VDPP50 = 0
	end.VDPP95 = 0
	end.VDPP99 = 0
	end.Dropped = 0
	end.StartOff = 0
	return end
}
