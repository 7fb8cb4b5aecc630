package simtest

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"

	"lgvoffload/internal/core"
	"lgvoffload/internal/energy"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/spans"
	"lgvoffload/internal/store"
)

// CmdViolation records a nonzero velocity command observed while the
// watchdog had declared the command stream stale — the one thing the
// safety controller must never allow.
type CmdViolation struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
	W float64 `json:"w"`
}

// Outcome bundles one mission run with everything the invariant
// library inspects: the engine Result, its canonical byte encoding,
// the span log, and the watchdog command tap.
type Outcome struct {
	Scenario Scenario
	Res      *core.Result
	Canon    []byte

	Spans        []spans.Span
	SpansDropped uint64

	// StalledSamples counts motor commands emitted while the watchdog
	// held the stream stale (these must all be zero-velocity stops);
	// CmdViolations lists any that were not.
	StalledSamples int
	CmdViolations  []CmdViolation

	// runs counts the mission runs made for this outcome: its own, and
	// every rerun, baseline and variant its checks ran (see run).
	runs int
	// shared is what the scenario's shared rerun attaches, and reruns
	// memoizes the reruns by observer set (see rerun.go).
	shared observers
	reruns [again << 1]*rerun
}

// RunScenario executes the scenario headlessly with tracing and the
// safety command tap attached.
func RunScenario(sc Scenario) (*Outcome, error) { return runScenarioOpts(sc, runOpts{}) }

// RunScenarioObserved is RunScenario with a flight recorder and/or SLO
// engine attached, plus a Telemetry whose timeline the recorder's
// bundles copy their events from — advhunt's worst-case capture. Both
// may be nil.
func RunScenarioObserved(sc Scenario, fr *obs.FlightRecorder, slo *obs.SLOEngine) (*Outcome, error) {
	return runScenarioOpts(sc, runOpts{tel: obs.NewTelemetry(0), fr: fr, slo: slo})
}

// runOpts carries the optional observers a scenario run can attach; the
// zero value is a bare run.
type runOpts struct {
	rec *store.Recorder
	tel *obs.Telemetry
	fr  *obs.FlightRecorder
	slo *obs.SLOEngine
}

func runScenarioOpts(sc Scenario, opts runOpts) (*Outcome, error) {
	cfg, err := tracedMission(sc)
	if err != nil {
		return nil, err
	}
	cfg.Store = opts.rec
	cfg.Telemetry = opts.tel
	cfg.FlightRec = opts.fr
	cfg.SLO = opts.slo

	out := &Outcome{Scenario: sc, runs: 1}
	cfg.CmdTap = func(now float64, cmd geom.Twist, stalled bool) {
		if !stalled {
			return
		}
		out.StalledSamples++
		if cmd.V != 0 || cmd.W != 0 {
			if len(out.CmdViolations) < 16 {
				out.CmdViolations = append(out.CmdViolations, CmdViolation{T: now, V: cmd.V, W: cmd.W})
			}
		}
	}

	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	out.Res = res
	out.Canon = Canonical(res)
	out.Spans = cfg.Tracer.Spans()
	out.SpansDropped = cfg.Tracer.Dropped()
	return out, nil
}

// run runs sc with opts attached on o's behalf, and counts the run in
// o.runs when the mission completes.
func (o *Outcome) run(sc Scenario, opts runOpts) (*Outcome, error) {
	r, err := runScenarioOpts(sc, opts)
	if err == nil {
		o.runs++
	}
	return r, err
}

// tracedMission builds the scenario's config with the observability
// shape every simtest run uses (tracer attached, trace recorded), so
// the Canonical bytes of any two runs are comparable.
func tracedMission(sc Scenario) (core.MissionConfig, error) {
	c, err := sc.Mission()
	if err != nil {
		return c, err
	}
	c.Tracer = missionTracer(c)
	c.RecordTrace = true
	return c, nil
}

// missionTracer sizes a span ring for the whole mission: ~16 spans per
// control tick, headroom ×2, so the ring never wraps on the mission
// lengths the generator emits. The makespan invariant skips (not fails)
// if it somehow does.
func missionTracer(cfg core.MissionConfig) *spans.Tracer {
	maxT := cfg.MaxSimTime
	if maxT == 0 {
		maxT = core.DefaultMaxSimTime
	}
	return spans.NewTracer(int(maxT/core.ControlPeriod)*32 + 4096)
}

// canonicalResult is the deterministic, order-stable projection of
// core.Result used for byte-identity checks. It deliberately excludes
// Config (not data) and anything derived from wall time.
type canonicalResult struct {
	Success bool    `json:"success"`
	Reason  string  `json:"reason"`
	Time    float64 `json:"time"`
	Moving  float64 `json:"moving"`
	Standby float64 `json:"standby"`
	Dist    float64 `json:"dist"`

	Energy []canonEnergy `json:"energy"`
	Total  float64       `json:"total_energy"`

	Cycles []canonCycles `json:"cycles"`

	NetSent      int    `json:"net_sent"`
	NetDelivered int    `json:"net_delivered"`
	NetDropped   [4]int `json:"net_dropped"` // impair, overflow, loss, corrupt

	MsgsSent        int     `json:"msgs_sent"`
	MsgsDropped     int     `json:"msgs_dropped"`
	MsgsOverwritten int     `json:"msgs_overwritten"`
	BytesUplinked   float64 `json:"bytes_uplinked"`
	Switches        int     `json:"switches"`
	WatchdogStops   int     `json:"watchdog_stops"`
	Failovers       int     `json:"failovers"`
	FaultsInjected  int     `json:"faults_injected"`
	Handoffs        int     `json:"handoffs,omitempty"`
	// HandoffTimes round-trips through JSON floats exactly (Go emits
	// shortest-representation decimals), so byte identity still implies
	// identical handoff timing.
	HandoffTimes []float64 `json:"handoff_times,omitempty"`

	Decisions []core.AdaptDecision `json:"decisions"`

	AvgMaxVel float64 `json:"avg_max_vel"`
	Explored  float64 `json:"explored"`

	TracePoints int    `json:"trace_points"`
	TraceHash   uint64 `json:"trace_hash"`
}

type canonEnergy struct {
	Component string  `json:"c"`
	Joules    float64 `json:"j"`
}

type canonCycles struct {
	Node   string  `json:"n"`
	Cycles float64 `json:"cy"`
}

// Canonical serializes the result deterministically: map-backed fields
// are emitted in sorted order and the (large) trace time series is
// collapsed to an FNV-1a hash of its raw float bits, so two results are
// byte-identical iff every physics sample matched exactly.
func Canonical(res *core.Result) []byte {
	c := canonicalResult{
		Success: res.Success, Reason: res.Reason,
		Time: res.TotalTime, Moving: res.MovingTime, Standby: res.StandbyTime,
		Dist:         res.Distance,
		Total:        res.TotalEnergy,
		NetSent:      res.Net.Sent,
		NetDelivered: res.Net.Delivered,
		NetDropped: [4]int{res.Net.DroppedImpair, res.Net.DroppedOverflow,
			res.Net.DroppedLoss, res.Net.DroppedCorrupt},
		MsgsSent: res.MsgsSent, MsgsDropped: res.MsgsDropped,
		MsgsOverwritten: res.MsgsOverwritten,
		BytesUplinked:   res.BytesUplinked,
		Switches:        res.Switches,
		WatchdogStops:   res.WatchdogStops,
		Failovers:       res.Failovers,
		FaultsInjected:  res.FaultsInjected,
		Handoffs:        res.Handoffs,
		HandoffTimes:    res.HandoffTimes,
		Decisions:       res.Decisions,
		AvgMaxVel:       res.AvgMaxVel,
		Explored:        res.Explored,
	}
	for _, comp := range sortedComponents(res) {
		c.Energy = append(c.Energy, canonEnergy{Component: comp, Joules: res.Energy[energy.Component(comp)]})
	}
	if res.Cycles != nil {
		rows := res.Cycles.Breakdown()
		sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
		for _, r := range rows {
			c.Cycles = append(c.Cycles, canonCycles{Node: r.Node, Cycles: r.Work.Total()})
		}
	}
	c.TracePoints = len(res.Trace)
	c.TraceHash = traceHash(res.Trace)
	b, err := json.Marshal(c)
	if err != nil {
		panic("simtest: canonical marshal failed: " + err.Error())
	}
	return b
}

func sortedComponents(res *core.Result) []string {
	out := make([]string, 0, len(res.Energy))
	for k := range res.Energy {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

func traceHash(trace []core.TracePoint) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range trace {
		put(p.T)
		put(p.X)
		put(p.Y)
		put(p.MaxVel)
		put(p.RealVel)
		put(p.Bandwidth)
		put(p.TailLatSec)
		put(p.Direction)
		put(p.Signal)
		if p.RemoteOn {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}
