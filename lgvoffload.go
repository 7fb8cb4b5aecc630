// Package lgvoffload is a library-scale reproduction of "Towards
// Practical Cloud Offloading for Low-cost Ground Vehicle Workloads"
// (IPDPS 2021): an end-to-end cloud-robotic offloading framework with a
// fully simulated substrate — a 2-D world and differential-drive vehicle,
// laser/odometry sensing, a wireless network with UDP best-effort
// semantics carrying the scan uplink and command downlink, calibrated
// compute-platform models, and the complete LGV workload pipeline (AMCL, GMapping SLAM, layered costmaps,
// A*/Dijkstra planning, frontier exploration, DWA path tracking and a
// velocity multiplexer).
//
// The public surface re-exports the mission engine and the paper's three
// optimizations: fine-grained migration (Algorithm 1), parallel cloud
// acceleration (Figs. 5/6), and real-time network-quality adjustment
// (Algorithm 2). A typical use:
//
//	cfg := lgvoffload.MissionConfig{
//		Workload:   lgvoffload.NavigationWithMap,
//		Map:        lgvoffload.LabMap(),
//		Start:      lgvoffload.Pose(0.6, 0.6, 0),
//		Goal:       lgvoffload.Point(11, 5),
//		Deployment: lgvoffload.DeployAdaptive(lgvoffload.HostEdge, 8, lgvoffload.GoalMCT),
//		Seed:       1,
//	}
//	res, err := lgvoffload.Run(cfg)
//
// Every experiment of the paper's evaluation is regenerable through
// Experiments (or the cmd/reproduce binary).
package lgvoffload

import (
	"io"
	"net/http"

	"lgvoffload/internal/bench"
	"lgvoffload/internal/core"
	"lgvoffload/internal/energy"
	"lgvoffload/internal/faults"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/spans"
	"lgvoffload/internal/store"
	"lgvoffload/internal/world"
)

// Core mission types, re-exported from the engine.
type (
	// MissionConfig fully describes one mission run.
	MissionConfig = core.MissionConfig
	// Result summarizes a completed mission.
	Result = core.Result
	// TracePoint is one row of a recorded mission time series.
	TracePoint = core.TracePoint
	// Deployment describes an offloading configuration.
	Deployment = core.Deployment
	// Workload selects the pipeline variant.
	Workload = core.Workload
	// Goal is Algorithm 1's optimization target.
	Goal = core.Goal
	// Map is a 2-D occupancy grid world.
	Map = grid.Map
	// EnergyComponent identifies one energy-consuming subsystem.
	EnergyComponent = energy.Component
	// Telemetry is the mission telemetry sink (see internal/obs): set
	// MissionConfig.Telemetry to one to collect the event timeline and
	// metrics; leave it nil (the default) for zero overhead.
	Telemetry = obs.Telemetry
	// TelemetryEvent is one structured timeline event.
	TelemetryEvent = obs.Event
	// MetricPoint is one exported metric sample.
	MetricPoint = obs.MetricPoint
	// AdaptDecision is one entry of a mission's adaptation decision log.
	AdaptDecision = core.AdaptDecision
	// FaultConfig is a deterministic fault-injection schedule; assign
	// one to MissionConfig.Faults to replay scripted disturbances.
	FaultConfig = faults.Config
	// FaultWindow is one scripted disturbance window.
	FaultWindow = faults.Window
	// Tracer is the causal tracing collector (see internal/spans): set
	// MissionConfig.Tracer to one to record every control tick as a span
	// tree; leave it nil (the default) for zero overhead.
	Tracer = spans.Tracer
	// Span is one completed trace interval.
	Span = spans.Span
	// TickPath is the critical-path decomposition of one traced tick.
	TickPath = spans.TickPath
	// CritPathSummary aggregates tick decompositions into p50/p95 form.
	CritPathSummary = spans.Summary
	// Store is the embedded mission store (see internal/store): an
	// append-only, crash-safe record log of missions with a query layer.
	Store = store.Store
	// MissionRecorder persists one running mission into a Store; assign
	// one (from Store.Begin) to MissionConfig.Store. Nil — the default —
	// records nothing at zero cost.
	MissionRecorder = store.Recorder
	// MissionStart is the metadata record opening a stored mission.
	MissionStart = store.MissionStart
	// MissionSummary is the closing summary record of a stored mission
	// (also the store's in-file index entry).
	MissionSummary = store.MissionEnd
	// MissionInfo is one mission listing row from Store.List.
	MissionInfo = store.MissionInfo
	// StoreFilter selects missions for Store.List and Store.FleetStats.
	StoreFilter = store.Filter
	// MissionData is one fully decoded stored mission (metadata, summary
	// and every tick/decision/fault/span record), from Store.ReadMission.
	MissionData = store.MissionData
	// StoreStats reports a store file's size, record and mission counts.
	StoreStats = store.Stats
	// FleetStats aggregates stored missions (success rates, pooled VDP
	// quantiles, decision flip-rate trends).
	FleetStats = store.Fleet
	// LiveHub broadcasts live mission events to SSE subscribers; attach
	// one with Telemetry.Tee and serve it via InspectorConfig.Live.
	LiveHub = obs.LiveHub
	// InspectorConfig configures NewInspectorWith (the dashboard-capable
	// HTTP inspector).
	InspectorConfig = obs.InspectorConfig
	// FlightRecorder is the always-on mission black box: assign one to
	// MissionConfig.FlightRec to capture per-tick frames and dump JSONL
	// bundles on watchdog stops, failovers, SLO breaches and panics.
	FlightRecorder = obs.FlightRecorder
	// FlightConfig configures a FlightRecorder (output directory, dump
	// rate limits).
	FlightConfig = obs.FlightConfig
	// FlightFrame is one per-tick flight-recorder snapshot.
	FlightFrame = obs.FlightFrame
	// FlightBundle is one frozen flight-recorder dump.
	FlightBundle = obs.FlightBundle
	// SLOEngine judges missions live against declarative service-level
	// rules; assign one to MissionConfig.SLO and InspectorConfig.SLO.
	SLOEngine = obs.SLOEngine
	// SLORule is one parsed service-level rule.
	SLORule = obs.SLORule
	// SLOBreach records one rule transition into the breached state.
	SLOBreach = obs.Breach
	// SLOHealth is the /health + /ready projection of an SLOEngine.
	SLOHealth = obs.HealthStatus
)

// EnergyComponents lists the Eq. 1a components in presentation order.
var EnergyComponents = energy.Components

// Workloads.
const (
	NavigationWithMap = core.NavigationWithMap
	ExplorationNoMap  = core.ExplorationNoMap
	CoverageWithMap   = core.CoverageWithMap
)

// Algorithm 1 goals.
const (
	GoalEC  = core.GoalEC
	GoalMCT = core.GoalMCT
)

// Hosts.
const (
	HostLGV   = core.HostLGV
	HostEdge  = core.HostEdge
	HostCloud = core.HostCloud
)

// Run executes a mission to completion.
func Run(cfg MissionConfig) (*Result, error) { return core.Run(cfg) }

// NewTelemetry builds an enabled telemetry sink whose timeline holds at
// most eventCap events (<= 0 means the default capacity).
func NewTelemetry(eventCap int) *Telemetry { return obs.NewTelemetry(eventCap) }

// WritePostMortem renders a mission's human-readable post-mortem report
// (per-node latency histograms, host occupancy, network summary and the
// adaptation decision log) to w. Nil-safe on t.
func WritePostMortem(w io.Writer, t *Telemetry, missionTime float64) error {
	return obs.WritePostMortem(w, t, missionTime)
}

// NewTracer builds a causal-trace collector holding at most capacity
// spans (<= 0 means the default, about 20 minutes of 5 Hz mission).
func NewTracer(capacity int) *Tracer { return spans.NewTracer(capacity) }

// AnalyzeTicks decomposes recorded spans into per-tick critical paths.
func AnalyzeTicks(sp []Span) []TickPath { return spans.AnalyzeTicks(sp) }

// SummarizeTicks aggregates tick decompositions into p50/p95 quantiles.
func SummarizeTicks(paths []TickPath) CritPathSummary { return spans.Summarize(paths) }

// WriteCritPathTable prints the per-tick VDP decomposition (sampling
// down to maxRows rows) followed by a quantile summary footer.
func WriteCritPathTable(w io.Writer, paths []TickPath, maxRows int) {
	spans.WriteTable(w, paths, maxRows)
}

// ValidateTrace checks structural invariants over a recorded span set.
func ValidateTrace(sp []Span) error { return spans.Validate(sp) }

// ValidateChromeTrace checks an exported Chrome trace-event JSON
// document and returns its complete-event count.
func ValidateChromeTrace(data []byte) (int, error) { return spans.ValidateChrome(data) }

// NewInspector returns the live HTTP inspection endpoint: metrics
// snapshot, recent timeline, Chrome trace, expvar and pprof. Either
// argument may be nil.
func NewInspector(t *Telemetry, tr *Tracer) http.Handler { return obs.NewInspector(t, tr) }

// NewInspectorWith returns the full HTTP inspection endpoint including
// the persistent-mission dashboard (/missions, /missions/{id}, /fleet,
// /dash) and the live SSE stream (/live). Every config field may be
// nil.
func NewInspectorWith(cfg InspectorConfig) http.Handler { return obs.NewInspectorWith(cfg) }

// OpenStore opens (creating if needed) an embedded mission store. A
// torn or corrupt tail left by a crash is truncated on open, never
// fatal. Typical recording flow:
//
//	st, _ := lgvoffload.OpenStore("missions.lgvstore")
//	rec, _ := st.Begin(lgvoffload.MissionStart{Seed: cfg.Seed})
//	cfg.Store = rec
//	res, _ := lgvoffload.Run(cfg)
//	rec.Finish(lgvoffload.StoreSummary(res))
func OpenStore(path string) (*Store, error) { return store.Open(path) }

// StoreSummary projects a mission Result onto the store's closing
// summary record for MissionRecorder.Finish.
func StoreSummary(res *Result) MissionSummary { return core.StoreSummary(res) }

// NewLiveHub builds an SSE broadcast hub whose replay ring holds
// replayCap recent frames (<= 0 means the default).
func NewLiveHub(replayCap int) *LiveHub { return obs.NewLiveHub(replayCap) }

// NewFlightRecorder preallocates a mission flight recorder: a
// 4096-frame ring and 30 s bundles whose events come from the mission
// telemetry's timeline. Zero-value config fields take the defaults (16
// dumps at least 5 virtual seconds apart).
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return obs.NewFlightRecorder(cfg) }

// NewSLOEngine builds a live SLO judge over the given rules.
func NewSLOEngine(rules []SLORule) *SLOEngine { return obs.NewSLOEngine(rules) }

// ParseSLORules parses a comma-separated rule spec such as
// "vdp_p99<=0.5@30s,energy_rate~3@20s" ("default" for DefaultSLORules).
func ParseSLORules(spec string) ([]SLORule, error) { return obs.ParseSLORules(spec) }

// DefaultSLORules is the stock rule set behind `-slo default`.
func DefaultSLORules() []SLORule { return obs.DefaultSLORules() }

// VerifyFlightBundle structurally validates a flight-recorder bundle
// (version tag, header/body agreement, frame ordering and windowing).
func VerifyFlightBundle(data []byte) (FlightBundle, error) { return obs.VerifyFlightBundle(data) }

// ValidatePrometheusText checks that data parses as Prometheus text
// exposition format and returns the sample count.
func ValidatePrometheusText(data []byte) (int, error) { return obs.ValidatePrometheusText(data) }

// Deployment constructors.
var (
	// DeployLocal runs everything on the vehicle (the baseline).
	DeployLocal = core.DeployLocal
	// DeployEdge pins the ECNs to the edge gateway with n threads.
	DeployEdge = core.DeployEdge
	// DeployCloud pins the ECNs to the cloud server with n threads.
	DeployCloud = core.DeployCloud
	// DeployAdaptive applies Algorithms 1 and 2 at runtime.
	DeployAdaptive = core.DeployAdaptive
)

// World builders.
var (
	// LabMap is the 12×6 m lab used by the paper-scale experiments.
	LabMap = world.LabMap
	// ObstacleCourseMap is the Fig. 14 slalom/straight/turn course.
	ObstacleCourseMap = world.ObstacleCourseMap
	// EmptyRoomMap builds a walled empty room.
	EmptyRoomMap = world.EmptyRoomMap
)

// DeadZoneLink builds a short-range WAP link (good to 3 m, faded out by
// 8 m) for missions that deliberately drive out of coverage; assign its
// address to MissionConfig.LinkCfg.
func DeadZoneLink(wap geom.Vec2) netsim.LinkConfig {
	link := netsim.DefaultEdgeLink(wap)
	link.GoodRange = 3
	link.FadeRange = 8
	return link
}

// ParseFaultSpec parses a compact fault-schedule spec such as
// "wap:10-20;server:30-45;burst:50-52:0.9" into a FaultConfig (kinds:
// wap, server, burst, corrupt, partup, partdown; times in seconds,
// optional third field is a probability).
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

// LinkTrace is a recorded wireless-link condition trace (bandwidth,
// latency, loss over time) replayed in place of the analytic distance
// model; assign one to MissionConfig.LinkTrace.
type LinkTrace = netsim.LinkTrace

// Trace replay helpers.
var (
	// BuiltinTraceNames lists the committed link traces ("office-roam",
	// "garage-deepfade", "cafe-congestion", ...).
	BuiltinTraceNames = netsim.BuiltinTraceNames
	// BuiltinTrace returns a committed link trace by name.
	BuiltinTrace = netsim.BuiltinTrace
	// ParseLinkTrace reads a versioned .lgvtrace file.
	ParseLinkTrace = netsim.ParseLinkTrace
)

// Pose builds a robot pose (x, y in meters, theta in radians).
func Pose(x, y, theta float64) geom.Pose { return geom.P(x, y, theta) }

// Vec2 is a world point (meters).
type Vec2 = geom.Vec2

// Point builds a world point.
func Point(x, y float64) geom.Vec2 { return geom.V(x, y) }

// ParseMap parses an ASCII map ('#' occupied, '.' free, '?' unknown; the
// first text row is the top of the map).
func ParseMap(text string, resolution float64) (*Map, error) {
	return grid.ParseText(text, resolution, geom.V(0, 0))
}

// Experiment is one regenerable table or figure from the paper.
type Experiment = bench.Experiment

// Experiments returns every paper experiment in presentation order.
func Experiments() []Experiment { return bench.All() }

// RunExperiment regenerates one experiment by ID ("table1", "fig9", …),
// writing its report to w. Quick mode shrinks workloads for tests.
func RunExperiment(id string, w io.Writer, quick bool) error {
	e, ok := bench.ByID(id)
	if !ok {
		return errUnknownExperiment(id)
	}
	return e.Run(w, quick)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "lgvoffload: unknown experiment " + string(e)
}
