package core

import (
	"fmt"
	"math"
	"math/rand"

	"lgvoffload/internal/amcl"
	"lgvoffload/internal/costmap"
	"lgvoffload/internal/coverage"
	"lgvoffload/internal/energy"
	"lgvoffload/internal/explore"
	"lgvoffload/internal/faults"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/msg"
	"lgvoffload/internal/muxer"
	"lgvoffload/internal/mw"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/planner"
	"lgvoffload/internal/pool"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/slam"
	"lgvoffload/internal/spans"
	"lgvoffload/internal/store"
	"lgvoffload/internal/timing"
	"lgvoffload/internal/tracker"
	"lgvoffload/internal/world"
)

// Workload selects the Fig. 2 pipeline variant.
type Workload int

const (
	// NavigationWithMap runs AMCL + costmap + planner + tracking + mux
	// against a known map.
	NavigationWithMap Workload = iota
	// ExplorationNoMap runs SLAM + costmap + planner + exploration +
	// tracking + mux in an unknown environment.
	ExplorationNoMap
	// CoverageWithMap runs the house-cleaning workload: AMCL + costmap +
	// boustrophedon coverage planning + tracking + mux on a known map.
	CoverageWithMap
)

func (w Workload) String() string {
	switch w {
	case ExplorationNoMap:
		return "exploration"
	case CoverageWithMap:
		return "coverage"
	default:
		return "navigation"
	}
}

// DeployMode selects how node placement is decided.
type DeployMode int

const (
	// StaticLocal runs everything on the LGV (the no-offloading baseline).
	StaticLocal DeployMode = iota
	// StaticRemote pins the ECNs to the remote host for the whole
	// mission, like existing platforms' static offloading.
	StaticRemote
	// Adaptive applies Algorithms 1 and 2 at runtime.
	Adaptive
)

// Deployment describes one offloading configuration of Figures 12/13.
type Deployment struct {
	Name    string
	Mode    DeployMode
	Remote  mw.HostID // edge or cloud (ignored for StaticLocal)
	Threads int       // Fig. 5/6 acceleration threads (1 = no parallel opt)
	Goal    Goal      // Algorithm 1 goal for Adaptive mode
}

// The five deployments of Fig. 12/13 plus the adaptive system.
func DeployLocal() Deployment { return Deployment{Name: "local", Mode: StaticLocal, Threads: 1} }
func DeployEdge(threads int) Deployment {
	name := "edge"
	if threads > 1 {
		name = fmt.Sprintf("edge+%dT", threads)
	}
	return Deployment{Name: name, Mode: StaticRemote, Remote: HostEdge, Threads: threads}
}
func DeployCloud(threads int) Deployment {
	name := "cloud"
	if threads > 1 {
		name = fmt.Sprintf("cloud+%dT", threads)
	}
	return Deployment{Name: name, Mode: StaticRemote, Remote: HostCloud, Threads: threads}
}
func DeployAdaptive(remote mw.HostID, threads int, goal Goal) Deployment {
	return Deployment{Name: fmt.Sprintf("adaptive-%s(%s)", goal, remote),
		Mode: Adaptive, Remote: remote, Threads: threads, Goal: goal}
}

// MissionConfig fully describes one mission run.
type MissionConfig struct {
	Workload Workload
	Map      *grid.Map // ground-truth world
	Start    geom.Pose
	Goal     geom.Vec2 // navigation target (ignored for exploration)
	// Waypoints, when non-empty, turns navigation into a patrol: the
	// robot visits each waypoint in order and Goal is appended as the
	// final stop (a delivery round rather than a single drop-off).
	Waypoints  []geom.Vec2
	Deployment Deployment
	Seed       int64

	// Wireless environment. WAP defaults to the start position.
	WAP     geom.Vec2
	LinkCfg *netsim.LinkConfig // nil = default for the remote host

	// WAPs lists extra access points beyond WAP; when non-empty the link
	// roams to the strongest AP with hysteresis (netsim roam.go) and
	// Algorithm 2's signal-direction input becomes multi-modal. Extra
	// APs inherit the link's GoodRange/FadeRange.
	WAPs []geom.Vec2

	// LinkTrace, when non-nil, replays recorded bandwidth/latency/loss
	// samples in place of the analytic distance-fade link model. Fault
	// windows and handoff dips compose on top of the replayed signal.
	LinkTrace *netsim.LinkTrace

	// Platforms overrides the default compute platforms (nil = the
	// paper's Pi/edge/cloud testbed). Fleet experiments use this to model
	// a server whose per-robot share of cores shrinks with fleet size.
	Platforms map[mw.HostID]hostsim.Platform

	// LocalFreqGHz scales the LGV's CPU clock (0 = stock 1.4 GHz). The
	// paper's Eq. 1c models computation power as k·L·f², so underclocking
	// trades completion time for computation energy — the DVFS ablation
	// quantifies how little that buys compared to offloading.
	LocalFreqGHz float64

	// Kernel sizes.
	TrackerSamples int // trajectories per tracking tick (default 1000)
	SlamParticles  int // SLAM particle count (default 30)

	// MaxSimTime is the mission time limit, s (default DefaultMaxSimTime).
	MaxSimTime float64

	// VCeil is the hardware/safety velocity ceiling on Eq. 2c's cap, m/s
	// (default 1.0). Eq. 2c's other inputs are the constants AMax and
	// StopDist.
	VCeil float64

	// Faults, when non-nil and non-empty, attaches a deterministic
	// fault-injection schedule to the wireless link (see internal/faults).
	Faults *faults.Config

	// ShedParallelism enables the §VIII-E adaptivity controller: when the
	// real velocity persistently falls short of the Eq. 2c cap (obstacle
	// phases, Fig. 14), the engine halves the paid acceleration threads —
	// the robot cannot exploit them — and restores them on straights.
	ShedParallelism bool

	// KernelThreads, when > 0, overrides the *execution* thread count of
	// the pooled SLAM/tracking kernels without touching the modeled
	// (billed) thread count from Deployment.Threads. KernelPartition
	// selects the pool partition scheme. Work assignment in internal/pool
	// is positional, so any KernelThreads × KernelPartition combination
	// must yield a byte-identical mission Result — the determinism
	// invariant internal/simtest sweeps across {1,2,4,8} × {Block,
	// Interleaved}.
	KernelThreads   int
	KernelPartition pool.Partition

	// CmdTap, when non-nil, observes every motor command the multiplexer
	// emits: the virtual time, the selected twist, and whether the
	// command-staleness watchdog holds a safety stop at that instant.
	// The scenario harness uses it to prove the watchdog never lets a
	// nonzero velocity through while a stall episode is open.
	CmdTap func(now float64, cmd geom.Twist, stalled bool)

	RecordTrace bool

	// Telemetry, when non-nil, receives the full mission event timeline
	// and metrics (see internal/obs). Nil — the default — keeps every
	// instrumented hot path allocation-free.
	Telemetry *obs.Telemetry

	// Tracer, when non-nil, records every control tick as a causal span
	// tree (see internal/spans): compute/queue/transport segments of the
	// VDP makespan, plus watchdog/failover/fault episodes. Nil — the
	// default — keeps the tick hot path allocation-free.
	Tracer *spans.Tracer

	// Store, when non-nil, persists the mission into an embedded mission
	// store (see internal/store): per-tick telemetry snapshots, the
	// adaptation decision log, fault windows and critical-path rows.
	// Obtain one with Store.Begin; the engine only appends records — the
	// caller closes the mission with Recorder.Finish(StoreSummary(res))
	// after Run returns. Nil — the default — records nothing and keeps
	// the tick hot path allocation-free.
	Store *store.Recorder

	// FlightRec, when non-nil, continuously records per-tick flight
	// frames into a bounded ring and freezes a JSONL bundle of the last
	// N seconds on watchdog stops, failovers, SLO breaches and panics
	// (see obs.FlightRecorder). Nil — the default — costs nothing.
	FlightRec *obs.FlightRecorder

	// SLO, when non-nil, judges every tick against declarative
	// service-level rules (see obs.SLOEngine). Breaches emit timeline
	// events, count into MSLOBreaches and trigger FlightRec dumps. Nil —
	// the default — costs nothing.
	SLO *obs.SLOEngine
}

// Fixed mission parameters. The paper runs every mission on one testbed
// with these values, so they are constants, not MissionConfig fields.
// They are typed: WatchdogDeadline's 6*ControlPeriod must fold to the
// bits the run-time float64 product gives (1.2000000000000002), where an
// untyped 0.2 would fold exactly and land one ulp lower.
const (
	// ControlPeriod is the VDP tick period, s (5 Hz). Algorithm 2's probe
	// heartbeat runs at the same rate.
	ControlPeriod float64 = 0.2
	// physicsDt is the world integration step, s.
	physicsDt float64 = 0.05
	// replanPeriod is the global replanning interval, s.
	replanPeriod float64 = 2.0
	// laserBeams is the number of beams per laser sweep.
	laserBeams int = 360

	// goalTolerance is how close the robot must come to a navigation goal
	// or waypoint to reach it, m.
	goalTolerance float64 = 0.25
	// exploreTarget is the fraction of free space exploration must
	// discover.
	exploreTarget float64 = 0.85

	// AMax is Eq. 2c's deceleration limit a_max, m/s².
	AMax float64 = 0.8
	// StopDist is Eq. 2c's required stopping distance d, m.
	StopDist float64 = 0.08

	// NetThreshold is Algorithm 2's bandwidth threshold, messages/s: 4
	// for the 5 Hz probe.
	NetThreshold float64 = 4

	// WatchdogDeadline is the base command-staleness deadline, s. It is
	// below the navigation source's mux timeout (≥ 1.5 s), so the safety
	// stop preempts a stale command instead of merely coinciding with
	// its expiry.
	WatchdogDeadline float64 = max(1.2, 6*ControlPeriod)
	// FailoverMisses is the count of consecutive missed remote ticks
	// that pulls the nodes home: 15 ticks = 3 s at the 5 Hz
	// ControlPeriod, long enough that a periodic interference burst (a
	// couple of seconds) does not flap placement, short enough that a
	// real outage fails over before the mission times out.
	FailoverMisses int = 15
	// FailoverHoldSec is the post-failover hold-down, s: remote execution
	// stays vetoed this long after a failover.
	FailoverHoldSec float64 = 20
	// HandoffFreezeSec freezes Algorithm 2 decisions this long after a
	// roaming handoff, s, so the re-association dip and the direction-
	// estimate reset cannot flap placement. Longer than the re-association
	// dip (0.5 s default) plus a few control ticks for the direction
	// estimate to re-converge, but well under the 3 s failover trip so a
	// dead post-handoff link still fails over on schedule. It is not
	// netsim.DefaultHandoffHoldSec, the minimum time between two handoffs.
	HandoffFreezeSec float64 = 2

	// DefaultMaxSimTime is the mission time limit, s, when
	// MissionConfig.MaxSimTime is zero.
	DefaultMaxSimTime float64 = 240
)

func (c *MissionConfig) fillDefaults() {
	if c.TrackerSamples == 0 {
		c.TrackerSamples = 1000
	}
	if c.SlamParticles == 0 {
		c.SlamParticles = 30
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = DefaultMaxSimTime
	}
	if c.VCeil == 0 {
		c.VCeil = 1.0
	}
	if (c.WAP == geom.Vec2{}) {
		c.WAP = c.Start.Pos
	}
}

// TracePoint is one row of the mission time series (Figs. 11, 12, 14).
type TracePoint struct {
	T          float64
	X, Y       float64 // true robot position (ground truth, for plots)
	MaxVel     float64 // velocity cap from Eq. 2c
	RealVel    float64 // actual robot speed
	Bandwidth  float64 // Algorithm 2's r_t, messages/s
	TailLatSec float64 // p99 received-packet latency (misleading metric)
	Direction  float64 // Algorithm 2's d_t
	Signal     float64 // true link signal (ground truth, for plots)
	RemoteOn   bool    // whether remote execution is active
}

// Result summarizes a completed mission.
type Result struct {
	Config  MissionConfig
	Success bool
	Reason  string

	// Time (Eq. 2a) and motion.
	TotalTime   float64
	MovingTime  float64
	StandbyTime float64
	Distance    float64

	// Energy (Eq. 1a) per component and total.
	Energy      map[energy.Component]float64
	TotalEnergy float64

	// Workload cycles per node (Table II).
	Cycles *hostsim.CycleCounter

	// Net is the wireless link's full packet ledger: every offered
	// packet (pipeline messages AND Algorithm 2 probes) is delivered or
	// dropped, with each drop attributed to one cause.
	Net netsim.Stats

	// Network and adaptation.
	MsgsSent, MsgsDropped int
	// MsgsOverwritten counts velocity commands that reached the
	// multiplexer but were replaced by a fresher command before the motors
	// consumed them — pipeline work bought and thrown away.
	MsgsOverwritten int
	BytesUplinked   float64
	Switches        int
	// Graceful-degradation accounting.
	WatchdogStops  int // zero-velocity safety stops on stale commands
	Failovers      int // remote→local pulls forced by consecutive misses
	FaultsInjected int // disturbances injected by the fault schedule
	// Roaming accounting: handoff count and the virtual time of each
	// handoff (empty for single-WAP missions).
	Handoffs     int
	HandoffTimes []float64
	// Decisions is the adaptation decision log: one entry per placement
	// switch with the Algorithm 1/2 inputs behind it.
	Decisions []AdaptDecision

	AvgMaxVel float64
	Explored  float64 // exploration progress vs ground truth
	Covered   float64 // coverage-workload cleaning progress

	// Server resource accounting (§VIII-E): core-seconds *reserved* on the
	// remote host and how often the shedding controller retuned threads.
	CoreSeconds       float64
	ThreadAdjustments int

	Trace []TracePoint
}

// engine holds one running mission.
type engine struct {
	cfg MissionConfig

	w     *world.World
	laser *sensor.Laser
	odo   *sensor.Odometer

	link      *netsim.Link
	platforms map[mw.HostID]hostsim.Platform

	// Nodes.
	loc          *amcl.AMCL
	slm          *slam.SLAM
	cm           *costmap.Costmap
	gp           *planner.Planner
	tk           *tracker.Tracker
	mx           *muxer.Mux
	exCfg        explore.Config
	exGoal       geom.Vec2
	haveEx       bool
	exBlacklist  []geom.Vec2 // unreachable frontier goals
	goalSince    float64     // when the current exploration goal was set
	goalStartPos geom.Vec2   // robot position at that moment
	path         []geom.Vec2
	havePth      bool
	// SLAM update counts at which the costmap's static layer was last
	// loaded and exploration progress last computed: both read the SLAM
	// map, which changes only in an update.
	staticAt   int
	progressAt int
	progress   float64

	// Runtime state.
	placement Placement
	prof      *Profiler
	netctl    *NetController
	safety    *SafetyController
	schedule  *faults.Schedule // nil when no fault schedule is attached
	strategy  Strategy
	meter     *energy.Meter
	clock     *timing.Clock
	counter   *hostsim.CycleCounter
	vmax      float64
	pose      geom.Pose // current localization estimate
	prevOdom  geom.Pose

	nextControl float64
	nextReplan  float64
	pauseUntil  float64 // migration pause
	seq         uint64
	scanMsg     msg.Scan // reused per-tick scan message for size accounting

	slamBusyUntil    float64   // SLAM node busy processing a scan
	pendingSlamDelta geom.Pose // odometry accumulated while SLAM was busy
	lastCmWork       hostsim.Work
	lastTkWork       hostsim.Work

	pendingCmds []pendingCmd
	msgsSent    int
	msgsDropped int
	bytesUp     float64
	switches    int

	vmaxSum   float64
	vmaxCount int
	trace     []TracePoint

	// Telemetry (nil when disabled; every hook on it is nil-safe).
	tel          *obs.Telemetry
	tr           *spans.Tracer       // causal tracing (nil when disabled; nil-safe)
	rec          *store.Recorder     // mission store recorder (nil when disabled)
	fr           *obs.FlightRecorder // flight recorder (nil when disabled; nil-safe)
	slo          *obs.SLOEngine      // live SLO judge (nil when disabled; nil-safe)
	lastCompute  float64             // this tick's critical-path compute seconds
	lastQueue    float64             // this tick's critical-path queue seconds
	lastTranspt  float64             // this tick's critical-path transport seconds
	stallOpen    bool                // a watchdog outage episode is in progress
	stallStart   float64             // when the open episode began
	decisions    []AdaptDecision
	lastRemoteOK bool // previous Algorithm 2 verdict, for flip detection
	handoffSeen  int  // link handoffs already registered with safety

	route   []geom.Vec2 // remaining waypoints; route[0] is the active goal
	visited int         // waypoints reached so far

	// Coverage workload state.
	covPath    []geom.Vec2 // full boustrophedon sweep
	covIdx     int         // next unreached sweep waypoint
	covVisited []geom.Vec2 // sampled robot positions for the Covered metric
	covLastPos geom.Vec2

	// §VIII-E adaptivity state.
	threadsNow  int     // currently-paid acceleration threads
	velRatioEMA float64 // smoothed realVel / vmax
	nextAdjust  float64
	coreSeconds float64
	threadAdj   int
}

type pendingCmd struct {
	at  time64
	cmd geom.Twist
	// Trace context of the tick that produced the command, so the muxer
	// can account the slot wait on the right trace.
	trace  uint64
	parent uint64
}

type time64 = float64

// Run executes a mission to completion and returns its result. It is
// NewMission stepped to the end: the step-driven entry point and Run
// produce byte-identical results for the same config.
func Run(cfg MissionConfig) (*Result, error) {
	m, err := NewMission(cfg)
	if err != nil {
		return nil, err
	}
	if m.e.fr != nil {
		// Black-box semantics: if the mission loop panics, freeze the
		// ticks that led up to it before the panic propagates.
		defer func() {
			if r := recover(); r != nil {
				m.e.fr.ForceDump("panic", fmt.Sprint(r), m.e.w.Time)
				panic(r)
			}
		}()
	}
	for !m.Step() {
	}
	return m.Result(), nil
}

func newEngine(cfg MissionConfig) (*engine, error) {
	spec := world.Turtlebot3()
	spec.MaxV = cfg.VCeil
	w := world.New(cfg.Map, spec, cfg.Start)
	if world.FootprintCollides(cfg.Map, cfg.Start.Pos, spec.Radius) {
		return nil, fmt.Errorf("core: start pose %v collides", cfg.Start)
	}

	var linkCfg netsim.LinkConfig
	if cfg.LinkCfg != nil {
		linkCfg = *cfg.LinkCfg
	} else if cfg.Deployment.Remote == HostCloud {
		linkCfg = netsim.DefaultCloudLink(cfg.WAP)
	} else {
		linkCfg = netsim.DefaultEdgeLink(cfg.WAP)
	}
	for _, p := range cfg.WAPs {
		linkCfg.WAPs = append(linkCfg.WAPs, netsim.WAP{Pos: p})
	}
	if cfg.LinkTrace != nil {
		linkCfg.Trace = cfg.LinkTrace
	}
	link := netsim.NewLink(linkCfg, rand.New(rand.NewSource(cfg.Seed+1)))
	link.SetRobotPosAt(0, cfg.Start.Pos)

	e := &engine{
		cfg:       cfg,
		w:         w,
		laser:     sensor.NewLaser(laserBeams, 3.5, 0.01, rand.New(rand.NewSource(cfg.Seed+2))),
		odo:       sensor.NewOdometer(rand.New(rand.NewSource(cfg.Seed + 3))),
		link:      link,
		platforms: defaultPlatforms(cfg.Platforms),
		prof:      NewProfiler(),
		netctl:    NewNetController(NetThreshold),
		meter:     energy.NewMeter(meterModelFor(cfg.LocalFreqGHz)),
		clock:     timing.NewClock(),
		counter:   hostsim.NewCycleCounter(),
		pose:      cfg.Start,
		exCfg:     explore.DefaultConfig(),

		tel:          cfg.Telemetry,
		tr:           cfg.Tracer,
		rec:          cfg.Store,
		fr:           cfg.FlightRec,
		slo:          cfg.SLO,
		lastRemoteOK: true, // adaptive deployments start offloaded
	}
	link.SetSink(cfg.Telemetry)
	e.tel.SetPhase(cfg.Workload.String())
	// Bundles copy the events of their window from this mission's
	// timeline.
	cfg.FlightRec.Attach(cfg.Telemetry)
	e.safety = NewSafetyController(WatchdogDeadline, FailoverMisses)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		// The schedule gets its own rng stream so attaching faults never
		// perturbs the link/sensor randomness of the underlying mission.
		e.schedule = faults.New(*cfg.Faults, rand.New(rand.NewSource(cfg.Seed+6)))
		e.schedule.SetSink(cfg.Telemetry)
		link.SetImpairment(e.schedule)
	}
	applyLocalFreq(e.platforms, cfg.LocalFreqGHz)
	e.strategy = Strategy{
		Goal: cfg.Deployment.Goal, Remote: cfg.Deployment.Remote,
		Threads: cfg.Deployment.Threads,
	}

	// Costmap over the world geometry.
	ccfg := costmap.DefaultConfig(cfg.Map.Width, cfg.Map.Height, cfg.Map.Resolution, cfg.Map.Origin)
	e.cm = costmap.New(ccfg)

	// Workload nodes.
	tcfg := trackerConfigFor(cfg.TrackerSamples, cfg.VCeil)
	e.tk = tracker.New(tcfg)
	e.mx = muxer.New(muxSources(cfg))
	if cfg.Tracer != nil {
		e.mx.SetTracer(cfg.Tracer)
	}
	e.gp = planner.New(planner.AStar)

	nodes := []string{NodeCostmap, NodePlanner, NodeTracking, NodeMux}
	switch cfg.Workload {
	case NavigationWithMap, CoverageWithMap:
		e.loc = amcl.New(cfg.Map, amcl.DefaultConfig(), rand.New(rand.NewSource(cfg.Seed+4)))
		e.loc.Init(cfg.Start, 0.05, 0.02)
		e.cm.SetStatic(cfg.Map)
		nodes = append(nodes, NodeLocalization)
		if cfg.Workload == CoverageWithMap {
			nodes = append(nodes, NodeCoverage)
		}
	case ExplorationNoMap:
		scfg := slam.DefaultConfig(cfg.Map.Width, cfg.Map.Height, cfg.Map.Resolution, cfg.Map.Origin)
		scfg.NumParticles = cfg.SlamParticles
		e.slm = slam.New(scfg, rand.New(rand.NewSource(cfg.Seed+5)))
		e.slm.SetInitialPose(cfg.Start)
		e.gp.AllowUnknown = true
		nodes = append(nodes, NodeSLAM, NodeExploration)
	}

	// Initial placement per deployment.
	e.placement = NewPlacement(nodes)
	e.placement.Remote = cfg.Deployment.Remote
	e.placement.Threads = cfg.Deployment.Threads
	if cfg.Deployment.Mode == StaticRemote || cfg.Deployment.Mode == Adaptive {
		for _, n := range e.offloadSet() {
			e.placement.Host[n] = cfg.Deployment.Remote
		}
	}
	e.route = append(append([]geom.Vec2{}, cfg.Waypoints...), cfg.Goal)
	e.threadsNow = cfg.Deployment.Threads
	if e.threadsNow < 1 {
		e.threadsNow = 1
	}
	e.velRatioEMA = 1
	e.vmax = e.velocityCap(ControlPeriod)
	e.prevOdom = e.odo.Update(w.Robot.Pose)
	return e, nil
}

// meterModelFor returns the Eq. 1 energy model at the given LGV clock
// frequency (0 = stock). K is a chip constant; only f changes.
func meterModelFor(freqGHz float64) energy.Model {
	m := energy.Turtlebot3Model()
	if freqGHz > 0 {
		m.FreqGHz = freqGHz
	}
	return m
}

// defaultPlatforms merges overrides onto the paper's testbed platforms.
func defaultPlatforms(overrides map[mw.HostID]hostsim.Platform) map[mw.HostID]hostsim.Platform {
	p := map[mw.HostID]hostsim.Platform{
		HostLGV:   hostsim.RaspberryPi(),
		HostEdge:  hostsim.EdgeGateway(),
		HostCloud: hostsim.CloudServer(),
	}
	for h, plat := range overrides {
		p[h] = plat
	}
	return p
}

// applyLocalFreq rescales the LGV platform clock for the DVFS ablation.
func applyLocalFreq(platforms map[mw.HostID]hostsim.Platform, freqGHz float64) {
	if freqGHz <= 0 {
		return
	}
	pi := platforms[HostLGV]
	pi.FreqGHz = freqGHz
	platforms[HostLGV] = pi
}

// offloadSet returns the nodes the deployment moves to the server: the
// workload's ECNs (T1+T3 for EC; Adaptive MCT refines at runtime).
func (e *engine) offloadSet() []string {
	if e.cfg.Workload == ExplorationNoMap {
		return []string{NodeSLAM, NodeCostmap, NodeTracking}
	}
	return []string{NodeCostmap, NodeTracking}
}

// velocityCap is Eq. 2c at VDP makespan tp under the mission's velocity
// ceiling: Algorithm 1's "set velocity_OA(T_c)" step.
func (e *engine) velocityCap(tp float64) float64 {
	v := timing.MaxVelocity(tp, AMax, StopDist)
	if v > e.cfg.VCeil {
		v = e.cfg.VCeil
	}
	return v
}

func trackerConfigFor(samples int, vceil float64) tracker.Config {
	tcfg := tracker.DefaultConfig()
	tcfg.MaxV = vceil
	tcfg.WSamples = 40
	tcfg.VSamples = samples / 40
	if tcfg.VSamples < 1 {
		tcfg.VSamples = 1
	}
	return tcfg
}

func muxSources(cfg MissionConfig) []muxer.Source {
	srcs := muxer.DefaultSources()
	for i := range srcs {
		if srcs[i].Name == muxer.SourceNavigation {
			// Navigation commands stay valid longer than the worst-case
			// local VDP makespan, else a slow on-board pipeline would
			// stop-and-go between decisions. The tracker's 1.2 s rollout
			// horizon keeps a 1.5 s-old command safe.
			srcs[i].Timeout = math.Max(1.5, 3*ControlPeriod)
		}
	}
	return srcs
}

// coveredFraction evaluates the cleaning-progress metric over the
// sampled trajectory.
func (e *engine) coveredFraction() float64 {
	return coverage.Covered(e.cm, e.covVisited, 0.25)
}

func (e *engine) deliverPending(now float64) {
	kept := e.pendingCmds[:0]
	for _, pc := range e.pendingCmds {
		if pc.at <= now {
			e.mx.OfferTraced(muxer.SourceNavigation, pc.cmd, now, pc.trace, pc.parent)
			e.safety.CommandDelivered(now)
			if e.stallOpen {
				// Fresh VDP output ends the watchdog outage episode.
				e.tr.Add(e.tr.NewTrace(), 0, "watchdog_stall", string(HostLGV), "safety",
					spans.Mark, e.stallStart, now)
				e.stallOpen = false
			}
		} else {
			kept = append(kept, pc)
		}
	}
	e.pendingCmds = kept
}

func (e *engine) checkDone() (done bool, reason string, success bool) {
	switch e.cfg.Workload {
	case NavigationWithMap:
		if e.w.Robot.Pose.Pos.Dist(e.route[0]) <= goalTolerance {
			e.visited++ // fallthrough below handles waypoints
			if len(e.route) == 1 {
				if e.visited > 1 {
					return true, fmt.Sprintf("patrol complete (%d stops)", e.visited), true
				}
				return true, "goal reached", true
			}
			// Next waypoint: force an immediate replan.
			e.route = e.route[1:]
			e.havePth = false
			e.nextReplan = 0
		}
	case CoverageWithMap:
		if len(e.covPath) > 0 && e.covIdx >= len(e.covPath) {
			cov := e.coveredFraction()
			return true, fmt.Sprintf("sweep complete (%.0f%% covered)", cov*100), cov >= 0.75
		}
	case ExplorationNoMap:
		if n := e.slm.Updates(); n > 10 {
			if e.progressAt != n {
				e.progress, e.progressAt = explore.Progress(e.slm.Map(), e.cfg.Map), n
			}
			p := e.progress
			if p >= exploreTarget {
				return true, fmt.Sprintf("explored %.0f%%", p*100), true
			}
			if !e.haveEx && n > 20 {
				// No goal and nothing left to explore.
				if _, _, ok := explore.NextGoal(e.slm.Map(), e.w.Robot.Pose.Pos, e.exCfg); !ok {
					return true, fmt.Sprintf("frontiers exhausted at %.0f%%", p*100),
						p >= 0.5
				}
			}
		}
	}
	return false, "", false
}
