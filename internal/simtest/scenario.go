// Package simtest is the deterministic scenario-matrix harness: a
// seeded generator that samples full missions across the cross-product
// of {worlds, fault schedules, offloading goals, fleet sizes, thread
// counts, link profiles}, runs the engine headlessly, and checks a
// library of paper-derived invariants on every run (see invariants.go).
// Violations are shrunk to minimal scenarios and stored as JSON repros
// under testdata/repros/, which tier-1 tests replay as a regression
// corpus.
package simtest

import (
	"fmt"
	"math"
	"math/rand"

	"lgvoffload/internal/core"
	"lgvoffload/internal/faults"
	"lgvoffload/internal/fleet"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/pool"
	"lgvoffload/internal/world"
)

// WorldSpec selects and parameterizes a mission environment. Generated
// worlds (empty/clutter) are rebuilt deterministically from the spec, so
// a Scenario JSON is fully self-contained.
type WorldSpec struct {
	// Kind is "lab", "course", "empty" or "clutter".
	Kind string `json:"kind"`
	// W, H, Res size generated worlds in meters (ignored for lab/course).
	W   float64 `json:"w,omitempty"`
	H   float64 `json:"h,omitempty"`
	Res float64 `json:"res,omitempty"`
	// Obstacles and Seed drive RandomClutterMap for kind "clutter".
	Obstacles int   `json:"obstacles,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
}

// Limits on generated worlds. Generate samples at most 24,000 cells and
// 8 obstacles, and the lab and course maps hold 28,800 and 36,000
// cells; the limits sit far above all of them and keep a spec from
// sizing a map no mission could allocate.
const (
	maxWorldCells     = 1 << 20
	maxWorldObstacles = 1 << 10
)

// Build constructs the ground-truth map for the spec. A generated world
// needs a finite, positive size and resolution, at least one cell per
// axis, at most maxWorldCells cells and, for clutter, between 0 and
// maxWorldObstacles obstacles.
func (w WorldSpec) Build() (*grid.Map, error) {
	switch w.Kind {
	case "lab":
		return world.LabMap(), nil
	case "course":
		return world.ObstacleCourseMap(), nil
	case "empty", "clutter":
	default:
		return nil, fmt.Errorf("simtest: unknown world kind %q", w.Kind)
	}
	res := w.Res
	if res == 0 {
		res = 0.05
	}
	if !(w.W > 0 && w.H > 0 && res > 0) || math.IsInf(w.W, 0) || math.IsInf(w.H, 0) || math.IsInf(res, 0) {
		return nil, fmt.Errorf("simtest: world %gx%g m at %g m needs finite, positive sizes", w.W, w.H, res)
	}
	if cols, rows := w.W/res, w.H/res; !(cols >= 1 && rows >= 1 && cols*rows <= maxWorldCells) {
		return nil, fmt.Errorf("simtest: world %gx%g m at %g m is %gx%g cells; want at least 1 per axis and at most %d in all", w.W, w.H, res, cols, rows, maxWorldCells)
	}
	if w.Kind == "empty" {
		return world.EmptyRoomMap(w.W, w.H, res), nil
	}
	if w.Obstacles < 0 || w.Obstacles > maxWorldObstacles {
		return nil, fmt.Errorf("simtest: %d clutter obstacles, want 0 to %d", w.Obstacles, maxWorldObstacles)
	}
	rng := rand.New(rand.NewSource(w.Seed))
	return world.RandomClutterMap(w.W, w.H, res, w.Obstacles, rng), nil
}

// DeploySpec is the JSON-stable form of core.Deployment.
type DeploySpec struct {
	// Mode is "local", "edge", "cloud" or "adaptive".
	Mode string `json:"mode"`
	// Remote is "edge" or "cloud" for adaptive mode.
	Remote  string `json:"remote,omitempty"`
	Threads int    `json:"threads"`
	// Goal is "ec" or "mct" for adaptive mode.
	Goal string `json:"goal,omitempty"`
}

// LinkSpec selects a wireless environment.
type LinkSpec struct {
	// Profile is "good" (high bandwidth everywhere), "fade" (the default
	// edge/cloud 6 m/12 m falloff), "deadzone" (good to 3 m only),
	// "interference" (fade plus a periodic signal collapse) or "trace"
	// (replay the builtin trace named by Trace).
	Profile string  `json:"profile"`
	WAPX    float64 `json:"wapx"`
	WAPY    float64 `json:"wapy"`
	// WAPs lists extra access-point positions; when non-empty the link
	// roams between them and the primary WAP with hysteresis handoff.
	WAPs [][2]float64 `json:"waps,omitempty"`
	// Trace names a netsim builtin trace for profile "trace".
	Trace string `json:"trace,omitempty"`
}

// Scenario is one self-contained mission sample: everything needed to
// rebuild a core.MissionConfig, serializable to JSON for the repro
// corpus. See Generate for how the matrix is sampled.
type Scenario struct {
	Seed     int64  `json:"mission_seed"`
	Workload string `json:"workload"` // "navigation", "exploration", "coverage"

	World      WorldSpec    `json:"world"`
	StartX     float64      `json:"start_x"`
	StartY     float64      `json:"start_y"`
	StartTheta float64      `json:"start_theta"`
	GoalX      float64      `json:"goal_x"`
	GoalY      float64      `json:"goal_y"`
	Waypoints  [][2]float64 `json:"waypoints,omitempty"`

	Deploy DeploySpec `json:"deploy"`
	// Fleet is the number of robots sharing the remote server
	// (fleet.ShareServer); 1 = dedicated server.
	Fleet int      `json:"fleet"`
	Link  LinkSpec `json:"link"`
	// Faults is an internal/faults spec string ("" = no faults).
	Faults string `json:"faults,omitempty"`
	// Adversarial marks a scenario whose fault schedule came from the
	// adversarial hill-climber (see adversary.go / cmd/advhunt); the
	// adversarial-replay invariant only fires on these.
	Adversarial bool `json:"adversarial,omitempty"`

	MaxSimTime     float64 `json:"max_sim_time"`
	VCeil          float64 `json:"v_ceil,omitempty"`
	TrackerSamples int     `json:"tracker_samples,omitempty"`
	SlamParticles  int     `json:"slam_particles,omitempty"`

	// KernelThreads/KernelPartition override the *execution* threading
	// of the parallel kernels without touching the modeled Deployment
	// (see core.MissionConfig.KernelThreads). Partition is "" (default
	// block), "block" or "interleaved".
	KernelThreads   int    `json:"kernel_threads,omitempty"`
	KernelPartition string `json:"kernel_partition,omitempty"`
}

// Label returns a short human-readable tag for logs.
func (s Scenario) Label() string {
	f := s.Faults
	if f == "" {
		f = "none"
	}
	return fmt.Sprintf("seed=%d %s/%s deploy=%s/%s fleet=%d link=%s faults=%s",
		s.Seed, s.Workload, s.World.Kind, s.Deploy.Mode, s.Deploy.Goal,
		s.Fleet, s.Link.Profile, f)
}

// NoFaults reports whether the scenario injects no disturbances.
func (s Scenario) NoFaults() bool { return s.Faults == "" }

// HighBandwidth reports whether the link profile guarantees full signal
// over the whole map (the "good" profile).
func (s Scenario) HighBandwidth() bool { return s.Link.Profile == "good" }

func (s Scenario) workload() (core.Workload, error) {
	switch s.Workload {
	case "navigation":
		return core.NavigationWithMap, nil
	case "exploration":
		return core.ExplorationNoMap, nil
	case "coverage":
		return core.CoverageWithMap, nil
	}
	return 0, fmt.Errorf("simtest: unknown workload %q", s.Workload)
}

func (s Scenario) deployment() (core.Deployment, error) {
	th := s.Deploy.Threads
	if th <= 0 {
		th = 1
	}
	switch s.Deploy.Mode {
	case "local":
		d := core.DeployLocal()
		d.Threads = th
		return d, nil
	case "edge":
		return core.DeployEdge(th), nil
	case "cloud":
		return core.DeployCloud(th), nil
	case "adaptive":
		remote := core.HostEdge
		if s.Deploy.Remote == "cloud" {
			remote = core.HostCloud
		}
		goal := core.GoalMCT
		if s.Deploy.Goal == "ec" {
			goal = core.GoalEC
		}
		return core.DeployAdaptive(remote, th, goal), nil
	}
	return core.Deployment{}, fmt.Errorf("simtest: unknown deploy mode %q", s.Deploy.Mode)
}

// linkConfig builds the netsim.LinkConfig for the scenario's profile, or
// nil for "fade" (the engine default for the chosen remote host).
func (s Scenario) linkConfig() (*netsim.LinkConfig, error) {
	wap := geom.V(s.Link.WAPX, s.Link.WAPY)
	base := netsim.DefaultEdgeLink(wap)
	if s.Deploy.Remote == "cloud" || s.Deploy.Mode == "cloud" {
		base = netsim.DefaultCloudLink(wap)
	}
	switch s.Link.Profile {
	case "fade", "":
		return nil, nil // engine default, WAP set via MissionConfig.WAP
	case "good":
		// Full signal over any map we generate: no kernel-buffer
		// blocking, no fade-induced loss.
		base.GoodRange = 1000
		base.FadeRange = 2000
		return &base, nil
	case "deadzone":
		// Mirrors the facade's DeadZoneLink: coverage collapses 3 m
		// from the WAP, so most missions drive out of range.
		base.GoodRange = 3
		base.FadeRange = 8
		return &base, nil
	case "interference":
		base.InterferencePeriod = 8
		base.InterferenceDuty = 0.25
		base.InterferenceFloor = 0.05
		return &base, nil
	case "trace":
		// The trace itself attaches via MissionConfig.LinkTrace (see
		// Mission); the base config supplies buffer/latency parameters.
		return &base, nil
	}
	return nil, fmt.Errorf("simtest: unknown link profile %q", s.Link.Profile)
}

func (s Scenario) partition() (pool.Partition, error) {
	switch s.KernelPartition {
	case "", "block":
		return pool.Block, nil
	case "interleaved":
		return pool.Interleaved, nil
	}
	return 0, fmt.Errorf("simtest: unknown kernel partition %q", s.KernelPartition)
}

// Mission converts the scenario into a runnable core.MissionConfig.
// Observability hooks (Tracer, CmdTap) are attached by RunScenario.
func (s Scenario) Mission() (core.MissionConfig, error) {
	var cfg core.MissionConfig
	wl, err := s.workload()
	if err != nil {
		return cfg, err
	}
	dep, err := s.deployment()
	if err != nil {
		return cfg, err
	}
	m, err := s.World.Build()
	if err != nil {
		return cfg, err
	}
	link, err := s.linkConfig()
	if err != nil {
		return cfg, err
	}
	part, err := s.partition()
	if err != nil {
		return cfg, err
	}
	cfg = core.MissionConfig{
		Workload:        wl,
		Map:             m,
		Start:           geom.P(s.StartX, s.StartY, s.StartTheta),
		Goal:            geom.V(s.GoalX, s.GoalY),
		Deployment:      dep,
		Seed:            s.Seed,
		WAP:             geom.V(s.Link.WAPX, s.Link.WAPY),
		LinkCfg:         link,
		MaxSimTime:      s.MaxSimTime,
		VCeil:           s.VCeil,
		TrackerSamples:  s.TrackerSamples,
		SlamParticles:   s.SlamParticles,
		KernelThreads:   s.KernelThreads,
		KernelPartition: part,
	}
	for _, wp := range s.Waypoints {
		cfg.Waypoints = append(cfg.Waypoints, geom.V(wp[0], wp[1]))
	}
	for _, ap := range s.Link.WAPs {
		cfg.WAPs = append(cfg.WAPs, geom.V(ap[0], ap[1]))
	}
	if s.Link.Profile == "trace" {
		tr, err := netsim.BuiltinTrace(s.Link.Trace)
		if err != nil {
			return cfg, fmt.Errorf("simtest: %w", err)
		}
		cfg.LinkTrace = tr
	}
	if s.Faults != "" {
		fc, err := faults.ParseSpec(s.Faults)
		if err != nil {
			return cfg, fmt.Errorf("simtest: bad fault spec: %w", err)
		}
		cfg.Faults = &fc
	}
	if s.Fleet > 1 {
		if cfg, err = fleet.Mission(cfg, s.Fleet); err != nil {
			return cfg, fmt.Errorf("simtest: fleet=%d requires a remote deployment", s.Fleet)
		}
	}
	return cfg, nil
}
