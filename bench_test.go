package lgvoffload

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus the ablation benches DESIGN.md calls out. Kernel benches measure
// real wall time of the real implementations (parallel scan matching,
// parallel trajectory scoring); experiment benches run the quick-mode
// harness end to end. Regenerating the paper-scale reports is
// cmd/reproduce's job — these benches keep the pipelines honest and
// allocation-aware.

import (
	"io"
	"math/rand"
	"testing"

	"lgvoffload/internal/core"
	"lgvoffload/internal/costmap"
	"lgvoffload/internal/energy"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/slam"
	"lgvoffload/internal/timing"
	"lgvoffload/internal/trace"
	"lgvoffload/internal/tracker"
	"lgvoffload/internal/world"
)

// --- Table I ---------------------------------------------------------------

func BenchmarkTable1PowerModel(b *testing.B) {
	m := energy.Turtlebot3Model()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.ComputePower(5.6e9)
		_ = m.TransmitEnergy(2940)
	}
}

// --- Table II ---------------------------------------------------------------

func BenchmarkTable2CycleBreakdown(b *testing.B) {
	cfg := MissionConfig{
		Workload:   NavigationWithMap,
		Map:        EmptyRoomMap(6, 4, 0.05),
		Start:      Pose(0.8, 2, 0),
		Goal:       Point(5.2, 2),
		WAP:        Point(3, 2),
		Deployment: DeployEdge(8),
		Seed:       3,
		MaxSimTime: 300,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil || !res.Success {
			b.Fatalf("mission failed: %v %v", err, res)
		}
		_ = res.Cycles.Breakdown()
	}
}

// --- Fig. 9: the real parallel gmapping kernel ------------------------------

func benchSLAM(b *testing.B, particles, threads int) {
	ds := trace.LabDataset(11, 12)
	cfg := slam.DefaultConfig(ds.Map.Width, ds.Map.Height, ds.Map.Resolution, ds.Map.Origin)
	cfg.NumParticles = particles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := slam.New(cfg, rand.New(rand.NewSource(7)))
		s.SetInitialPose(ds.Start)
		b.StartTimer()
		for _, e := range ds.Entries {
			if threads > 1 {
				s.UpdateParallel(e.OdomDelta, e.Scan, threads, slam.Block)
			} else {
				s.Update(e.OdomDelta, e.Scan)
			}
		}
	}
}

func BenchmarkFig9SLAM_P10_T1(b *testing.B)  { benchSLAM(b, 10, 1) }
func BenchmarkFig9SLAM_P10_T4(b *testing.B)  { benchSLAM(b, 10, 4) }
func BenchmarkFig9SLAM_P30_T1(b *testing.B)  { benchSLAM(b, 30, 1) }
func BenchmarkFig9SLAM_P30_T4(b *testing.B)  { benchSLAM(b, 30, 4) }
func BenchmarkFig9SLAM_P30_T8(b *testing.B)  { benchSLAM(b, 30, 8) }
func BenchmarkFig9SLAM_P100_T8(b *testing.B) { benchSLAM(b, 100, 8) }

// BenchmarkFig9PlatformModel sweeps the calibrated platform model (what
// cmd/reproduce prints) — pure arithmetic, no kernels.
func BenchmarkFig9PlatformModel(b *testing.B) {
	w := hostsim.Work{SerialCycles: 0.1e9, ParallelCycles: 3.2e9}
	plats := []hostsim.Platform{hostsim.RaspberryPi(), hostsim.EdgeGateway(), hostsim.CloudServer()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range plats {
			for _, th := range []int{1, 2, 4, 8, 12, 24} {
				_ = p.ExecTime(w, th)
			}
		}
	}
}

// --- Fig. 10: the real parallel trajectory-scoring kernel -------------------

func benchVDP(b *testing.B, samples, threads int) {
	m := world.LabMap()
	ccfg := costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	cm := costmap.New(ccfg)
	cm.SetStatic(m)
	tcfg := tracker.DefaultConfig()
	tcfg.WSamples = 40
	tcfg.VSamples = samples / 40
	if tcfg.VSamples < 1 {
		tcfg.VSamples = 1
	}
	tk := tracker.New(tcfg)
	in := tracker.Input{
		Pose: geom.P(1, 1, 0), Vel: geom.Twist{V: 0.1},
		Path:    []geom.Vec2{geom.V(1, 1), geom.V(5, 1)},
		Costmap: cm,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if threads > 1 {
			_, err = tk.PlanParallel(in, threads, tracker.Block)
		} else {
			_, err = tk.Plan(in)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10VDP_S200_T1(b *testing.B)  { benchVDP(b, 200, 1) }
func BenchmarkFig10VDP_S1000_T1(b *testing.B) { benchVDP(b, 1000, 1) }
func BenchmarkFig10VDP_S1000_T4(b *testing.B) { benchVDP(b, 1000, 4) }
func BenchmarkFig10VDP_S2000_T8(b *testing.B) { benchVDP(b, 2000, 8) }

// --- Fig. 11: the wireless walk ---------------------------------------------

func BenchmarkFig11NetworkWalk(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		link := netsim.NewLink(netsim.DefaultEdgeLink(geom.V(0, 0)), rand.New(rand.NewSource(3)))
		bw := netsim.NewBandwidthMeter()
		ctl := core.NewNetController(core.NetThreshold)
		for t := 0.2; t < 90; t += 0.2 {
			x := 0.35 * t
			if t > 45 {
				x = 0.35 * (90 - t)
			}
			link.SetRobotPos(geom.V(x, 0))
			if arrive, dropped := link.Send(t, 64); !dropped {
				bw.Observe(arrive)
			}
			ctl.Update(bw.Rate(t), link.Direction())
		}
	}
}

// --- Fig. 12 / Fig. 13: end-to-end missions ---------------------------------

func benchMission(b *testing.B, d Deployment) {
	cfg := MissionConfig{
		Workload:   NavigationWithMap,
		Map:        EmptyRoomMap(6, 4, 0.05),
		Start:      Pose(0.8, 2, 0),
		Goal:       Point(5.2, 2),
		WAP:        Point(3, 2),
		Deployment: d,
		Seed:       3,
		MaxSimTime: 300,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil || !res.Success {
			b.Fatalf("mission failed: %v", err)
		}
	}
}

func BenchmarkFig12MaxVelocityLocal(b *testing.B) { benchMission(b, DeployLocal()) }
func BenchmarkFig12MaxVelocityEdge8(b *testing.B) { benchMission(b, DeployEdge(8)) }

func BenchmarkFig13EndToEndCloud12(b *testing.B) { benchMission(b, DeployCloud(12)) }
func BenchmarkFig13EndToEndAdaptive(b *testing.B) {
	benchMission(b, DeployAdaptive(HostEdge, 8, GoalMCT))
}

// --- Fig. 14: obstacle-course run -------------------------------------------

func BenchmarkFig14ObstacleCourse(b *testing.B) {
	cfg := MissionConfig{
		Workload:    NavigationWithMap,
		Map:         EmptyRoomMap(8, 4, 0.05),
		Start:       Pose(0.8, 2, 0),
		Goal:        Point(7, 2),
		WAP:         Point(4, 2),
		Deployment:  DeployEdge(8),
		Seed:        21,
		MaxSimTime:  300,
		VCeil:       0.6,
		RecordTrace: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil || !res.Success {
			b.Fatalf("mission failed: %v", err)
		}
	}
}

// --- Telemetry overhead -------------------------------------------------------

// The telemetry pair bounds the observer effect: the disabled run is the
// allocation baseline (nil *Telemetry, every hook a no-op), the enabled
// run pays for the ring and registry. Compare allocs/op between the two.
func BenchmarkMissionTelemetryOff(b *testing.B) { benchMissionTelemetry(b, false) }
func BenchmarkMissionTelemetryOn(b *testing.B)  { benchMissionTelemetry(b, true) }

func benchMissionTelemetry(b *testing.B, enabled bool) {
	cfg := MissionConfig{
		Workload:   NavigationWithMap,
		Map:        EmptyRoomMap(6, 4, 0.05),
		Start:      Pose(0.8, 2, 0),
		Goal:       Point(5.2, 2),
		WAP:        Point(3, 2),
		Deployment: DeployAdaptive(HostEdge, 8, GoalMCT),
		Seed:       3,
		MaxSimTime: 300,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if enabled {
			cfg.Telemetry = NewTelemetry(1 << 14)
		}
		res, err := Run(cfg)
		if err != nil || !res.Success {
			b.Fatalf("mission failed: %v", err)
		}
	}
}

// --- Tracing overhead ---------------------------------------------------------

// The tracing pair mirrors the telemetry one: disabled (nil *Tracer,
// every instrumented call a no-op) vs enabled (span ring on). The unit
// proof that the disabled path allocates nothing per tick lives in
// internal/spans (TestDisabledZeroAlloc); this pair shows the
// whole-mission cost of both settings.
func BenchmarkMissionTracingOff(b *testing.B) { benchMissionTracing(b, false) }
func BenchmarkMissionTracingOn(b *testing.B)  { benchMissionTracing(b, true) }

func benchMissionTracing(b *testing.B, enabled bool) {
	cfg := MissionConfig{
		Workload:   NavigationWithMap,
		Map:        EmptyRoomMap(6, 4, 0.05),
		Start:      Pose(0.8, 2, 0),
		Goal:       Point(5.2, 2),
		WAP:        Point(3, 2),
		Deployment: DeployAdaptive(HostEdge, 8, GoalMCT),
		Seed:       3,
		MaxSimTime: 300,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if enabled {
			cfg.Tracer = NewTracer(1 << 16)
		}
		res, err := Run(cfg)
		if err != nil || !res.Success {
			b.Fatalf("mission failed: %v", err)
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

// Partitioning strategy for the parallel scan matcher: block (Fig. 6)
// vs interleaved. Results are identical; this measures the cost shape.
func BenchmarkAblationPartitionBlock(b *testing.B)       { benchSLAMPart(b, slam.Block) }
func BenchmarkAblationPartitionInterleaved(b *testing.B) { benchSLAMPart(b, slam.Interleaved) }

func benchSLAMPart(b *testing.B, part slam.Partition) {
	ds := trace.LabDataset(11, 10)
	cfg := slam.DefaultConfig(ds.Map.Width, ds.Map.Height, ds.Map.Resolution, ds.Map.Origin)
	cfg.NumParticles = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := slam.New(cfg, rand.New(rand.NewSource(7)))
		s.SetInitialPose(ds.Start)
		b.StartTimer()
		for _, e := range ds.Entries {
			s.UpdateParallel(e.OdomDelta, e.Scan, 4, part)
		}
	}
}

// The Eq. 1d / Eq. 2c coupling: sweep the velocity cap and evaluate the
// motor-energy vs mission-time trade analytically.
func BenchmarkAblationVelocityEnergy(b *testing.B) {
	spec := world.Turtlebot3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for tp := 0.01; tp < 1.0; tp += 0.01 {
			v := timing.MaxVelocity(tp, core.AMax, core.StopDist)
			_ = spec.TractionPower(v, 0) * (10 / v) // energy for a 10 m leg
		}
	}
}

// Keep the io import honest (ExperimentSmoke exercises the public API).
func BenchmarkExperimentTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment("table1", io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}
