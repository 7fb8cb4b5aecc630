package core

import (
	"math"
	"math/rand"
	"testing"

	"lgvoffload/internal/energy"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/muxer"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/world"
)

// smallNav returns a quick navigation mission in a small room.
func smallNav(d Deployment, seed int64) MissionConfig {
	return MissionConfig{
		Workload:   NavigationWithMap,
		Map:        world.EmptyRoomMap(6, 4, 0.05),
		Start:      geom.P(0.8, 2, 0),
		Goal:       geom.V(5.2, 2),
		WAP:        geom.V(3, 2),
		Deployment: d,
		Seed:       seed,
		MaxSimTime: 300,
	}
}

func TestNavigationReachesGoalAllDeployments(t *testing.T) {
	for _, d := range []Deployment{
		DeployLocal(), DeployEdge(1), DeployEdge(8), DeployCloud(12),
		DeployAdaptive(HostEdge, 8, GoalMCT), DeployAdaptive(HostCloud, 12, GoalEC),
	} {
		t.Run(d.Name, func(t *testing.T) {
			res, err := Run(smallNav(d, 3))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Fatalf("mission failed: %s (t=%.1f)", res.Reason, res.TotalTime)
			}
			if res.Distance < 4.0 {
				t.Errorf("distance = %v", res.Distance)
			}
			if res.TotalEnergy <= 0 {
				t.Error("no energy accounted")
			}
		})
	}
}

func TestOffloadingBeatsLocalOnTimeAndEnergy(t *testing.T) {
	local, err := Run(smallNav(DeployLocal(), 3))
	if err != nil {
		t.Fatal(err)
	}
	edge, err := Run(smallNav(DeployEdge(8), 3))
	if err != nil {
		t.Fatal(err)
	}
	if !local.Success || !edge.Success {
		t.Fatalf("missions failed: %v / %v", local.Reason, edge.Reason)
	}
	// The paper's headline: offloading reduces both completion time and
	// total energy by integer factors.
	if edge.TotalTime*1.5 > local.TotalTime {
		t.Errorf("time: edge %v vs local %v — expected a clear win", edge.TotalTime, local.TotalTime)
	}
	if edge.TotalEnergy*1.2 > local.TotalEnergy {
		t.Errorf("energy: edge %v vs local %v", edge.TotalEnergy, local.TotalEnergy)
	}
	// Offloading raises the velocity cap (Fig. 12).
	if edge.AvgMaxVel < 1.5*local.AvgMaxVel {
		t.Errorf("vmax: edge %v vs local %v", edge.AvgMaxVel, local.AvgMaxVel)
	}
	// The embedded computer is where the energy win comes from; motor
	// energy does not improve (Fig. 13's observation).
	localComp := local.Energy[energy.Computer]
	edgeComp := edge.Energy[energy.Computer]
	if edgeComp*2 > localComp {
		t.Errorf("computer energy: edge %v vs local %v", edgeComp, localComp)
	}
	motorRatio := local.Energy[energy.Motor] / edge.Energy[energy.Motor]
	compRatio := localComp / edgeComp
	if motorRatio > compRatio {
		t.Errorf("motor energy improved more (%vx) than computer (%vx)", motorRatio, compRatio)
	}
}

func TestParallelizationHelpsRemote(t *testing.T) {
	one, err := Run(smallNav(DeployEdge(1), 3))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Run(smallNav(DeployEdge(8), 3))
	if err != nil {
		t.Fatal(err)
	}
	if eight.AvgMaxVel <= one.AvgMaxVel {
		t.Errorf("8 threads vmax %v should beat 1 thread %v", eight.AvgMaxVel, one.AvgMaxVel)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a, err := Run(smallNav(DeployEdge(8), 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallNav(DeployEdge(8), 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.TotalEnergy != b.TotalEnergy ||
		a.Distance != b.Distance || a.MsgsSent != b.MsgsSent {
		t.Errorf("same seed diverged: %+v vs %+v", a.TotalTime, b.TotalTime)
	}
	c, err := Run(smallNav(DeployEdge(8), 10))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime == c.TotalTime && a.Distance == c.Distance {
		t.Error("different seeds produced identical missions")
	}
}

func TestExplorationMissionSmall(t *testing.T) {
	res, err := Run(MissionConfig{
		Workload:      ExplorationNoMap,
		Map:           world.EmptyRoomMap(5, 4, 0.05),
		Start:         geom.P(1, 2, 0),
		WAP:           geom.V(2.5, 2),
		Deployment:    DeployEdge(8),
		Seed:          4,
		MaxSimTime:    300,
		SlamParticles: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("exploration failed: %s (explored %.2f)", res.Reason, res.Explored)
	}
	if res.Explored < 0.5 {
		t.Errorf("explored only %.2f", res.Explored)
	}
	// Table II shape: SLAM must classify as an Energy-Critical Node in
	// the without-map workload. (Its exact share depends on room size —
	// the full-scale assertion lives in the Fig. 13 bench.)
	slam := classOf(t, Classify(res.Cycles), NodeSLAM)
	if !slam.ECN || slam.Category != T1 {
		t.Errorf("slam classified %+v, want ECN/T1", slam)
	}
}

func TestTableIIShapeNavigation(t *testing.T) {
	res, err := Run(smallNav(DeployEdge(8), 3))
	if err != nil {
		t.Fatal(err)
	}
	share := func(n string) float64 {
		total := res.Cycles.Total().Total()
		return res.Cycles.Node(n).Total() / total
	}
	// Paper Table II (with map): PT 60%, CG 37%, others ≤ 2%.
	if s := share(NodeTracking); s < 0.40 || s > 0.80 {
		t.Errorf("tracking share = %.2f, want ≈ 0.60", s)
	}
	if s := share(NodeCostmap); s < 0.15 || s > 0.55 {
		t.Errorf("costmap share = %.2f, want ≈ 0.37", s)
	}
	if s := share(NodeLocalization); s > 0.08 {
		t.Errorf("localization share = %.2f, want ≈ 0.01", s)
	}
	if s := share(NodeMux); s > 0.01 {
		t.Errorf("mux share = %.2f, want ≈ 0", s)
	}
	// The derived classification must match Fig. 4.
	classes := Classify(res.Cycles)
	if got := classOf(t, classes, NodeTracking).Category; got != T3 {
		t.Errorf("tracking classified %v", got)
	}
	if got := classOf(t, classes, NodeLocalization).Category; got != T2 {
		t.Errorf("localization classified %v", got)
	}
}

func TestAdaptiveSwitchesWhenDrivingOutOfRange(t *testing.T) {
	// Put the WAP at the start and the goal far outside its fade range:
	// the adaptive controller must pull computation home en route.
	m := world.EmptyRoomMap(24, 3, 0.1)
	link := netsim.DefaultEdgeLink(geom.V(1, 1.5))
	link.GoodRange = 3
	link.FadeRange = 8
	res, err := Run(MissionConfig{
		Workload:    NavigationWithMap,
		Map:         m,
		Start:       geom.P(1, 1.5, 0),
		Goal:        geom.V(22, 1.5),
		WAP:         geom.V(1, 1.5),
		LinkCfg:     &link,
		Deployment:  DeployAdaptive(HostEdge, 8, GoalMCT),
		Seed:        5,
		MaxSimTime:  600,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("adaptive mission failed: %s", res.Reason)
	}
	if res.Switches == 0 {
		t.Error("adaptive controller never switched placement")
	}
	// The trace must show remote execution early and local execution late.
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	early := res.Trace[len(res.Trace)/10]
	late := res.Trace[len(res.Trace)-1]
	if !early.RemoteOn {
		t.Error("should start remote near the WAP")
	}
	if late.RemoteOn {
		t.Error("should end local in the dead zone")
	}
}

func TestStaticRemoteSuffersInDeadZone(t *testing.T) {
	// The same walk with a pinned remote placement: the robot loses most
	// commands in the dead zone, so the adaptive run must finish faster.
	m := world.EmptyRoomMap(24, 3, 0.1)
	link := netsim.DefaultEdgeLink(geom.V(1, 1.5))
	link.GoodRange = 3
	link.FadeRange = 8
	base := MissionConfig{
		Workload:   NavigationWithMap,
		Map:        m,
		Start:      geom.P(1, 1.5, 0),
		Goal:       geom.V(22, 1.5),
		WAP:        geom.V(1, 1.5),
		LinkCfg:    &link,
		Seed:       5,
		MaxSimTime: 600,
	}
	staticCfg := base
	staticCfg.Deployment = DeployEdge(8)
	static, err := Run(staticCfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptCfg := base
	adaptCfg.Deployment = DeployAdaptive(HostEdge, 8, GoalMCT)
	adapt, err := Run(adaptCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !adapt.Success {
		t.Fatalf("adaptive failed: %s", adapt.Reason)
	}
	if static.Success && static.TotalTime < adapt.TotalTime {
		t.Errorf("static remote (%.1fs) should not beat adaptive (%.1fs) across a dead zone",
			static.TotalTime, adapt.TotalTime)
	}
	if static.MsgsDropped == 0 {
		t.Error("static remote should drop messages in the dead zone")
	}
}

func TestMissionConfigValidation(t *testing.T) {
	if _, err := Run(MissionConfig{}); err == nil {
		t.Error("nil map must error")
	}
	bad := smallNav(DeployLocal(), 1)
	bad.Start = geom.P(0, 0, 0) // inside the wall
	if _, err := Run(bad); err == nil {
		t.Error("colliding start must error")
	}
}

// TestDerivedDefaultBits pins the bits of the values derived from
// ControlPeriod. WatchdogDeadline must be the run-time float64
// max(1.2, 6·0.2), which is 1.2000000000000002; an untyped ControlPeriod
// would fold 6·0.2 exactly and give 1.2, one ulp lower, and no mission
// digest notices.
func TestDerivedDefaultBits(t *testing.T) {
	var cfg MissionConfig
	cfg.fillDefaults()
	p := 0.2
	want := math.Max(1.2, 6*p)
	if want != 1.2000000000000002 {
		t.Fatalf("run-time max(1.2, 6*0.2) = %v, want 1.2000000000000002", want)
	}
	if got := WatchdogDeadline; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("WatchdogDeadline = %v (bits %#x), want %v (bits %#x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	found := false
	for _, src := range muxSources(cfg) {
		if src.Name == muxer.SourceNavigation {
			found = true
			if src.Timeout != 1.5 {
				t.Errorf("navigation mux timeout = %v, want 1.5", src.Timeout)
			}
		}
	}
	if !found {
		t.Error("muxSources has no navigation source")
	}
}

func TestEnergyConservation(t *testing.T) {
	res, err := Run(smallNav(DeployEdge(8), 3))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, j := range res.Energy {
		sum += j
	}
	if math.Abs(sum-res.TotalEnergy) > 1e-6 {
		t.Errorf("component sum %v != total %v", sum, res.TotalEnergy)
	}
	// Eq. 2a: T = Ts + Tm.
	if math.Abs(res.MovingTime+res.StandbyTime-res.TotalTime) > 1e-6 {
		t.Error("time decomposition violated")
	}
}

func TestTransmissionEnergyIsSmall(t *testing.T) {
	res, err := Run(smallNav(DeployCloud(12), 3))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's observation: wireless energy is negligible because the
	// biggest payload is the ~2.9 KB laser scan.
	if w := res.Energy[energy.Wireless]; w > 0.05*res.TotalEnergy {
		t.Errorf("wireless energy %v J is %.1f%% of total — should be tiny",
			w, 100*w/res.TotalEnergy)
	}
	if res.BytesUplinked == 0 {
		t.Error("no uplink traffic recorded")
	}
}

func TestAlg1MCTBeatsECUnderCongestedWAN(t *testing.T) {
	// The Algorithm 1 story end-to-end: a 300 ms WAN leg makes the cloud
	// VDP slower than local, so MCT must migrate T3 home and finish
	// faster than EC, which keeps ECNs remote for energy.
	lc := netsim.DefaultCloudLink(geom.V(3, 2))
	lc.WANLatSec = 0.300
	base := smallNav(Deployment{}, 42)
	base.LinkCfg = &lc

	run := func(g Goal) *Result {
		cfg := base
		cfg.Deployment = DeployAdaptive(HostCloud, 12, g)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("%v mission failed: %s", g, res.Reason)
		}
		return res
	}
	ec := run(GoalEC)
	mct := run(GoalMCT)
	if mct.Switches == 0 {
		t.Error("MCT should migrate T3 home under a congested WAN")
	}
	if ec.Switches != 0 {
		t.Errorf("EC should keep ECNs remote, switched %d times", ec.Switches)
	}
	if mct.TotalTime >= ec.TotalTime {
		t.Errorf("MCT (%.1fs) should beat EC (%.1fs) on completion time", mct.TotalTime, ec.TotalTime)
	}
}

func TestHeartbeatIndependentOfPipelinePacing(t *testing.T) {
	// Regression: a slow on-board pipeline (~3 Hz ticks) must not drag
	// the measured probe bandwidth below the Algorithm 2 threshold — the
	// probe runs at the fixed control period.
	res, err := Run(smallNav(DeployAdaptive(HostEdge, 8, GoalMCT), 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("mission failed: %s", res.Reason)
	}
	// With a perfect link the adaptive run must never flap to local
	// because of its own pacing (one migration for the initial placement
	// refinement is fine; flapping is not).
	if res.Switches > 2 {
		t.Errorf("adaptive controller flapped %d times on a perfect link", res.Switches)
	}
}

func TestDVFSTradesTimeForEnergy(t *testing.T) {
	// Eq. 1c ablation: underclocking the Pi cuts computation power
	// quadratically but stretches the VDP makespan, so the mission slows
	// down. The knob the paper calls non-adjustable must behave per the
	// model when we do adjust it.
	stock, err := Run(smallNav(DeployLocal(), 3))
	if err != nil {
		t.Fatal(err)
	}
	slow := smallNav(DeployLocal(), 3)
	slow.LocalFreqGHz = 0.7
	under, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if !stock.Success || !under.Success {
		t.Fatalf("missions failed: %v / %v", stock.Reason, under.Reason)
	}
	if under.TotalTime <= stock.TotalTime {
		t.Errorf("underclocked mission should be slower: %.1f vs %.1f",
			under.TotalTime, stock.TotalTime)
	}
	// Average computation power must drop (energy may not, since the
	// mission runs longer — exactly the Eq. 1 coupling of Fig. 3).
	stockP := stock.Energy[energy.Computer] / stock.TotalTime
	underP := under.Energy[energy.Computer] / under.TotalTime
	if underP >= stockP {
		t.Errorf("computer power should drop when underclocked: %.2f vs %.2f W", underP, stockP)
	}
}

func TestWaypointPatrol(t *testing.T) {
	cfg := smallNav(DeployEdge(8), 3)
	cfg.Waypoints = []geom.Vec2{geom.V(5.2, 3.2), geom.V(1.0, 3.2)}
	cfg.Goal = geom.V(5.2, 0.8)
	cfg.MaxSimTime = 600
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("patrol failed: %s", res.Reason)
	}
	if res.Reason != "patrol complete (3 stops)" {
		t.Errorf("reason = %q", res.Reason)
	}
	// A 3-stop round must travel much farther than the single-goal run.
	single, err := Run(smallNav(DeployEdge(8), 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < 1.5*single.Distance {
		t.Errorf("patrol distance %.1f vs single %.1f — route not followed",
			res.Distance, single.Distance)
	}
}

func TestAdaptiveSurvivesInterferenceBursts(t *testing.T) {
	// Periodic interference (not mobility fade): bursts kill bandwidth
	// for 30% of every 8 s. The direction gate keeps Algorithm 2 from
	// flapping on every burst, and the mission must still complete.
	link := netsim.DefaultEdgeLink(geom.V(3, 2))
	link.InterferencePeriod = 8
	link.InterferenceDuty = 0.3
	link.InterferenceFloor = 0.05
	cfg := smallNav(DeployAdaptive(HostEdge, 8, GoalMCT), 6)
	cfg.LinkCfg = &link
	cfg.MaxSimTime = 600
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("mission failed under interference: %s", res.Reason)
	}
	if res.MsgsDropped == 0 {
		t.Error("interference should have dropped some messages")
	}
	if res.Switches > 8 {
		t.Errorf("controller flapped %d times under bursts", res.Switches)
	}
}

func TestMissionSoakRandomWorlds(t *testing.T) {
	// Soak: random cluttered rooms across seeds. Every run must terminate
	// cleanly (success or honest timeout), never panic, and keep its
	// energy/time accounting consistent.
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := world.RandomClutterMap(6, 5, 0.05, 4, rng)
		start := geom.P(0.7, 0.7, 0)
		goal := geom.V(5.3, 4.3)
		if world.FootprintCollides(m, start.Pos, 0.12) ||
			world.FootprintCollides(m, goal, 0.12) {
			continue // clutter landed on an endpoint; skip this seed
		}
		res, err := Run(MissionConfig{
			Workload:   NavigationWithMap,
			Map:        m,
			Start:      start,
			Goal:       goal,
			WAP:        geom.V(3, 2.5),
			Deployment: DeployAdaptive(HostEdge, 8, GoalMCT),
			Seed:       seed,
			MaxSimTime: 300,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.TotalTime <= 0 || res.TotalEnergy <= 0 {
			t.Errorf("seed %d: degenerate accounting %+v", seed, res)
		}
		if math.Abs(res.MovingTime+res.StandbyTime-res.TotalTime) > 1e-6 {
			t.Errorf("seed %d: Eq. 2a violated", seed)
		}
	}
}

func TestParallelismSheddingSavesCoreSeconds(t *testing.T) {
	// §VIII-E: the Fig. 14 obstacle course has a slalom phase where the
	// real velocity collapses far below the cap; the shedding controller
	// should cut the paid threads there and save reserved core-seconds
	// at similar mission time.
	base := MissionConfig{
		Workload:   NavigationWithMap,
		Map:        world.ObstacleCourseMap(),
		Start:      geom.P(0.6, 3.0, 0),
		Goal:       geom.V(13.5, 0.8),
		WAP:        geom.V(7, 3),
		Deployment: DeployEdge(8),
		Seed:       21,
		MaxSimTime: 900,
		VCeil:      0.6,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	shed := base
	shed.ShedParallelism = true
	shedded, err := Run(shed)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Success || !shedded.Success {
		t.Fatalf("missions failed: %v / %v", plain.Reason, shedded.Reason)
	}
	if shedded.ThreadAdjustments == 0 {
		t.Error("shedding controller never adjusted threads in clutter")
	}
	if shedded.CoreSeconds >= plain.CoreSeconds {
		t.Errorf("shedding should save core-seconds: %.1f vs %.1f",
			shedded.CoreSeconds, plain.CoreSeconds)
	}
	if shedded.TotalTime > 1.5*plain.TotalTime {
		t.Errorf("shedding cost too much time: %.1f vs %.1f",
			shedded.TotalTime, plain.TotalTime)
	}
}

func TestCoverageWorkloadCleansRoom(t *testing.T) {
	cfg := MissionConfig{
		Workload:   CoverageWithMap,
		Map:        world.EmptyRoomMap(3, 2.5, 0.05),
		Start:      geom.P(0.5, 0.5, 0),
		WAP:        geom.V(1.5, 1.25),
		Deployment: DeployEdge(8),
		Seed:       5,
		MaxSimTime: 900,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("sweep failed: %s (covered %.0f%%)", res.Reason, res.Covered*100)
	}
	if res.Covered < 0.75 {
		t.Errorf("covered only %.0f%%", res.Covered*100)
	}
	// Coverage planning is a lightweight T2 node; the VDP still dominates.
	classes := Classify(res.Cycles)
	cov := classOf(t, classes, NodeCoverage)
	if cov.ECN {
		t.Errorf("coverage planning classified as ECN: %+v", cov)
	}
}

func TestCoverageOffloadingStillWins(t *testing.T) {
	base := MissionConfig{
		Workload:   CoverageWithMap,
		Map:        world.EmptyRoomMap(3, 2.5, 0.05),
		Start:      geom.P(0.5, 0.5, 0),
		WAP:        geom.V(1.5, 1.25),
		Seed:       5,
		MaxSimTime: 1800,
	}
	local := base
	local.Deployment = DeployLocal()
	lres, err := Run(local)
	if err != nil {
		t.Fatal(err)
	}
	edge := base
	edge.Deployment = DeployEdge(8)
	eres, err := Run(edge)
	if err != nil {
		t.Fatal(err)
	}
	if !lres.Success || !eres.Success {
		t.Fatalf("missions failed: %v / %v", lres.Reason, eres.Reason)
	}
	if eres.TotalTime >= lres.TotalTime {
		t.Errorf("offloaded sweep (%.1fs) should beat local (%.1fs)",
			eres.TotalTime, lres.TotalTime)
	}
}
