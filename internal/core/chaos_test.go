package core

import (
	"reflect"
	"testing"

	"lgvoffload/internal/faults"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/world"
)

// chaosNav is the fault-injection mission: an adaptive navigation run
// with the WAP placed AT the goal, so the robot approaches the access
// point for the whole drive (d_t >= 0) and Algorithm 2's weak-and-
// receding branch can never fire. Any retreat to local execution during
// an outage must therefore come from the miss-counter failover path —
// the mechanism under test.
func chaosNav(seed int64) MissionConfig {
	cfg := MissionConfig{
		Workload:   NavigationWithMap,
		Map:        world.EmptyRoomMap(6, 4, 0.05),
		Start:      geom.P(0.8, 2, 0),
		Goal:       geom.V(5.2, 2),
		WAP:        geom.V(5.2, 2),
		Deployment: DeployAdaptive(HostEdge, 8, GoalMCT),
		Seed:       seed,
		MaxSimTime: 300,
	}
	cfg.Faults = &faults.Config{Windows: []faults.Window{
		// Total WAP blackout early in the drive: the watchdog must stop
		// the robot (deadline ~1.2 s) and the failover must pull the ECNs
		// home (15 misses at 5 Hz ~ 3 s) well before the window ends.
		{Kind: faults.WAPOutage, T0: 4, T1: 12},
		// A server crash later on; with the 20 s post-failover hold-down
		// the placement is still local, so this mostly exercises probe
		// traffic through the schedule.
		{Kind: faults.ServerCrash, T0: 20, T1: 26},
	}}
	return cfg
}

// TestChaosAdaptiveSurvivesOutage is the tentpole acceptance run: an
// adaptive mission under a scripted WAP outage plus a server crash still
// reaches the goal, emits at least one watchdog stop and one failover,
// and logs the failover decision.
func TestChaosAdaptiveSurvivesOutage(t *testing.T) {
	tel := obs.NewTelemetry(4096)
	cfg := chaosNav(3)
	cfg.Telemetry = tel
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("mission failed under faults: %s (t=%.1f)", res.Reason, res.TotalTime)
	}
	if res.WatchdogStops < 1 {
		t.Error("no watchdog safety stop during a total outage")
	}
	if res.Failovers < 1 {
		t.Error("no failover despite 8 s of blackout")
	}
	if res.FaultsInjected == 0 {
		t.Error("schedule injected nothing")
	}
	var sawFailover bool
	for _, d := range res.Decisions {
		if d.Reason == "failover" {
			sawFailover = true
			if d.RemoteOK {
				t.Error("failover decision recorded RemoteOK = true")
			}
			if d.T < 4 || d.T > 12 {
				t.Errorf("failover at t=%.1f, want inside the outage window [4,12]", d.T)
			}
		}
	}
	if !sawFailover {
		t.Error("decision log has no failover entry")
	}

	// The timeline must carry the fault, watchdog and failover events.
	kinds := map[obs.Kind]int{}
	for _, ev := range tel.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.KindFault] != 2 {
		t.Errorf("fault events = %d, want 2 (one per window)", kinds[obs.KindFault])
	}
	if kinds[obs.KindWatchdog] < 1 || kinds[obs.KindFailover] < 1 {
		t.Errorf("timeline events: watchdog=%d failover=%d, want >=1 each",
			kinds[obs.KindWatchdog], kinds[obs.KindFailover])
	}
}

// TestChaosDeterministicUnderFaults: same seed + same schedule must
// reproduce the identical decision log — the property that makes chaos
// runs debuggable at all.
func TestChaosDeterministicUnderFaults(t *testing.T) {
	a, err := Run(chaosNav(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(chaosNav(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Decisions, b.Decisions) {
		t.Errorf("same seed+schedule diverged:\n%+v\nvs\n%+v", a.Decisions, b.Decisions)
	}
	if a.TotalTime != b.TotalTime || a.WatchdogStops != b.WatchdogStops ||
		a.Failovers != b.Failovers || a.FaultsInjected != b.FaultsInjected {
		t.Errorf("result counters diverged: %+v vs %+v", a, b)
	}
}
