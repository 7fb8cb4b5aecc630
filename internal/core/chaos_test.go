package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lgvoffload/internal/faults"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/msg"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/sensor"
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

// TestChaosWorkerCrashAndReconnect exercises the real-socket plane:
// kill the worker mid-stream, watch the switcher degrade to local, then
// restart a worker on the same port and verify the hello probes
// re-register it — no manual rewiring — and scans are served again.
func TestChaosWorkerCrashAndReconnect(t *testing.T) {
	fn := func(scan *msg.Scan) (*msg.Twist, error) {
		return &msg.Twist{V: 0.5}, nil
	}
	w1, err := NewWorker("127.0.0.1:0", HostEdge, fn)
	if err != nil {
		t.Fatal(err)
	}
	addr := w1.Addr()

	sw, err := NewSwitcher(addr, NewProfiler())
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	sw.HealthTimeout = 200 * time.Millisecond // speed the test up
	w1.Register(sw.Addr())

	m := world.EmptyRoomMap(6, 4, 0.05)
	laser := sensor.NewLaser(90, 3.5, 0.01, rand.New(rand.NewSource(1)))
	scan := func(i int) *msg.Scan {
		return msg.FromSensor(laser.Sense(m, geom.P(1, 2, 0), float64(i)*0.2), 0)
	}

	// Phase 1: healthy service.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; sw.Received() == 0; i++ {
		if err := sw.SendScan(scan(i)); err != nil {
			t.Fatal(err)
		}
		sw.Pump()
		if time.Now().After(deadline) {
			t.Fatal("worker never served the first scan")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sw.Degraded() {
		t.Fatal("switcher degraded while the worker is alive")
	}

	// Phase 2: crash. The switcher must notice by silence alone.
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for !sw.Degraded() {
		sw.Maintain()
		sw.Pump()
		if time.Now().After(deadline) {
			t.Fatal("switcher never declared the dead worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: restart on the same port, no Register call — the
	// switcher's hello probe is the only way the new worker can learn
	// its peer.
	w2, err := NewWorker(addr.String(), HostEdge, fn)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	deadline = time.Now().Add(5 * time.Second)
	for sw.Degraded() {
		sw.Maintain()
		sw.Pump()
		if time.Now().After(deadline) {
			t.Fatal("switcher never reconnected to the restarted worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sw.Reconnects() < 1 {
		t.Errorf("reconnects = %d, want >= 1", sw.Reconnects())
	}

	// Phase 4: the restarted worker serves real work.
	before := sw.Received()
	deadline = time.Now().Add(5 * time.Second)
	for i := 0; sw.Received() == before; i++ {
		if err := sw.SendScan(scan(i)); err != nil {
			t.Fatal(err)
		}
		sw.Pump()
		if time.Now().After(deadline) {
			t.Fatal("restarted worker never served a scan")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w2.Served() == 0 {
		t.Error("second worker served nothing")
	}
}
