package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"lgvoffload/internal/core"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/world"
)

func TestClassify(t *testing.T) {
	node := func(n string) obs.Event { return obs.Event{Kind: obs.KindNodeExec, Node: n} }
	cases := []struct {
		ev   obs.Event
		want mark
	}{
		{node(core.NodeLocalization), mAMCL},
		{node(core.NodeSLAM), mSLAM},
		{node(core.NodeCostmap), mCostmap},
		{node(core.NodePlanner), mPlanner},
		{node(core.NodeCoverage), mCoverage},
		{node(core.NodeExploration), mExplore},
		{node(core.NodeTracking), mTracker},
		{node(core.NodeMux), mMuxer},
		{node("unheard_of"), mUnknown},
		{obs.Event{Kind: obs.KindTransfer, Node: "scan"}, mUplink},
		{obs.Event{Kind: obs.KindDrop, Node: "scan"}, mUplink},
		{obs.Event{Kind: obs.KindTransfer, Node: "cmd_vel"}, mDownlink},
		{obs.Event{Kind: obs.KindDrop, Node: "cmd_vel"}, mDownlink},
		{obs.Event{Kind: obs.KindDrop, Node: "probe"}, mProbe},
		{obs.Event{Kind: obs.KindProbe}, mProbe},
		{obs.Event{Kind: obs.KindTick}, mTick},
		{obs.Event{Kind: obs.KindHandoff}, mIgnore},
		{obs.Event{Kind: obs.KindFault}, mIgnore},
		{obs.Event{Kind: obs.KindAlg2}, mCoreEvent},
		{obs.Event{Kind: obs.KindSwitch}, mCoreEvent},
		{obs.Event{Kind: obs.KindSLOBreach}, mCoreEvent},
		{obs.Event{Kind: obs.KindWatchdog}, mCoreEvent},
	}
	for _, c := range cases {
		if got := classify(c.ev); got != c.want {
			t.Errorf("classify(%s %q) = %d, want %d", c.ev.Kind, c.ev.Node, got, c.want)
		}
	}
}

func checkLayers(t *testing.T, lt layerTimes, want map[layer]int64) {
	t.Helper()
	for l := layer(0); l < numLayers; l++ {
		if lt.ns[l] != want[l] {
			t.Errorf("layer %d: %d ns, want %d", l, lt.ns[l], want[l])
		}
	}
}

// offloadedNavTick is one step of an offloaded navigation tick: probe,
// scan uplink, AMCL, costmap, one plan, tracking, mux, command downlink,
// the tick event, an Algorithm 2 flip, the CmdTap and the step's end.
var offloadedNavTick = []stamp{
	{mStepStart, 0}, {mProbe, 10}, {mUplink, 30}, {mAMCL, 100}, {mCostmap, 300},
	{mPlanner, 350}, {mTracker, 950}, {mMuxer, 955}, {mDownlink, 965}, {mTick, 970},
	{mCoreEvent, 975}, {mCmdTap, 990}, {mStepEnd, 1050},
}

func TestAttributeOffloadedNavigationTick(t *testing.T) {
	var lt layerTimes
	lt.add(offloadedNavTick)
	checkLayers(t, lt, map[layer]int64{
		lNetsim: 10 + 10, lSensor: 20, lAMCL: 70, lCostmap: 200, lPlanner: 50,
		lTracker: 600, lMuxer: 5, lCore: 5, lCoreTick: 5 + 15, lCoreStep: 60,
	})
	if lt.steps != 1 || lt.ticks != 1 || lt.plans != 1 {
		t.Errorf("steps/ticks/plans = %d/%d/%d, want 1/1/1", lt.steps, lt.ticks, lt.plans)
	}
	if lt.stamped() != 1050 {
		t.Errorf("stamped %d ns, want 1050", lt.stamped())
	}
}

func TestAttributeLocalExplorationTick(t *testing.T) {
	// No uplink on a local tick, so sensing folds into slam; the
	// frontier search feeds two planner attempts.
	var lt layerTimes
	lt.add([]stamp{
		{mStepStart, 0}, {mProbe, 5}, {mSLAM, 505}, {mCostmap, 605}, {mExplore, 705},
		{mPlanner, 725}, {mPlanner, 745}, {mTracker, 845}, {mMuxer, 846}, {mTick, 850},
		{mCmdTap, 860}, {mStepEnd, 1060},
	})
	checkLayers(t, lt, map[layer]int64{
		lNetsim: 5, lSLAM: 500, lCostmap: 100, lExplore: 100, lPlanner: 40,
		lTracker: 100, lMuxer: 1, lCore: 4, lCoreTick: 10, lCoreStep: 200,
	})
	if lt.slamUpdates != 1 || lt.explores != 1 || lt.plans != 2 {
		t.Errorf("slam/explore/plans = %d/%d/%d, want 1/1/2", lt.slamUpdates, lt.explores, lt.plans)
	}
}

func TestAttributeStepWithoutTick(t *testing.T) {
	var lt layerTimes
	lt.add([]stamp{{mStepStart, 0}, {mCmdTap, 4}, {mStepEnd, 10}})
	checkLayers(t, lt, map[layer]int64{lCore: 4, lCoreStep: 6})
	if lt.ticks != 0 {
		t.Errorf("ticks = %d, want 0", lt.ticks)
	}
}

func TestUnknownStampIsUnattributed(t *testing.T) {
	var lt layerTimes
	lt.add([]stamp{{mStepStart, 0}, {mUnknown, 7}, {mCmdTap, 9}, {mStepEnd, 10}})
	v := values{}
	lt.report(v)
	if got := v["trace.unattributed_pct"]; got != 70 {
		t.Errorf("unattributed = %v%%, want 70%%", got)
	}
	if got := v["core.share_pct"]; got != 100 {
		t.Errorf("core share = %v%% of attributed time, want 100%%", got)
	}
}

func TestReportRatiosAndShares(t *testing.T) {
	var lt layerTimes
	lt.add(offloadedNavTick)
	v := values{}
	lt.report(v)
	sum := 0.0
	for _, row := range tableLayers {
		sum += v[row.name+".share_pct"]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
	for name, want := range map[string]float64{
		"tracker.ms_per_tick": 600e-6,
		"core.tick_tail_us":   0.020,
		"core.step_tail_us":   0.060,
		"netsim.us_per_tick":  0.020,
		"tracker.share_pct":   100 * 600.0 / 1050,
	} {
		if got := v[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestTracerOnRealMissions runs a short mission of each kind under the
// step tracer: every stamped nanosecond must land in a named layer, and
// each layer the mission kind exercises must see time.
func TestTracerOnRealMissions(t *testing.T) {
	room := world.EmptyRoomMap(6, 4, 0.05)
	deploy := core.DeployAdaptive(core.HostEdge, 8, core.GoalMCT)
	cases := []struct {
		name       string
		cfg        core.MissionConfig
		busy, idle []layer
	}{
		{"navigation", core.MissionConfig{Workload: core.NavigationWithMap, Map: room,
			Start: geom.P(0.8, 2, 0), Goal: geom.V(5.2, 2), WAP: geom.V(3, 2),
			Deployment: deploy, Seed: 3, MaxSimTime: 20},
			[]layer{lAMCL, lCostmap, lPlanner, lTracker, lNetsim, lCoreTick, lCoreStep},
			[]layer{lSLAM, lExplore}},
		{"exploration", core.MissionConfig{Workload: core.ExplorationNoMap, Map: room,
			Start: geom.P(1, 2, 0), WAP: geom.V(3, 2), SlamParticles: 10,
			Deployment: deploy, Seed: 3, MaxSimTime: 10},
			[]layer{lSLAM, lCostmap, lTracker, lCoreStep},
			[]layer{lAMCL}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := newStepTracer()
			c.cfg.Telemetry = obs.NewTelemetry(1 << 12)
			c.cfg.CmdTap = tr.cmdTap
			m, err := core.NewMission(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.cfg.Telemetry.Tee(tr)
			steps := 0
			for done := false; !done; steps++ {
				done = tr.step(m)
			}
			lt := tr.lt
			if lt.ns[lUnattributed] != 0 {
				t.Errorf("%d ns unattributed", lt.ns[lUnattributed])
			}
			if lt.steps != steps || lt.ticks == 0 {
				t.Errorf("steps %d (want %d), ticks %d", lt.steps, steps, lt.ticks)
			}
			for _, l := range c.busy {
				if lt.ns[l] <= 0 {
					t.Errorf("layer %d saw no time", l)
				}
			}
			for _, l := range c.idle {
				if lt.ns[l] != 0 {
					t.Errorf("layer %d saw %d ns, want none", l, lt.ns[l])
				}
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q, v float64
	}{{1000, 0.95, 950}, {200, 0.95, 190}, {100, 0.9, 90}, {32, 0.6875, 22}, {20, 0.5, 10}, {15, 8.0 / 15, 8}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		if v, q := tail(xs); v != c.v || q != c.q {
			t.Errorf("n=%d: tail = p%g %v, want p%g %v", c.n, 100*q, v, 100*c.q, c.v)
		}
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []decl, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(got), len(want))
		}
		for _, d := range got {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s [%s] is not the harness's (unit %q)", kind, d.Name, d.Unit, u)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the harness", i, w.Name, workloads[i].name)
		}
	}
}
