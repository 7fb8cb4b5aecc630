package fleet

import (
	"testing"

	"lgvoffload/internal/core"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/world"
)

func TestShareServer(t *testing.T) {
	cloud := hostsim.CloudServer() // 24 cores
	s2 := ShareServer(cloud, 2)
	if s2.Cores != 12 {
		t.Errorf("cores ÷2 = %d", s2.Cores)
	}
	if s2.PerfNorm != cloud.PerfNorm {
		t.Error("per-clock speed should not change while cores remain")
	}
	// Oversubscription: 48 robots on 24 cores halve per-clock throughput.
	s48 := ShareServer(cloud, 48)
	if s48.Cores != 1 {
		t.Errorf("cores ÷48 = %d", s48.Cores)
	}
	if s48.PerfNorm >= cloud.PerfNorm {
		t.Error("oversubscribed server must slow down per clock")
	}
	// Degenerate k.
	if got := ShareServer(cloud, 0); got.Cores != cloud.Cores {
		t.Error("k=0 should behave like k=1")
	}
}

func TestShareServerMonotone(t *testing.T) {
	cloud := hostsim.CloudServer()
	w := hostsim.Work{SerialCycles: 0.1e9, ParallelCycles: 3e9}
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		s := ShareServer(cloud, k)
		tm := s.ExecTime(w, 24)
		if tm < prev {
			t.Errorf("exec time decreased at k=%d: %v < %v", k, tm, prev)
		}
		prev = tm
	}
}

func baseMission(remote core.Deployment) core.MissionConfig {
	return core.MissionConfig{
		Workload:   core.NavigationWithMap,
		Map:        world.EmptyRoomMap(6, 4, 0.05),
		Start:      geom.P(0.8, 2, 0),
		Goal:       geom.V(5.2, 2),
		WAP:        geom.V(3, 2),
		Deployment: remote,
		Seed:       3,
		MaxSimTime: 300,
	}
}

func TestSweepDegradesWithFleetSize(t *testing.T) {
	rows, err := Sweep(baseMission(core.DeployEdge(8)), []int{1, 4, 16}, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Success {
			t.Fatalf("fleet %d failed", r.FleetSize)
		}
	}
	// The per-robot velocity cap must fall as the share shrinks.
	if rows[2].AvgVmax >= rows[0].AvgVmax {
		t.Errorf("vmax should degrade: k=1 %.3f vs k=16 %.3f",
			rows[0].AvgVmax, rows[2].AvgVmax)
	}
}

func TestEdgeCloudCrossover(t *testing.T) {
	sizes := []int{1, 2, 4, 8, 16}
	edge, err := Sweep(baseMission(core.DeployEdge(8)), sizes, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := Sweep(baseMission(core.DeployCloud(12)), sizes, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	// At k=1 the gateway wins the VDP (paper Fig. 10); at large k the
	// manycore cloud must win.
	if edge[0].Time > cloud[0].Time {
		t.Errorf("k=1: edge (%.1fs) should beat cloud (%.1fs)", edge[0].Time, cloud[0].Time)
	}
	k, ok := Crossover(edge, cloud)
	if !ok {
		t.Fatal("cloud never overtook the gateway — contention model inert")
	}
	if k <= 1 {
		t.Errorf("crossover at k=%d — should need a real fleet", k)
	}
	t.Logf("edge→cloud crossover at fleet size %d", k)
}

func TestSweepRequiresRemote(t *testing.T) {
	if _, err := Sweep(baseMission(core.DeployLocal()), []int{1}, core.Run); err == nil {
		t.Error("local deployment has no server to share")
	}
}
