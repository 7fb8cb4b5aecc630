package core

import (
	"math"
	"testing"

	"lgvoffload/internal/timing"
)

func testStrategy(goal Goal) Strategy {
	return Strategy{Goal: goal, Remote: HostCloud, Threads: 12}
}

func TestAlgorithm1ECOffloadsAllECNs(t *testing.T) {
	classes := Classify(tableIIExploreCounter())
	s := testStrategy(GoalEC)
	p := s.Decide(classes, 0.5, 0.05)
	// All ECNs (T1+T3: SLAM, costmap, tracking) go to the cloud.
	for _, n := range []string{NodeSLAM, NodeCostmap, NodeTracking} {
		if p.Of(n) != HostCloud {
			t.Errorf("%s not offloaded under EC", n)
		}
	}
	// Lightweight nodes (T2+T4) stay on the LGV.
	for _, n := range []string{NodePlanner, NodeExploration, NodeMux} {
		if p.Of(n) != HostLGV {
			t.Errorf("%s should stay local", n)
		}
	}
}

func TestAlgorithm1ECKeepsOffloadEvenWithSlowNetwork(t *testing.T) {
	// EC optimizes energy: even when the cloud VDP is slower, ECNs stay
	// remote (the robot just drives slower).
	classes := Classify(tableIICounter())
	s := testStrategy(GoalEC)
	p := s.Decide(classes, 0.3, 0.9)
	if p.Of(NodeTracking) != HostCloud {
		t.Error("EC pulled tracking home on slow network")
	}
}

func TestAlgorithm1MCTOffloadsWhenCloudFaster(t *testing.T) {
	classes := Classify(tableIICounter())
	s := testStrategy(GoalMCT)
	p := s.Decide(classes, 0.5, 0.05)
	for _, n := range []string{NodeCostmap, NodeTracking} {
		if p.Of(n) != HostCloud {
			t.Errorf("%s should offload when cloud VDP is faster", n)
		}
	}
}

func TestAlgorithm1MCTMigratesT3HomeWhenNetworkSlow(t *testing.T) {
	// The core of Algorithm 1: Tc > T_l^v under MCT migrates T3 back.
	classes := Classify(tableIIExploreCounter())
	s := testStrategy(GoalMCT)
	p := s.Decide(classes, 0.3, 0.9)
	for _, n := range []string{NodeCostmap, NodeTracking} {
		if p.Of(n) != HostLGV {
			t.Errorf("%s should come home when Tc > Tl", n)
		}
	}
	// T1 (SLAM) is not on the VDP, so it stays offloaded for its
	// failure-rate benefit.
	if p.Of(NodeSLAM) != HostCloud {
		t.Error("SLAM should stay offloaded under MCT")
	}
}

// capEngine is the least engine velocityCap reads: the default ceiling.
func capEngine() *engine { return &engine{cfg: MissionConfig{VCeil: 1.0}} }

// TestVelocityCapIsEq2c pins Algorithm 1's last step at the makespans
// of the placements above: the slow cloud VDP that EC keeps, the fast
// cloud VDP that MCT offloads to, and the local VDP that MCT brings T3
// home to.
func TestVelocityCapIsEq2c(t *testing.T) {
	e := capEngine()
	for _, tp := range []float64{0.9, 0.05, 0.3} {
		want := timing.MaxVelocity(tp, AMax, StopDist)
		if v := e.velocityCap(tp); math.Abs(v-want) > 1e-9 {
			t.Errorf("velocityCap(%v) = %v, want %v", tp, v, want)
		}
	}
}

func TestVelocityCeiling(t *testing.T) {
	e := capEngine()
	e.cfg.VCeil = 0.1
	if v := e.velocityCap(0.001); v > 0.1 {
		t.Errorf("velocity %v exceeds ceiling", v)
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := NewPlacement([]string{"a", "b"})
	if p.Of("a") != HostLGV || p.Of("missing") != HostLGV {
		t.Error("default placement should be local")
	}
	p.Host["a"] = HostEdge
	c := p.Clone()
	c.Host["b"] = HostCloud
	if p.Of("b") != HostLGV {
		t.Error("Clone shares the host map")
	}
	rn := p.RemoteNodes()
	if len(rn) != 1 || rn[0] != "a" {
		t.Errorf("RemoteNodes = %v", rn)
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestGoalString(t *testing.T) {
	if GoalEC.String() != "EC" || GoalMCT.String() != "MCT" {
		t.Error("goal strings")
	}
}

func TestVelocityCapMonotoneInVDP(t *testing.T) {
	e := capEngine()
	prev := math.Inf(1)
	for _, tc := range []float64{0.01, 0.05, 0.1, 0.2} {
		v := e.velocityCap(tc)
		if v >= prev {
			t.Errorf("velocity should fall as the VDP makespan grows: v(%v)=%v prev=%v", tc, v, prev)
		}
		prev = v
	}
}

func TestPinnedLocalNodesNeverOffload(t *testing.T) {
	// The §IX extension: safety-critical nodes stay on the vehicle even
	// when they are ECNs and the network is perfect.
	classes := Classify(tableIIExploreCounter())
	s := testStrategy(GoalEC)
	s.PinnedLocal = []string{NodeTracking}
	p := s.Decide(classes, 0.5, 0.01)
	if p.Of(NodeTracking) != HostLGV {
		t.Error("pinned tracking node was offloaded")
	}
	// Unpinned ECNs still offload.
	if p.Of(NodeSLAM) != HostCloud || p.Of(NodeCostmap) != HostCloud {
		t.Error("unpinned ECNs should still offload")
	}
}
