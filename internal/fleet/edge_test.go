package fleet

import (
	"math"
	"reflect"
	"testing"

	"lgvoffload/internal/core"
	"lgvoffload/internal/hostsim"
)

// TestShareServerOversubscribed pins the k > cores regime: the core
// share floors at one, and the throughput of that single timeshared
// core scales down by cores/k.
func TestShareServerOversubscribed(t *testing.T) {
	edge := hostsim.EdgeGateway() // 4 cores, PerfNorm 2.55, Sync 100k
	for _, k := range []int{5, 9, 100} {
		s := ShareServer(edge, k)
		if s.Cores != 1 {
			t.Errorf("k=%d: cores = %d, want floor of 1", k, s.Cores)
		}
		wantPerf := edge.PerfNorm * float64(edge.Cores) / float64(k)
		if math.Abs(s.PerfNorm-wantPerf) > 1e-12 {
			t.Errorf("k=%d: PerfNorm = %v, want %v (×cores/k)", k, s.PerfNorm, wantPerf)
		}
		// Sync inflation saturates at the physical core count: a robot
		// can't pay barrier cross-traffic for more peers than cores.
		wantSync := edge.SyncCycles * float64(edge.Cores)
		if s.SyncCycles != wantSync {
			t.Errorf("k=%d: SyncCycles = %v, want %v (×min(k, cores))", k, s.SyncCycles, wantSync)
		}
	}
}

// TestShareServerIdentityAndClamp pins k = 1 (a dedicated server is
// unchanged except for the label) and k < 1 (clamped to 1).
func TestShareServerIdentityAndClamp(t *testing.T) {
	cloud := hostsim.CloudServer()
	for _, k := range []int{1, 0, -3} {
		s := ShareServer(cloud, k)
		if s.Cores != cloud.Cores || s.PerfNorm != cloud.PerfNorm || s.SyncCycles != cloud.SyncCycles {
			t.Errorf("k=%d: dedicated server changed: %+v", k, s)
		}
	}
}

// TestShareServerSingleCore pins the degenerate single-core platform:
// any fleet larger than one oversubscribes immediately, and the sync
// multiplier stays 1 (min(k, cores) = 1 — no cross-core barriers).
func TestShareServerSingleCore(t *testing.T) {
	uni := hostsim.Platform{Name: "uni", FreqGHz: 2, Cores: 1, PerfNorm: 1.5, SyncCycles: 80_000}
	s1 := ShareServer(uni, 1)
	if s1.Cores != 1 || s1.PerfNorm != 1.5 || s1.SyncCycles != 80_000 {
		t.Errorf("k=1 on single-core changed the platform: %+v", s1)
	}
	s4 := ShareServer(uni, 4)
	if s4.Cores != 1 {
		t.Errorf("k=4: cores = %d, want 1", s4.Cores)
	}
	if math.Abs(s4.PerfNorm-1.5/4) > 1e-12 {
		t.Errorf("k=4: PerfNorm = %v, want %v", s4.PerfNorm, 1.5/4)
	}
	if s4.SyncCycles != 80_000 {
		t.Errorf("k=4: SyncCycles = %v, want unchanged 80000 (single core has no cross-core sync)", s4.SyncCycles)
	}
}

// TestShareServerExactDivision pins the boundary where the share divides
// evenly: at k = cores each robot gets exactly one full-speed core.
func TestShareServerExactDivision(t *testing.T) {
	edge := hostsim.EdgeGateway()
	s := ShareServer(edge, edge.Cores)
	if s.Cores != 1 {
		t.Errorf("k=cores: cores = %d, want 1", s.Cores)
	}
	if s.PerfNorm != edge.PerfNorm {
		t.Errorf("k=cores: PerfNorm = %v, want unchanged %v (not oversubscribed)", s.PerfNorm, edge.PerfNorm)
	}
	if s.SyncCycles != edge.SyncCycles*float64(edge.Cores) {
		t.Errorf("k=cores: SyncCycles = %v, want ×%d", s.SyncCycles, edge.Cores)
	}
}

// TestSweepDeterministicPerSeed is the reproducibility satellite: the
// same base mission (same seed) swept twice over the same fleet sizes
// must produce identical rows, including through the oversubscribed
// regime.
func TestSweepDeterministicPerSeed(t *testing.T) {
	sizes := []int{1, 4, 9}
	a, err := Sweep(baseMission(core.DeployEdge(8)), sizes, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(baseMission(core.DeployEdge(8)), sizes, core.Run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fleet sweep is not reproducible per seed:\n%+v\n%+v", a, b)
	}
}
