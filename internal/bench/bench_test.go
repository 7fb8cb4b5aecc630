package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lgvoffload/internal/core"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/store"
	"lgvoffload/internal/trace"
)

// All bench tests run in quick mode; the full-scale sweeps run through
// cmd/reproduce and the root-level testing.B benchmarks.

func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, true); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("experiments = %d, want 18", len(ids))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus ID resolved")
	}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
	}
}

func TestTable1Output(t *testing.T) {
	out := runQuick(t, "table1")
	for _, want := range []string{"Turtlebot3", "Turtlebot2", "Pioneer 3DX", "6.70", "44%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out := runQuick(t, "table2")
	for _, want := range []string{"with map", "without map", "path_tracking", "slam", "ECN"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestTable2SharesShape(t *testing.T) {
	withMap, _, err := table2(true)
	if err != nil {
		t.Fatal(err)
	}
	shares := make(map[string]float64)
	for _, r := range withMap.Cycles.Breakdown() {
		shares[r.Node] = r.Share
	}
	if shares[core.NodeTracking] < shares[core.NodeCostmap] {
		t.Error("tracking should out-cycle costmap (paper: 60% vs 37%)")
	}
	if shares[core.NodeLocalization] > 0.1 {
		t.Errorf("localization share %.2f too high", shares[core.NodeLocalization])
	}
}

func TestFig9SpeedupShape(t *testing.T) {
	d := fig9(true)
	edge, cloud := d.edgeUp, d.cloudUp
	// Shape: both large, cloud (manycore) beats the gateway on the ECN.
	if edge < 10 {
		t.Errorf("gateway ECN speedup = %.1f, want >> 1", edge)
	}
	if cloud <= edge {
		t.Errorf("cloud (%.1fx) must beat gateway (%.1fx) on the ECN", cloud, edge)
	}
	if cloud < 25 || cloud > 60 {
		t.Errorf("cloud ECN speedup = %.1f, paper reports ≈ 41", cloud)
	}
}

func TestFig10SpeedupShape(t *testing.T) {
	d := fig10(true)
	edge, cloud := d.edgeUp, d.cloudUp
	if edge < 8 {
		t.Errorf("gateway VDP speedup = %.1f, want >> 1", edge)
	}
	if edge <= cloud {
		t.Errorf("gateway (%.1fx) must beat cloud (%.1fx) on the VDP", edge, cloud)
	}
}

func TestFig9Output(t *testing.T) {
	out := runQuick(t, "fig9")
	for _, want := range []string{"Pi 3B+", "i7-7700K", "Xeon", "threads", "27.97"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 missing %q", want)
		}
	}
}

func TestFig10Output(t *testing.T) {
	out := runQuick(t, "fig10")
	for _, want := range []string{"VDP processing time", "23.92", "saturates"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig10 missing %q", want)
		}
	}
}

func TestFig11SwitchSequence(t *testing.T) {
	offAt, onAt := fig11SwitchTimes(fig11Walk(false))
	if offAt == 0 {
		t.Fatal("Algorithm 2 never switched local on the outbound leg")
	}
	if onAt == 0 {
		t.Fatal("Algorithm 2 never switched back on the return leg")
	}
	if onAt <= offAt {
		t.Errorf("switch-back (%.1f) must follow switch-off (%.1f)", onAt, offAt)
	}
	// The outbound switch must happen in the second half of the outbound
	// leg (robot deep in the fade region), not immediately.
	if offAt < 10 {
		t.Errorf("switched local too early: %.1f s", offAt)
	}
}

func TestFig11Output(t *testing.T) {
	out := runQuick(t, "fig11")
	for _, want := range []string{"bw(msg/s)", "LOCAL", "REMOTE", "lost"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig11 missing %q", want)
		}
	}
}

func TestFig12VelocityOrdering(t *testing.T) {
	results, err := fig12(true)
	if err != nil {
		t.Fatal(err)
	}
	v := make(map[string]float64)
	for i, d := range deployments() {
		v[d.Name] = results[i].AvgMaxVel
	}
	if v["edge+8T"] <= v["local"] {
		t.Errorf("edge+8T (%.3f) must beat local (%.3f)", v["edge+8T"], v["local"])
	}
	if v["edge+8T"] < 1.5*v["local"] {
		t.Errorf("offload velocity gain too small: %.3f vs %.3f", v["edge+8T"], v["local"])
	}
	if v["edge+8T"] <= v["edge"] {
		t.Errorf("parallelization must raise vmax: %.3f vs %.3f", v["edge+8T"], v["edge"])
	}
	if v["cloud+12T"] <= v["cloud"] {
		t.Errorf("cloud parallelization must raise vmax: %.3f vs %.3f", v["cloud+12T"], v["cloud"])
	}
}

func TestFig13Reductions(t *testing.T) {
	rows, err := runFig13Workload(core.NavigationWithMap, true)
	if err != nil {
		t.Fatal(err)
	}
	local, bestTotal, bestTime := fig13Best(rows)
	eRed, tRed := local.Total/bestTotal.Total, local.Time/bestTime.Time
	if eRed < 1.2 {
		t.Errorf("energy reduction %.2fx — offloading must save energy", eRed)
	}
	if tRed < 1.5 {
		t.Errorf("time reduction %.2fx — offloading must save time", tRed)
	}
}

func TestFig14GapGrowsWithSpeed(t *testing.T) {
	policies, err := fig14(true)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for _, p := range policies {
		if p.vmaxSum == 0 {
			t.Fatalf("%s: no trace", p.name)
		}
		gaps = append(gaps, p.gapSum/p.vmaxSum)
	}
	low, high := gaps[0], gaps[1]
	// The paper's Fig. 14 claim: the higher the maximum velocity, the
	// bigger the max-vs-real gap.
	if high <= low {
		t.Errorf("gap should grow with the cap: low=%.2f high=%.2f", low, high)
	}
}

func TestAlg1Output(t *testing.T) {
	out := runQuick(t, "alg1")
	for _, want := range []string{"EC", "MCT", "congested WAN", "good network"} {
		if !strings.Contains(out, want) {
			t.Errorf("alg1 missing %q", want)
		}
	}
}

func TestAlg2Output(t *testing.T) {
	out := runQuick(t, "alg2")
	for _, want := range []string{"adaptive", "edge+8T", "local", "dead zone"} {
		if !strings.Contains(out, want) {
			t.Errorf("alg2 missing %q", want)
		}
	}
}

func TestFig12And13And14Render(t *testing.T) {
	if testing.Short() {
		t.Skip("mission sweeps take a few seconds")
	}
	runQuick(t, "fig12")
	runQuick(t, "fig13")
	runQuick(t, "fig14")
}

func TestBatteryOutput(t *testing.T) {
	out := runQuick(t, "battery")
	for _, want := range []string{"missions", "19.98", "endurance"} {
		if !strings.Contains(out, want) {
			t.Errorf("battery missing %q", want)
		}
	}
}

func TestWriteFigures(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFigures(dir, true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig9_local.svg", "fig9_edge.svg", "fig9_cloud.svg",
		"fig10_local.svg", "fig10_edge.svg", "fig10_cloud.svg",
		"fig11.svg", "fig12.svg",
		"fig13_navigation.svg", "fig13_exploration.svg",
		"fig14.svg", "lab_map.svg", "fleet.svg", "vision.svg",
	} {
		b, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("missing figure %s: %v", name, err)
		}
		if !bytes.Contains(b, []byte("<svg")) || !bytes.Contains(b, []byte("</svg>")) {
			t.Errorf("%s is not an SVG", name)
		}
	}
}

func TestFleetOutput(t *testing.T) {
	out := runQuick(t, "fleet")
	for _, want := range []string{"fleet", "crossover", "edge", "cloud"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet missing %q", want)
		}
	}
}

// TestRecordIntoCoversFleet checks that an armed store records the
// fleet sweep's missions too, as `reproduce -store` promises for every
// mission a campaign runs.
func TestRecordIntoCoversFleet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.lgvstore")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	RecordInto(st, "test/fleet")
	defer RecordInto(nil, "")
	runQuick(t, "fleet")
	RecordInto(nil, "")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	perDeploy := make(map[string]int)
	for _, m := range st.List(store.Filter{}) {
		if m.Start.Label != "test/fleet" || !m.Finished() {
			t.Errorf("mission %d: label %q, finished %v", m.Index, m.Start.Label, m.Finished())
		}
		perDeploy[m.Start.Deploy]++
	}
	// Three quick fleet sizes on each of the two servers.
	if perDeploy["edge+8T"] != 3 || perDeploy["cloud+12T"] != 3 || len(perDeploy) != 2 {
		t.Errorf("recorded missions per deployment = %v, want edge+8T and cloud+12T 3 each", perDeploy)
	}
}

func TestDVFSOutput(t *testing.T) {
	out := runQuick(t, "dvfs")
	for _, want := range []string{"GHz", "edge+8T", "computerW"} {
		if !strings.Contains(out, want) {
			t.Errorf("dvfs missing %q", want)
		}
	}
}

func TestVisionOutput(t *testing.T) {
	out := runQuick(t, "vision")
	for _, want := range []string{"blur limit", "losses", "safe cruise"} {
		if !strings.Contains(out, want) {
			t.Errorf("vision missing %q", want)
		}
	}
}

func TestVisionRealizedSpeedSaturates(t *testing.T) {
	var low, high visionRow
	for _, r := range vision(false) {
		switch r.speed {
		case 0.2:
			low = r
		case 0.8:
			high = r
		}
	}
	// Commanding 4x the speed must not realize 4x: the blur limit caps it.
	if high.realized > 2*low.realized {
		t.Errorf("realized speed did not saturate: low=%.3f high=%.3f", low.realized, high.realized)
	}
	if high.losses < 5 {
		t.Errorf("fast command should lose tracking repeatedly, got %v", high.losses)
	}
}

func TestFig3Output(t *testing.T) {
	out := runQuick(t, "fig3")
	for _, want := range []string{"v_max", "ΔE per", "E_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 missing %q", want)
		}
	}
}

func TestFig9ShapeHoldsOnOfficeDataset(t *testing.T) {
	// Environment-independence: the ECN acceleration ordering (cloud >
	// gateway >> local) must hold on a structurally different stream.
	ds := trace.OfficeDataset(11, 20)
	wk := ecnWorkPerUpdate(ds, 30, 15)
	edge := hostsim.EdgeGateway().Speedup(wk, 8)
	cloud := hostsim.CloudServer().Speedup(wk, 24)
	if edge < 10 || cloud <= edge {
		t.Errorf("office dataset broke the Fig. 9 shape: edge=%.1f cloud=%.1f", edge, cloud)
	}
}

func TestAPSelOutput(t *testing.T) {
	out := runQuick(t, "apsel")
	for _, want := range []string{"AP selection", "Algorithm 2", "1 WAP", "2 WAPs"} {
		if !strings.Contains(out, want) {
			t.Errorf("apsel missing %q", want)
		}
	}
}

func TestAPSelControlGap(t *testing.T) {
	rows := apsel(true)
	if rows[0].scenario != "1 WAP" || rows[1].scenario != "1 WAP" {
		t.Fatalf("rows 0 and 1 are not the single-WAP walks: %+v", rows[:2])
	}
	baseCtrl, alg2Ctrl := rows[0].ctrl, rows[1].ctrl
	// The §X claim: with one AP, the baseline loses control in the dead
	// zone while Algorithm 2 retains it everywhere.
	if alg2Ctrl < 0.99 {
		t.Errorf("Algorithm 2 control availability = %.2f, want 1.0", alg2Ctrl)
	}
	if baseCtrl > 0.9 {
		t.Errorf("single-AP baseline availability = %.2f — dead zone should bite", baseCtrl)
	}
}

func TestChaosExperimentOutput(t *testing.T) {
	out := runQuick(t, "chaos")
	for _, want := range []string{"wap:4-12", "server:20-26", "failover", "stops",
		"critical path", "before [0,4)", "during [4,26)"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos missing %q", want)
		}
	}
}

func TestCritPathExperimentOutput(t *testing.T) {
	out := runQuick(t, "critpath")
	for _, want := range []string{"local", "edge+8T", "cloud+12T", "compute p50/p95", "transport"} {
		if !strings.Contains(out, want) {
			t.Errorf("critpath missing %q", want)
		}
	}
	// The all-local row must be pure compute; the offloaded rows must
	// show a nonzero transport leg. Cheap shape check on the table text.
	if !strings.Contains(out, "Reading:") {
		t.Error("critpath missing reading")
	}
}
