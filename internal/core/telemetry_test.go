package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/world"
)

// deadZoneAdaptive is the out-of-range walk that forces the adaptive
// controller to switch placement — the richest telemetry a mission emits.
func deadZoneAdaptive(tel *obs.Telemetry) MissionConfig {
	m := world.EmptyRoomMap(24, 3, 0.1)
	link := netsim.DefaultEdgeLink(geom.V(1, 1.5))
	link.GoodRange = 3
	link.FadeRange = 8
	return MissionConfig{
		Workload:   NavigationWithMap,
		Map:        m,
		Start:      geom.P(1, 1.5, 0),
		Goal:       geom.V(22, 1.5),
		WAP:        geom.V(1, 1.5),
		LinkCfg:    &link,
		Deployment: DeployAdaptive(HostEdge, 8, GoalMCT),
		Seed:       5,
		MaxSimTime: 600,
		Telemetry:  tel,
	}
}

func TestMissionTelemetryJSONLValid(t *testing.T) {
	tel := obs.NewTelemetry(1 << 16)
	res, err := Run(deadZoneAdaptive(tel))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("mission failed: %s", res.Reason)
	}

	var buf bytes.Buffer
	if err := tel.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	kinds := map[obs.Kind]int{}
	lines := 0
	for sc.Scan() {
		lines++
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", lines, err, sc.Text())
		}
		kinds[ev.Kind]++
		// Spans must nest within mission time.
		if ev.T1 < ev.T0 {
			t.Fatalf("line %d: span ends before it starts: %+v", lines, ev)
		}
		if ev.T0 < 0 || ev.T0 > res.TotalTime+1 {
			t.Fatalf("line %d: start outside mission time (%.1f): %+v",
				lines, res.TotalTime, ev)
		}
		if ev.Phase != "navigation" {
			t.Fatalf("line %d: phase not stamped: %+v", lines, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no telemetry events recorded")
	}
	for _, k := range []obs.Kind{obs.KindTick, obs.KindNodeExec, obs.KindProbe,
		obs.KindTransfer, obs.KindSwitch} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in a switching mission (have %v)", k, kinds)
		}
	}
	if kinds[obs.KindSwitch] != res.Switches {
		t.Errorf("switch events = %d, Result.Switches = %d",
			kinds[obs.KindSwitch], res.Switches)
	}
}

func TestMissionPostMortemCarriesAlg2Inputs(t *testing.T) {
	tel := obs.NewTelemetry(1 << 16)
	res, err := Run(deadZoneAdaptive(tel))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := obs.WritePostMortem(&sb, tel, res.TotalTime); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"node execution latency", NodeCostmap, NodeTracking, NodeMux,
		"host occupancy", "adaptation decision log", "switch", "bw=", "dir=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, out)
		}
	}
}

func TestMissionDecisionLog(t *testing.T) {
	res, err := Run(deadZoneAdaptive(nil)) // decision log needs no telemetry
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) == 0 || len(res.Decisions) != res.Switches {
		t.Fatalf("decisions = %d, switches = %d", len(res.Decisions), res.Switches)
	}
	for i, d := range res.Decisions {
		if d.Reason == "" || d.From == "" || d.To == "" || d.From == d.To {
			t.Errorf("decision %d underspecified: %+v", i, d)
		}
		if d.Bandwidth < 0 {
			t.Errorf("decision %d: negative bandwidth: %+v", i, d)
		}
		if d.RemoteOK && (d.LocalVDP <= 0 || d.CloudVDP <= 0) {
			t.Errorf("decision %d: alg1 decision without VDP inputs: %+v", i, d)
		}
	}
	// The dead-zone walk must retreat to local at least once, and the
	// retreat must record the network inputs that justified it.
	sawRetreat := false
	for _, d := range res.Decisions {
		if d.To == "all-local" {
			sawRetreat = true
			if d.Reason != "alg2-gate" && !strings.HasPrefix(d.Reason, "alg1-") {
				t.Errorf("retreat with unknown reason %q", d.Reason)
			}
		}
	}
	if !sawRetreat {
		t.Error("no retreat to all-local across a dead zone")
	}
}

func TestTelemetryDisabledMatchesEnabled(t *testing.T) {
	// Telemetry must observe, not perturb: the virtual-time outcome with
	// and without a sink attached must be identical.
	plain, err := Run(deadZoneAdaptive(nil))
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := Run(deadZoneAdaptive(obs.NewTelemetry(0)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalTime != instrumented.TotalTime ||
		plain.Switches != instrumented.Switches ||
		plain.MsgsSent != instrumented.MsgsSent {
		t.Errorf("telemetry changed the mission: %+v vs %+v",
			plain.TotalTime, instrumented.TotalTime)
	}
	// Energy sums over a map, so two identical runs already differ in the
	// last ULP; anything beyond that would mean telemetry perturbed physics.
	if diff := math.Abs(plain.TotalEnergy - instrumented.TotalEnergy); diff > 1e-9 {
		t.Errorf("energy diverged by %g J: %v vs %v",
			diff, plain.TotalEnergy, instrumented.TotalEnergy)
	}
}

func TestProfilerProcTimeOK(t *testing.T) {
	p := NewProfiler()
	if got, ok := p.ProcTimeOK(NodeMux); ok || got != 0 {
		t.Errorf("unseen node: ProcTimeOK = %v, %v; want 0, false", got, ok)
	}
	p.RecordProc(NodeMux, 0.004)
	got, ok := p.ProcTimeOK(NodeMux)
	if !ok || got != 0.004 {
		t.Errorf("ProcTimeOK = %v, %v", got, ok)
	}
}

func TestProfilerRTTOK(t *testing.T) {
	p := NewProfiler()
	if got, ok := p.RTTOK(); ok || got != 0 {
		t.Errorf("cold profiler: RTTOK = %v, %v; want 0, false", got, ok)
	}
	p.RecordRTT(0.025)
	got, ok := p.RTTOK()
	if !ok || got != 0.025 {
		t.Errorf("RTTOK = %v, %v", got, ok)
	}
}

// TestFlightBundleHoldsEveryWindowEvent: a bundle dumped at the last
// frame of the Fig. 13 lab navigation mission (perfbench's nav-observed
// mission on seed 1, which reaches its goal at 39.8 s) carries every
// event the mission timeline holds for the bundle's window — more than
// a thousand at this mission's event rate.
func TestFlightBundleHoldsEveryWindowEvent(t *testing.T) {
	tel := obs.NewTelemetry(1 << 16)
	fr := obs.NewFlightRecorder(obs.FlightConfig{})
	if _, err := Run(MissionConfig{
		Workload: NavigationWithMap, Map: world.LabMap(),
		Start: geom.P(0.6, 0.6, 0), Goal: geom.V(11, 5), WAP: geom.V(6, 3),
		Deployment: DeployAdaptive(HostEdge, 8, GoalMCT),
		Seed:       1, MaxSimTime: 40,
		Telemetry: tel, FlightRec: fr,
	}); err != nil {
		t.Fatal(err)
	}
	now := fr.LastTime()
	b := fr.ForceDump("test", "", now)
	if b == nil {
		t.Fatal("ForceDump returned nil")
	}

	sc := bufio.NewScanner(bytes.NewReader(b.Data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var hdr struct{ Window float64 }
	var got []obs.Event
	for first := true; sc.Scan(); first = false {
		if first {
			if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var row struct{ Event *obs.Event }
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Event != nil {
			got = append(got, *row.Event)
		}
	}
	var want []obs.Event
	for _, ev := range tel.Events() {
		if math.Max(ev.T0, ev.T1) >= now-hdr.Window && ev.T0 <= now {
			want = append(want, ev)
		}
	}
	if len(want) <= 1024 {
		t.Fatalf("window holds only %d events; the mission must emit more than 1024 to test the bundle", len(want))
	}
	if len(got) != len(want) || b.Events != len(want) {
		t.Fatalf("bundle holds %d events (header %d), the timeline holds %d in its %g s window",
			len(got), b.Events, len(want), hdr.Window)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bundle event %d = %+v, timeline %+v", i, got[i], want[i])
		}
	}
}
