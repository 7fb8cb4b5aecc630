package simtest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"lgvoffload/internal/core"
)

// FuzzBuildScenarioMission feeds the POST /missions spec decoder
// arbitrary bytes. Each input must either fail, or build a map with
// positive dimensions whose cells match them and stamp a
// MissionStart.Scenario that decodes back to the same Scenario.
func FuzzBuildScenarioMission(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b, err := json.Marshal(Generate(seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, world := range []string{
		`{"kind":"empty","w":-5,"h":5}`,
		`{"kind":"clutter"}`,
		`{"kind":"empty","w":5,"h":4,"res":-0.05}`,
		`{"kind":"empty","w":2000,"h":2000,"res":0.01}`,
	} {
		f.Add([]byte(`{"mission_seed":1,"workload":"navigation","world":` + world +
			`,"start_x":1,"start_y":1,"goal_x":2,"goal_y":2,"deploy":{"mode":"local","threads":1},` +
			`"fleet":1,"link":{"profile":"good","wapx":1,"wapy":1},"max_sim_time":5}`))
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		cfg, start, err := BuildScenarioMission(spec)
		if err != nil {
			return
		}
		if m := cfg.Map; m == nil || m.Width < 1 || m.Height < 1 || len(m.Cells) != m.Width*m.Height {
			t.Fatalf("built a bad map from %q", spec)
		}
		var want, got Scenario
		if err := json.Unmarshal(spec, &want); err != nil {
			t.Fatalf("accepted spec does not decode: %v", err)
		}
		dec := json.NewDecoder(bytes.NewReader(start.Scenario))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("stamped scenario %s does not decode: %v", start.Scenario, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stamped scenario decodes to %+v, spec to %+v", got, want)
		}
	})
}

// TestTinyResolutionWorldsFailStartCheck admits two 1000x1000-cell
// worlds whose cells are far smaller than the robot. A start check that
// sized its search square from the robot's reach would walk about
// 2x10^11 cells per row at 1e-12 m, and at 1e-300 m the size overflows
// int so no cell would be checked. Both must fail core.NewMission at
// once with the start-collision error.
func TestTinyResolutionWorldsFailStartCheck(t *testing.T) {
	for _, world := range []string{
		`{"kind":"empty","w":1e-9,"h":1e-9,"res":1e-12}`,
		`{"kind":"empty","w":1e-297,"h":1e-297,"res":1e-300}`,
	} {
		spec := `{"mission_seed":1,"workload":"navigation","world":` + world +
			`,"start_x":0,"start_y":0,"goal_x":0,"goal_y":0,"deploy":{"mode":"local","threads":1},` +
			`"fleet":1,"link":{"profile":"good","wapx":0,"wapy":0},"max_sim_time":5}`
		cfg, _, err := BuildScenarioMission([]byte(spec))
		if err != nil {
			t.Fatalf("%s: %v", world, err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := core.NewMission(cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "start pose") {
				t.Errorf("%s: NewMission error %v, want the start-collision error", world, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: NewMission still checking the start pose after 20 s", world)
		}
	}
}
