package simtest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
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
