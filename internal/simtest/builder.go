package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"

	"lgvoffload/internal/core"
	"lgvoffload/internal/store"
)

// BuildScenarioMission is the control plane's scenario builder: it
// turns a raw Scenario JSON document (a POST /missions body, the same
// shape as the repro corpus) into a runnable mission config plus its
// store index row. It matches internal/serve's Builder signature
// without simtest importing serve.
//
// Decoding is strict — unknown fields, trailing data and non-JSON all
// fail — so the daemon's 400 path catches malformed specs at admission
// instead of queueing missions that explode at dispatch. The verbatim
// spec is stamped into MissionStart.Scenario, keeping daemon-run
// missions replayable offline (`lgvstore ls`, ReplayScenario).
func BuildScenarioMission(spec []byte) (core.MissionConfig, store.MissionStart, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return core.MissionConfig{}, store.MissionStart{}, fmt.Errorf("simtest: bad scenario spec: %w", err)
	}
	if dec.More() {
		return core.MissionConfig{}, store.MissionStart{}, fmt.Errorf("simtest: trailing data after scenario spec")
	}
	cfg, err := sc.Mission()
	if err != nil {
		return core.MissionConfig{}, store.MissionStart{}, err
	}
	compact := &bytes.Buffer{}
	if err := json.Compact(compact, spec); err != nil {
		return core.MissionConfig{}, store.MissionStart{}, fmt.Errorf("simtest: bad scenario spec: %w", err)
	}
	return cfg, sc.missionStart(compact.Bytes()), nil
}

// missionStart is the scenario's store index row, with its JSON
// encoding spec stamped in.
func (sc Scenario) missionStart(spec []byte) store.MissionStart {
	return store.MissionStart{
		Label:      sc.Label(),
		Seed:       sc.Seed,
		Workload:   sc.Workload,
		Deploy:     sc.Deploy.Mode,
		Goal:       sc.Deploy.Goal,
		Threads:    sc.Deploy.Threads,
		FaultSpec:  sc.Faults,
		MaxSimTime: sc.MaxSimTime,
		Scenario:   spec,
	}
}
