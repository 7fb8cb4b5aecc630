package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lgvoffload/internal/core"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/store"
)

// observers is a set of what a rerun attaches. replay-determinism,
// store-roundtrip, flight-bundle and adversarial-replay each compare a
// rerun with the primary, with nothing, withStore, withFlight or
// fromJSON attached. An evaluation's one shared rerun attaches what all
// of them need (Outcome.shared); a check takes its own rerun only when
// the shared one does not reproduce the primary, so a failure is worded
// and attributed as if that check had run alone. A shrink of one
// invariant shares nothing: its rerun is the check's own.
type observers uint8

const (
	withStore  observers = 1 << iota // a store recorder, read back from a cold reopen
	withFlight                       // telemetry, the flight recorder and flightForcedRule's SLO engine
	fromJSON                         // the scenario decoded from its JSON encoding, run in its place
	again                            // a second, independent run with the same observers
)

// rerun is one rerun of an Outcome's scenario and what its observers
// saw.
type rerun struct {
	set observers
	out *Outcome // nil unless the mission completed
	// setupErr is a failure to attach an observer, worded as its check
	// reports it; runErr is the mission's own error.
	setupErr, runErr error

	// withStore: the scenario JSON stamped into the store, and the
	// mission read back, or the first failure of Finish, close, reopen
	// or read-back.
	scJSON   []byte
	stored   *store.MissionData
	storeErr error

	// withFlight: the recorder and the SLO engine the run fed.
	fr  *obs.FlightRecorder
	slo *obs.SLOEngine
}

// check words r's failure to reproduce o: a set-up error as is, the
// run's error after errored, and the first byte difference after
// diverged.
func (r *rerun) check(o *Outcome, errored, diverged string) error {
	switch {
	case r.setupErr != nil:
		return r.setupErr
	case r.runErr != nil:
		return fmt.Errorf("%s: %w", errored, r.runErr)
	case !bytes.Equal(o.Canon, r.out.Canon):
		return fmt.Errorf("%s: %s", diverged, firstDiff(o.Canon, r.out.Canon))
	}
	return nil
}

// rerunFor returns the rerun a check needing the observers in need
// reads: the shared rerun when it reproduces the primary with every
// observer intact, else the check's own rerun with only need attached.
func (o *Outcome) rerunFor(need observers) *rerun {
	if r := o.rerun(o.shared | need); r.check(o, "", "") == nil && r.storeErr == nil {
		return r
	}
	return o.rerun(need)
}

// rerun runs o's scenario once per observer set, with the set attached.
func (o *Outcome) rerun(set observers) *rerun {
	if r := o.reruns[set]; r != nil {
		return r
	}
	r := &rerun{set: set}
	o.reruns[set] = r

	sc, opts := o.Scenario, runOpts{}
	if set&(withStore|fromJSON) != 0 {
		var err error
		if r.scJSON, err = json.Marshal(sc); err != nil {
			r.setupErr = fmt.Errorf("scenario marshal: %w", err)
			return r
		}
	}
	if set&fromJSON != 0 {
		sc = Scenario{}
		if err := json.Unmarshal(r.scJSON, &sc); err != nil {
			r.setupErr = fmt.Errorf("scenario unmarshal: %w", err)
			return r
		}
	}
	if set&withFlight != 0 {
		rules, err := obs.ParseSLORules(flightForcedRule)
		if err != nil {
			r.setupErr = fmt.Errorf("forced rule: %w", err)
			return r
		}
		// Near-zero dump spacing and a high dump cap so an early watchdog
		// or failover dump can never rate-limit the breach dump away.
		r.fr = obs.NewFlightRecorder(obs.FlightConfig{MinSpacing: 1e-9, MaxDumps: 1024})
		r.slo = obs.NewSLOEngine(rules)
		opts.tel, opts.fr, opts.slo = obs.NewTelemetry(0), r.fr, r.slo
	}
	var st *store.Store
	if set&withStore != 0 {
		dir, err := os.MkdirTemp("", "lgv-storeinv-")
		if err != nil {
			r.setupErr = fmt.Errorf("temp dir: %w", err)
			return r
		}
		defer os.RemoveAll(dir)
		if st, err = store.Open(filepath.Join(dir, "mission.lgvstore")); err != nil {
			r.setupErr = fmt.Errorf("open: %w", err)
			return r
		}
		if opts.rec, err = st.Begin(o.Scenario.missionStart(r.scJSON)); err != nil {
			st.Close()
			r.setupErr = fmt.Errorf("begin: %w", err)
			return r
		}
	}

	r.out, r.runErr = o.run(sc, opts)
	switch {
	case st == nil:
	case r.runErr != nil:
		opts.rec.Abandon()
		st.Close()
	default:
		r.stored, r.storeErr = readBack(st, opts.rec, core.StoreSummary(r.out.Res))
	}
	return r
}

// readBack finishes the recorded mission with summary, closes the store
// and reads the mission back from a cold reopen.
func readBack(st *store.Store, rec *store.Recorder, summary store.MissionEnd) (*store.MissionData, error) {
	if err := rec.Finish(summary); err != nil {
		st.Close()
		return nil, fmt.Errorf("finish: %w", err)
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	cold, err := store.Open(st.Path())
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	defer cold.Close()
	if tb := cold.Stats().TruncatedBytes; tb != 0 {
		return nil, fmt.Errorf("clean close left a torn tail: %d bytes truncated on reopen", tb)
	}
	md, err := cold.ReadMission(rec.ID())
	if err != nil {
		return nil, fmt.Errorf("read mission %s: %w", rec.ID(), err)
	}
	if md.End == nil {
		return nil, fmt.Errorf("mission %s came back unfinished after Finish", rec.ID())
	}
	return md, nil
}
