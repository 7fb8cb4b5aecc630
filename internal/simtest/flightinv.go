package simtest

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"

	"lgvoffload/internal/obs"
)

// checkFlightBundle is the black-box invariant: attaching telemetry, the
// flight recorder and the SLO engine must be non-invasive (the observed
// rerun is byte-identical to the bare primary), a forced breach must
// freeze a structurally valid bundle that contains the breach tick
// itself and the timeline events of its window, and the whole capture
// must be deterministic — a second run with the same observers produces
// the byte-identical bundle, frames and events alike. It reads the
// bundle of the scenario's shared rerun (see rerun.go), and makes the
// second run itself.
//
// The forced rule is energy_rate<=0@10s: idle power accrues every
// physics step on every mission (local or offloaded), so the windowed
// energy rate is strictly positive and the rule deterministically opens
// a few ticks after the engine's warmup — unlike a VDP-based rule,
// which never fires on all-local missions where pipeline latency is 0.
const flightForcedRule = "energy_rate<=0@10s"

func checkFlightBundle(o *Outcome) error {
	r := o.rerunFor(withFlight)
	if err := r.check(o, "observed re-run errored", "flight recorder/SLO perturbed the mission"); err != nil {
		return err
	}

	breaches := r.slo.Breaches()
	if len(breaches) == 0 {
		// The rule arms after the engine warmup plus the sustain count; a
		// mission that ends before then legitimately never breaches.
		if r.out.Res.TotalTime < 10 {
			return ErrSkip
		}
		return fmt.Errorf("mission ran %.1fs but the always-breaching rule %q never opened",
			r.out.Res.TotalTime, flightForcedRule)
	}
	breach := breaches[0]

	b1 := bundleByReason(r.fr, "slo:"+obs.SLOEnergyRate)
	if b1 == nil {
		return fmt.Errorf("breach at t=%.3f produced no slo:%s bundle (%d bundles total)",
			breach.T, obs.SLOEnergyRate, len(r.fr.Bundles()))
	}
	if _, err := obs.VerifyFlightBundle(b1.Data); err != nil {
		return fmt.Errorf("bundle fails verification: %w", err)
	}
	if b1.Events == 0 {
		// Every control tick emits a tick event, so the window has some.
		return fmt.Errorf("bundle (reason %q, t=%.3f) carries no timeline events", b1.Reason, b1.T)
	}
	found, err := bundleHasFrameAt(b1.Data, breach.T)
	if err != nil {
		return fmt.Errorf("bundle parse: %w", err)
	}
	if !found {
		return fmt.Errorf("bundle (reason %q, t=%.3f) is missing the breach tick t=%.3f",
			b1.Reason, b1.T, breach.T)
	}

	// Determinism: the identical observed run must freeze the identical
	// bytes. No wall time, no map order, no rng may leak into a bundle.
	r2 := o.rerun(r.set | again)
	if err := cmp.Or(r2.setupErr, r2.runErr); err != nil {
		return fmt.Errorf("second observed run errored: %w", err)
	}
	b2 := bundleByReason(r2.fr, "slo:"+obs.SLOEnergyRate)
	if b2 == nil {
		return fmt.Errorf("second run produced no slo:%s bundle", obs.SLOEnergyRate)
	}
	if !bytes.Equal(b1.Data, b2.Data) {
		return fmt.Errorf("flight bundle is not deterministic: %s", firstDiff(b1.Data, b2.Data))
	}
	return nil
}

// bundleByReason returns the recorder's first bundle with the given
// trigger reason, or nil.
func bundleByReason(fr *obs.FlightRecorder, reason string) *obs.FlightBundle {
	for _, b := range fr.Bundles() {
		if b.Reason == reason {
			return b
		}
	}
	return nil
}

// bundleHasFrameAt reports whether the bundle's JSONL body contains a
// frame at exactly virtual time t.
func bundleHasFrameAt(data []byte, t float64) (bool, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		if first {
			first = false // header line
			continue
		}
		var row struct {
			Frame *obs.FlightFrame `json:"frame"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return false, err
		}
		if row.Frame != nil && row.Frame.T == t {
			return true, nil
		}
	}
	return false, sc.Err()
}
