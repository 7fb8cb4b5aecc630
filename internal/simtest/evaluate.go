package simtest

import "errors"

// Options controls which expensive invariants Evaluate runs.
type Options struct {
	// Matrix enables the 8-configuration kernel thread×partition
	// determinism sweep (8 extra mission runs per scenario).
	Matrix bool
	// Sched enables the sched-fair control-plane invariant (runs the
	// scenario plus two seed variants through a concurrent scheduler and
	// again solo — several extra mission runs per scenario).
	Sched bool
}

// Violation is one failed invariant on one scenario.
type Violation struct {
	Invariant string `json:"invariant"`
	Error     string `json:"error"`
}

// Report summarizes one scenario evaluation.
type Report struct {
	Scenario   Scenario    `json:"scenario"`
	Violations []Violation `json:"violations,omitempty"`
	Checked    []string    `json:"checked"`
	Skipped    []string    `json:"skipped,omitempty"`
	// Runs counts the mission runs the evaluation made: the primary, the
	// shared rerun and any check's own rerun, and every baseline and
	// variant a check ran.
	Runs int `json:"runs"`
}

// Evaluate runs the scenario once and checks every applicable
// invariant against the outcome. A scenario the engine itself rejects
// (e.g. a sampled pose that is unreachable for setup reasons) returns
// an error, which campaigns count separately from violations.
func Evaluate(sc Scenario, opts Options) (*Report, error) {
	return evaluateWith(sc, Invariants(), opts)
}

func isSkip(err error) bool { return errors.Is(err, ErrSkip) }

// violates re-runs a single invariant against a (candidate) scenario
// and returns its failure and the mission runs it made; the shrinker
// uses it to test whether a reduction preserves the failure. Scenarios
// the engine rejects do not violate.
func violates(sc Scenario, inv Invariant) (string, bool, int) {
	o, err := RunScenario(sc)
	if err != nil {
		return "", false, 0
	}
	if err := inv.Check(o); err != nil && !errors.Is(err, ErrSkip) {
		return err.Error(), true, o.runs
	}
	return "", false, o.runs
}
