package simtest

import "fmt"

// CampaignOpts configures an N-seed hunt.
type CampaignOpts struct {
	Seeds     int   // number of scenarios (default 50)
	StartSeed int64 // first generator seed (campaign seed i = StartSeed + i)
	// MatrixEvery runs the kernel thread×partition determinism sweep on
	// every campaign seed that is a multiple of N (0 = never; it costs 8
	// extra runs each).
	MatrixEvery int
	// SchedEvery runs the sched-fair control-plane invariant on every
	// campaign seed that is a multiple of N (0 = never; it costs 5 extra
	// runs each).
	SchedEvery int
	// ReproDir, when non-empty, receives a shrunk JSON repro for every
	// violation.
	ReproDir string
	// ShrinkBudget caps mission runs spent minimizing each violation
	// (default 48).
	ShrinkBudget int
	// Invariants optionally overrides the checked library (tests use
	// this to inject a deliberately broken invariant; nil = Invariants()).
	Invariants []Invariant
	// Logf receives one line per scenario (nil = silent).
	Logf func(format string, args ...any)
}

// CampaignStats aggregates a finished hunt.
type CampaignStats struct {
	Seeds int `json:"seeds"`
	Runs  int `json:"runs"`
	// Checked / Skipped count invariant evaluations by name.
	Checked map[string]int `json:"checked"`
	Skipped map[string]int `json:"skipped"`
	// Violations holds one (shrunk) repro per failed invariant instance.
	Violations []Repro `json:"violations,omitempty"`
	// ReproPaths are the files written for the violations.
	ReproPaths []string `json:"repro_paths,omitempty"`
	// Errors lists scenarios the engine rejected outright (setup
	// failures, not invariant violations).
	Errors []string `json:"errors,omitempty"`
}

// Campaign generates and evaluates opts.Seeds scenarios, shrinking and
// (optionally) persisting a repro for every violation. It never stops
// early: one violating seed must not mask others.
func Campaign(opts CampaignOpts) *CampaignStats {
	if opts.Seeds <= 0 {
		opts.Seeds = 50
	}
	if opts.ShrinkBudget <= 0 {
		opts.ShrinkBudget = 48
	}
	library := opts.Invariants
	if library == nil {
		library = Invariants()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	stats := &CampaignStats{Checked: map[string]int{}, Skipped: map[string]int{}}

	for i := 0; i < opts.Seeds; i++ {
		seed := opts.StartSeed + int64(i)
		sc := Generate(seed)
		rep, err := evaluateWith(sc, library, opts.sweeps(i))
		stats.Seeds++
		if err != nil {
			stats.Errors = append(stats.Errors, fmt.Sprintf("seed %d (%s): %v", seed, sc.Label(), err))
			logf("seed %-6d ERROR %v", seed, err)
			continue
		}
		stats.Runs += rep.Runs
		for _, name := range rep.Checked {
			stats.Checked[name]++
		}
		for _, name := range rep.Skipped {
			stats.Skipped[name]++
		}
		if len(rep.Violations) == 0 {
			logf("seed %-6d ok    %s", seed, sc.Label())
			continue
		}
		for _, v := range rep.Violations {
			logf("seed %-6d FAIL  %s: %s", seed, v.Invariant, v.Error)
			inv, ok := libraryByName(library, v.Invariant)
			if !ok {
				continue
			}
			shrunk := Shrink(sc, inv, opts.ShrinkBudget)
			stats.Runs += shrunk.Runs
			logf("  shrunk in %d steps (%d runs): %s", shrunk.Steps, shrunk.Runs, shrunk.Scenario.Label())
			r := Repro{
				Format:       ReproFormatVersion,
				Invariant:    v.Invariant,
				Error:        shrunk.Error,
				CampaignSeed: seed,
				ShrinkSteps:  shrunk.Steps,
				ShrinkRuns:   shrunk.Runs,
				Scenario:     shrunk.Scenario,
			}
			stats.Violations = append(stats.Violations, r)
			if opts.ReproDir != "" {
				path, err := SaveRepro(opts.ReproDir, r)
				if err != nil {
					stats.Errors = append(stats.Errors, fmt.Sprintf("save repro: %v", err))
					continue
				}
				stats.ReproPaths = append(stats.ReproPaths, path)
				logf("  repro written: %s", path)
			}
		}
	}
	return stats
}

// sweeps selects the expensive sweeps for the campaign's i-th scenario
// by its campaign seed StartSeed+i, not by i, so a range split into
// shards (cmd/scenhunt) sweeps the same seeds as one campaign over the
// whole range.
func (opts CampaignOpts) sweeps(i int) Options {
	seed := opts.StartSeed + int64(i)
	every := func(n int) bool { return n > 0 && seed%int64(n) == 0 }
	return Options{Matrix: every(opts.MatrixEvery), Sched: every(opts.SchedEvery)}
}

// evaluateWith is Evaluate generalized over an invariant library.
func evaluateWith(sc Scenario, library []Invariant, opts Options) (*Report, error) {
	o, err := RunScenario(sc)
	if err != nil {
		return nil, err
	}
	// The shared rerun attaches what the checks that read it need;
	// adversarial-replay skips a scenario that is not adversarial.
	o.shared = withStore | withFlight
	if sc.Adversarial {
		o.shared |= fromJSON
	}
	rep := &Report{Scenario: sc}
	for _, inv := range library {
		if inv.Name == "matrix-determinism" && !opts.Matrix {
			continue
		}
		if inv.Name == "sched-fair" && !opts.Sched {
			continue
		}
		err := inv.Check(o)
		switch {
		case err == nil:
			rep.Checked = append(rep.Checked, inv.Name)
		case isSkip(err):
			rep.Skipped = append(rep.Skipped, inv.Name)
		default:
			rep.Checked = append(rep.Checked, inv.Name)
			rep.Violations = append(rep.Violations, Violation{Invariant: inv.Name, Error: err.Error()})
		}
	}
	rep.Runs = o.runs
	return rep, nil
}

func libraryByName(library []Invariant, name string) (Invariant, bool) {
	for _, inv := range library {
		if inv.Name == name {
			return inv, true
		}
	}
	return Invariant{}, false
}
