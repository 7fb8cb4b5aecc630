package simtest

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// smallNav is a fast hand-built scenario used where test runtime
// matters more than matrix coverage: a short navigation mission in a
// small empty room.
func smallNav(deploy DeploySpec, link, faultSpec string) Scenario {
	return Scenario{
		Seed:           7,
		Workload:       "navigation",
		World:          WorldSpec{Kind: "empty", W: 6, H: 4, Res: 0.05},
		StartX:         1.0,
		StartY:         1.0,
		GoalX:          5.0,
		GoalY:          3.0,
		Deploy:         deploy,
		Fleet:          1,
		Link:           LinkSpec{Profile: link, WAPX: 1.0, WAPY: 1.0},
		Faults:         faultSpec,
		MaxSimTime:     45,
		TrackerSamples: 200,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if _, err := a.Mission(); err != nil {
			t.Fatalf("seed %d: generated scenario does not build: %v (%s)", seed, err, a.Label())
		}
	}
}

// TestGenerateCoversMatrix asserts the sampler actually reaches every
// axis of the cross-product the tentpole promises.
func TestGenerateCoversMatrix(t *testing.T) {
	workloads := map[string]bool{}
	worlds := map[string]bool{}
	deploys := map[string]bool{}
	goals := map[string]bool{}
	links := map[string]bool{}
	faultKinds := map[string]bool{}
	fleets := map[int]bool{}
	threads := map[int]bool{}
	for seed := int64(0); seed < 400; seed++ {
		sc := Generate(seed)
		workloads[sc.Workload] = true
		worlds[sc.World.Kind] = true
		deploys[sc.Deploy.Mode] = true
		if sc.Deploy.Goal != "" {
			goals[sc.Deploy.Goal] = true
		}
		links[sc.Link.Profile] = true
		fleets[sc.Fleet] = true
		threads[sc.Deploy.Threads] = true
		for _, w := range splitSpec(sc.Faults) {
			faultKinds[strings.SplitN(w, ":", 2)[0]] = true
		}
	}
	wantAll := func(name string, got map[string]bool, want ...string) {
		t.Helper()
		for _, w := range want {
			if !got[w] {
				t.Errorf("%s %q never sampled in 400 seeds (got %v)", name, w, got)
			}
		}
	}
	wantAll("workload", workloads, "navigation", "exploration", "coverage")
	wantAll("world", worlds, "lab", "course", "empty", "clutter")
	wantAll("deploy", deploys, "local", "edge", "cloud", "adaptive")
	wantAll("goal", goals, "ec", "mct")
	wantAll("link", links, "good", "fade", "deadzone", "interference")
	wantAll("fault kind", faultKinds, "wap", "server", "burst", "corrupt", "partup", "partdown")
	if len(fleets) < 3 || !fleets[1] {
		t.Errorf("fleet sizes undersampled: %v", fleets)
	}
	for _, th := range []int{1, 2, 4, 8} {
		if !threads[th] {
			t.Errorf("thread count %d never sampled: %v", th, threads)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Generate(12345)
	r := Repro{Invariant: "energy-sum", Error: "x", CampaignSeed: 12345, Scenario: sc}
	dir := t.TempDir()
	path, err := SaveRepro(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Scenario, sc) {
		t.Fatalf("scenario did not round-trip:\n%+v\n%+v", back.Scenario, sc)
	}
	if back.Format != ReproFormatVersion {
		t.Fatalf("format: got %d", back.Format)
	}
}

// TestInvariantsOnRepresentativeScenarios runs the cheap invariant set
// against hand-built scenarios covering the main regimes: all-local,
// adaptive EC on a clean link (exercises the dominance baseline),
// adaptive MCT in a dead zone with faults (exercises watchdog,
// failover, accounting under drops).
func TestInvariantsOnRepresentativeScenarios(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"local", smallNav(DeploySpec{Mode: "local", Threads: 1}, "good", "")},
		{"adaptive-ec-good", smallNav(DeploySpec{Mode: "adaptive", Remote: "edge", Goal: "ec", Threads: 4}, "good", "")},
		{"adaptive-mct-deadzone-faults", smallNav(DeploySpec{Mode: "adaptive", Remote: "cloud", Goal: "mct", Threads: 4},
			"deadzone", "wap:6-12;burst:15-18:0.7")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := Evaluate(tc.sc, Options{})
			if err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			for _, v := range rep.Violations {
				t.Errorf("invariant %s violated: %s", v.Invariant, v.Error)
			}
			if len(rep.Checked) < 5 {
				t.Errorf("only %d invariants checked (%v)", len(rep.Checked), rep.Checked)
			}
		})
	}
}

// TestMatrixDeterminism is the acceptance check: byte-identical mission
// results across kernel thread counts {1,2,4,8} × {block, interleaved}.
func TestMatrixDeterminism(t *testing.T) {
	sc := smallNav(DeploySpec{Mode: "adaptive", Remote: "edge", Goal: "mct", Threads: 4}, "fade", "")
	sc.SlamParticles = 10
	rep, err := Evaluate(sc, Options{Matrix: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%s: %s", v.Invariant, v.Error)
	}
	found := false
	for _, name := range rep.Checked {
		if name == "matrix-determinism" {
			found = true
		}
	}
	if !found {
		t.Fatalf("matrix-determinism did not run (checked %v)", rep.Checked)
	}
}

// TestInvertedInvariantIsCaughtAndShrunk is the pipeline's own
// end-to-end test: negate the watchdog invariant (assert violations
// MUST exist — any healthy run fails it), confirm the campaign
// machinery catches it, the shrinker minimizes the scenario, and the
// saved repro round-trips and replays green under the real library.
func TestInvertedInvariantIsCaughtAndShrunk(t *testing.T) {
	inverted := Invariant{
		Name: "watchdog-zero-vel-inverted",
		Desc: "deliberately negated watchdog check (harness self-test)",
		Check: func(o *Outcome) error {
			if len(o.CmdViolations) == 0 {
				return fmt.Errorf("inverted: expected stale nonzero commands, saw none (%d stalled samples)",
					o.StalledSamples)
			}
			return nil
		},
	}

	sc := smallNav(DeploySpec{Mode: "adaptive", Remote: "edge", Goal: "mct", Threads: 2},
		"good", "burst:5-8:0.5;wap:20-24")
	sc.Waypoints = [][2]float64{{3, 2}}
	sc.Fleet = 2

	msg, caught, runs := violates(sc, inverted)
	if !caught {
		t.Fatalf("inverted invariant was not caught")
	}
	if runs != 1 {
		t.Fatalf("a check that reruns nothing cost %d runs, want 1", runs)
	}
	if !strings.Contains(msg, "inverted") {
		t.Fatalf("unexpected violation message: %s", msg)
	}

	shrunk := Shrink(sc, inverted, 16)
	if shrunk.Steps == 0 {
		t.Fatalf("shrinker made no progress on a reducible scenario")
	}
	// The inverted check fails on every healthy run, so shrinking must
	// reach the floor: no faults, no waypoints, fleet of one.
	if shrunk.Scenario.Faults != "" || len(shrunk.Scenario.Waypoints) != 0 || shrunk.Scenario.Fleet != 1 {
		t.Errorf("shrink left reducible structure: %+v", shrunk.Scenario)
	}

	dir := t.TempDir()
	r := Repro{
		Invariant:    inverted.Name,
		Error:        shrunk.Error,
		CampaignSeed: sc.Seed,
		ShrinkSteps:  shrunk.Steps,
		ShrinkRuns:   shrunk.Runs,
		Scenario:     shrunk.Scenario,
	}
	path, err := SaveRepro(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	repros, _, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 {
		t.Fatalf("corpus has %d repros, want 1 (%s)", len(repros), path)
	}
	// Replay the minimized repro under the *real* invariant library:
	// the scenario must be valid and clean.
	rep, err := Evaluate(repros[0].Scenario, Options{})
	if err != nil {
		t.Fatalf("repro replay errored: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("repro replay violated %s: %s", v.Invariant, v.Error)
	}
}

// TestCampaignSmoke runs a tiny end-to-end campaign over generated
// scenarios; make hunt covers the 200-seed version outside the race
// gate.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke is not for -short")
	}
	stats := Campaign(CampaignOpts{Seeds: 3, StartSeed: 1000, Logf: t.Logf})
	if stats.Seeds != 3 {
		t.Fatalf("campaign evaluated %d seeds, want 3", stats.Seeds)
	}
	for _, r := range stats.Violations {
		t.Errorf("campaign violation %s (seed %d): %s", r.Invariant, r.CampaignSeed, r.Error)
	}
	for _, e := range stats.Errors {
		t.Errorf("campaign error: %s", e)
	}
	// Per seed: the primary, the shared rerun and flight-bundle's second
	// observed run; seed 1002 adds ec-dominance's all-local baseline.
	if stats.Runs != 10 {
		t.Fatalf("campaign counted %d runs, want 3 + 3 + 4 = 10", stats.Runs)
	}
}

// TestSweepsSelectByCampaignSeed: splitting a seed range into shards,
// as cmd/scenhunt does, sweeps the same campaign seeds as one campaign
// over the range, and a one-seed re-hunt sweeps only where the seed
// itself is selected.
func TestSweepsSelectByCampaignSeed(t *testing.T) {
	const seeds = 50
	swept := func(shards int) (matrix, sched []int64) {
		per := (seeds + shards - 1) / shards
		for lo := 0; lo < seeds; lo += per {
			shard := CampaignOpts{StartSeed: int64(lo), MatrixEvery: 25, SchedEvery: 10}
			for i := 0; i < per && lo+i < seeds; i++ {
				seed, o := shard.StartSeed+int64(i), shard.sweeps(i)
				if o.Matrix {
					matrix = append(matrix, seed)
				}
				if o.Sched {
					sched = append(sched, seed)
				}
			}
		}
		return matrix, sched
	}
	for _, shards := range []int{1, 3} {
		matrix, sched := swept(shards)
		if !reflect.DeepEqual(matrix, []int64{0, 25}) || !reflect.DeepEqual(sched, []int64{0, 10, 20, 30, 40}) {
			t.Errorf("%d shards swept matrix %v, sched %v", shards, matrix, sched)
		}
	}
	if o := (CampaignOpts{StartSeed: 31337, MatrixEvery: 25, SchedEvery: 10}).sweeps(0); o.Matrix || o.Sched {
		t.Errorf("re-hunt of seed 31337 sweeps %+v", o)
	}
}

// TestSharedRerunFallsBack covers the four checks that read the shared
// rerun. With the shared rerun's bytes doctored, each must take its own
// narrow rerun, pass, and count it; with the primary's bytes doctored
// instead, each must fail as it does when it runs alone.
func TestSharedRerunFallsBack(t *testing.T) {
	sc := smallNav(DeploySpec{Mode: "adaptive", Remote: "edge", Goal: "ec", Threads: 4}, "fade", "wap:6-12")
	sc.Adversarial = true
	o, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	doctor := func(b []byte) []byte {
		d := append([]byte(nil), b...)
		d[len(d)/2] ^= 1
		return d
	}
	o.shared = withStore | withFlight | fromJSON
	shared := o.rerun(o.shared)
	if err := cmp.Or(shared.check(o, "errored", "diverged"), shared.storeErr); err != nil {
		t.Fatalf("the shared rerun does not reproduce the primary: %v", err)
	}
	canon := o.Canon
	shared.out.Canon = doctor(canon)
	checks := []struct {
		name   string
		narrow []observers
		fail   string
	}{
		{"store-roundtrip", []observers{withStore}, "recording perturbed the mission: "},
		{"replay-determinism", []observers{0}, "replay diverged: "},
		{"adversarial-replay", []observers{fromJSON}, "adversarial replay diverged: "},
		{"flight-bundle", []observers{withFlight, withFlight | again}, "flight recorder/SLO perturbed the mission: "},
	}
	for _, c := range checks {
		inv, _ := InvariantByName(c.name)
		runs := o.runs
		if err := inv.Check(o); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		for _, set := range c.narrow {
			if o.reruns[set] == nil {
				t.Errorf("%s took no rerun with observers %b", c.name, set)
			}
		}
		if got := o.runs - runs; got != len(c.narrow) {
			t.Errorf("%s counted %d runs, want %d", c.name, got, len(c.narrow))
		}
	}

	shared.out.Canon = canon
	o.Canon = doctor(canon)
	for _, c := range checks {
		inv, _ := InvariantByName(c.name)
		want := c.fail + firstDiff(o.Canon, canon)
		if err := inv.Check(o); err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %s", c.name, err, want)
		}
	}
}

func TestCanonicalStability(t *testing.T) {
	sc := smallNav(DeploySpec{Mode: "local", Threads: 1}, "fade", "")
	o1, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1.Canon, o2.Canon) {
		t.Fatalf("canonical encodings differ across identical runs: %s", firstDiff(o1.Canon, o2.Canon))
	}
	if len(o1.Canon) == 0 || o1.Canon[0] != '{' {
		t.Fatalf("canonical encoding is not a JSON object: %q", o1.Canon[:min(20, len(o1.Canon))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
