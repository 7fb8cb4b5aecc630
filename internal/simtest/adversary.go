package simtest

import (
	"bytes"
	"fmt"
	"math/rand"

	"lgvoffload/internal/obs"
)

// The fault-schedule adversary: a seeded hill-climber over
// internal/faults schedules that searches for the windows the adaptive
// stack handles worst. It mutates window kinds, offsets, and durations
// under a fault-budget constraint (total injected seconds) and scores
// each candidate by running the full mission — watchdog, failover,
// handoff freeze and all — so what it maximizes is exactly the
// end-to-end damage the controller failed to absorb.
//
// Everything is deterministic from (base scenario, AdversaryOpts): the
// search rng is seeded, mission runs are seeded by the scenario, and
// schedules are rendered on a 0.1 s grid so spec strings round-trip
// exactly. The worst schedule found is therefore a replayable artifact,
// not a one-off observation.

// DefaultAdversaryBase is a mission where fault placement matters:
// adaptive offload over a fading link, with enough mission length that
// the schedule has room to hit the controller at its worst moment.
// Generated scenarios (Generate) work too, but many of them are
// local-mode or high-bandwidth and give the adversary nothing to break.
func DefaultAdversaryBase(seed int64) Scenario {
	return Scenario{
		Seed:     seed,
		Workload: "navigation",
		World:    WorldSpec{Kind: "empty", W: 6, H: 4, Res: 0.05},
		StartX:   1.0, StartY: 1.0,
		GoalX: 5.0, GoalY: 3.0,
		// The patrol waypoints keep the mission running well past a single
		// failover hold, so a schedule that re-trips failover just as the
		// controller recovers compounds — the structure a random baseline
		// almost never lines up.
		Waypoints:      [][2]float64{{5.0, 1.0}, {1.0, 3.0}},
		Deploy:         DeploySpec{Mode: "adaptive", Remote: "edge", Goal: "ec", Threads: 4},
		Fleet:          1,
		Link:           LinkSpec{Profile: "fade", WAPX: 1.0, WAPY: 1.0},
		MaxSimTime:     120,
		TrackerSamples: 500,
	}
}

// AdversaryOpts configures the search.
type AdversaryOpts struct {
	// Seed drives the search rng (mutation choices, random baseline).
	// Independent of the mission seed inside the scenario.
	Seed int64
	// Evals is the mission-evaluation budget for the hill-climb. The
	// random baseline gets the same number, so reported improvements are
	// equal-budget comparisons. Default 40.
	Evals int
	// Metric is "energy" (mission TotalEnergy, default) or "time"
	// (TotalTime — a timed-out mission scores MaxSimTime, the worst case).
	Metric string
	// BudgetFrac caps the schedule's total window seconds at this
	// fraction of MaxSimTime. Default 0.25.
	BudgetFrac float64
	// MaxWindows caps the number of windows in a schedule. Default 4.
	MaxWindows int
	// Sink, when non-nil, receives adversary progress metrics.
	Sink *obs.Telemetry
	// Logf, when non-nil, receives one line per improvement.
	Logf func(format string, args ...any)
}

func (o *AdversaryOpts) fill() {
	if o.Evals <= 0 {
		o.Evals = 40
	}
	if o.Metric == "" {
		o.Metric = "energy"
	}
	if o.BudgetFrac <= 0 {
		o.BudgetFrac = 0.25
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 4
	}
}

// AdversaryResult is the outcome of one search.
type AdversaryResult struct {
	// Base is the fault-free scenario the schedules were injected into.
	Base Scenario `json:"base"`
	// BaseScore is the metric with no faults at all.
	BaseScore float64 `json:"base_score"`

	// Worst is Base plus the worst schedule found by the hill-climb,
	// marked Adversarial for the adversarial-replay invariant.
	Worst      Scenario `json:"worst"`
	WorstScore float64  `json:"worst_score"`

	// RandomBest is the best schedule an equal-budget random search
	// found, the baseline the climb must beat.
	RandomBest      Scenario `json:"random_best"`
	RandomBestScore float64  `json:"random_best_score"`

	Metric string `json:"metric"`
	// Evals counts every mission run spent (baseline + climb + shrink).
	Evals int `json:"evals"`
	// Improvements counts accepted hill-climb steps.
	Improvements int `json:"improvements"`
	// ShrinkSteps counts windows removed/shortened by the final
	// score-preserving shrink.
	ShrinkSteps int `json:"shrink_steps"`
	// ReplayIdentical reports whether re-running Worst reproduced the
	// byte-identical canonical result.
	ReplayIdentical bool `json:"replay_identical"`
}

// Gain returns the relative damage of the worst schedule over the best
// random schedule: (worst - base) / (randomBest - base) - 1. Positive
// means the adversary found strictly more damage than equal-budget
// random search. When random found no damage at all the gain is
// reported against the base score instead.
func (r *AdversaryResult) Gain() float64 {
	advDmg := r.WorstScore - r.BaseScore
	rndDmg := r.RandomBestScore - r.BaseScore
	if rndDmg <= 0 {
		if advDmg <= 0 {
			return 0
		}
		return advDmg / r.BaseScore
	}
	return advDmg/rndDmg - 1
}

// FindWorstSchedule runs the adversarial search against base. The base
// scenario's own fault schedule is stripped first: the adversary owns
// the fault budget.
func FindWorstSchedule(base Scenario, opts AdversaryOpts) (*AdversaryResult, error) {
	opts.fill()
	base.Faults = ""
	base.Adversarial = false
	maxT := base.MaxSimTime
	if maxT == 0 {
		maxT = 240
	}
	// All schedule arithmetic runs in integer deciseconds so budget and
	// overlap checks are exact and match the rendered spec bit-for-bit.
	maxTDs := int(maxT * 10)
	budDs := int(opts.BudgetFrac * maxT * 10)
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &AdversaryResult{Base: base, Metric: opts.Metric}

	score := func(ws []advWindow) (float64, error) {
		sc := base
		sc.Faults = renderAdvSpec(ws)
		o, err := RunScenario(sc)
		if err != nil {
			return 0, err
		}
		res.Evals++
		opts.Sink.Count(obs.MAdvEvals, "", 1)
		if opts.Metric == "time" {
			return o.Res.TotalTime, nil
		}
		return o.Res.TotalEnergy, nil
	}

	baseScore, err := score(nil)
	if err != nil {
		return nil, fmt.Errorf("simtest: base scenario does not run: %w", err)
	}
	res.BaseScore = baseScore

	// Equal-budget random baseline: opts.Evals independent schedules.
	var rndBest []advWindow
	rndBestScore := baseScore
	for i := 0; i < opts.Evals; i++ {
		ws := randomSchedule(rng, maxTDs, budDs, opts.MaxWindows)
		s, err := score(ws)
		if err != nil {
			return nil, err
		}
		if s > rndBestScore {
			rndBest, rndBestScore = ws, s
		}
	}
	res.RandomBest = base
	res.RandomBest.Faults = renderAdvSpec(rndBest)
	res.RandomBestScore = rndBestScore

	// Hill-climb, on its own fresh draws (NOT the baseline's best — the
	// comparison must stay equal-budget). The climber spends the first
	// quarter of its budget on best-of-k initialization and the rest on
	// mutations, keeping any candidate that scores strictly higher.
	init := opts.Evals / 4
	if init < 1 {
		init = 1
	}
	starts := heuristicSchedules(maxTDs, budDs, opts.MaxWindows)
	var cur []advWindow
	curScore := baseScore - 1 // any schedule beats the sentinel
	for i := 0; i < init; i++ {
		var ws []advWindow
		if i < len(starts) {
			ws = starts[i]
		} else {
			ws = randomSchedule(rng, maxTDs, budDs, opts.MaxWindows)
		}
		s, err := score(ws)
		if err != nil {
			return nil, err
		}
		if s > curScore {
			cur, curScore = ws, s
		}
	}
	for i := init; i < opts.Evals; i++ {
		cand := mutateSchedule(rng, cur, maxTDs, budDs, opts.MaxWindows)
		s, err := score(cand)
		if err != nil {
			return nil, err
		}
		if s > curScore {
			cur, curScore = cand, s
			res.Improvements++
			opts.Sink.SetGauge(obs.MAdvWorstScore, "", curScore)
			if opts.Logf != nil {
				opts.Logf("adv: eval %d/%d improved %s to %.1f with %q",
					i+1, opts.Evals, opts.Metric, curScore, renderAdvSpec(cand))
			}
		}
	}

	// Score-preserving shrink: drop or shorten windows while at least
	// 99% of the damage survives — the minimal schedule is the useful
	// repro artifact. WorstScore reports the final schedule's own score,
	// not the pre-shrink peak.
	floor := baseScore + 0.99*(curScore-baseScore)
	for {
		shrunk := false
		for _, cand := range shrinkCandidates(cur) {
			s, err := score(cand)
			if err != nil {
				return nil, err
			}
			if s >= floor {
				cur, curScore = cand, s
				res.ShrinkSteps++
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}

	res.Worst = base
	res.Worst.Faults = renderAdvSpec(cur)
	res.Worst.Adversarial = res.Worst.Faults != ""
	res.WorstScore = curScore

	// Deterministic replay of the worst schedule: two fresh runs must be
	// byte-identical.
	o1, err := RunScenario(res.Worst)
	if err != nil {
		return nil, err
	}
	o2, err := RunScenario(res.Worst)
	if err != nil {
		return nil, err
	}
	res.Evals += 2
	res.ReplayIdentical = bytes.Equal(o1.Canon, o2.Canon)
	return res, nil
}

// advWindow is one fault window in integer deciseconds (0.1 s units),
// so budget and overlap arithmetic is exact and the rendered spec
// round-trips through faults.ParseSpec without float drift.
type advWindow struct {
	kind   string
	t0, t1 int // deciseconds
	p10    int // loss/corrupt probability in tenths; 0 = always-on
}

var advKinds = []string{"wap", "server", "burst", "corrupt", "partup", "partdown"}

// fmtDs renders a decisecond count as the shortest decimal ("12", "4.5").
func fmtDs(ds int) string {
	if ds%10 == 0 {
		return itoa(ds / 10)
	}
	return itoa(ds/10) + "." + itoa(ds%10)
}

// renderAdvSpec renders windows as a faults.ParseSpec string.
func renderAdvSpec(ws []advWindow) string {
	spec := ""
	for _, w := range ws {
		s := w.kind + ":" + fmtDs(w.t0) + "-" + fmtDs(w.t1)
		if (w.kind == "burst" || w.kind == "corrupt") && w.p10 > 0 && w.p10 < 10 {
			s += ":" + fmtDs(w.p10)
		}
		if spec != "" {
			spec += ";"
		}
		spec += s
	}
	return spec
}

func totalDs(ws []advWindow) int {
	d := 0
	for _, w := range ws {
		d += w.t1 - w.t0
	}
	return d
}

func overlapsSameKind(ws []advWindow, kind string, t0, t1, skip int) bool {
	for i, w := range ws {
		if i == skip || w.kind != kind {
			continue
		}
		if t0 < w.t1 && w.t0 < t1 {
			return true
		}
	}
	return false
}

func sampleP10(rng *rand.Rand) int { return 3 + rng.Intn(7) } // 0.3 .. 0.9

// sampleWindow draws one window within the remaining budget, rotating
// kinds to dodge same-kind overlaps (same trick as the generator).
// Windows start at t >= 1 s and are at least 0.5 s long.
func sampleWindow(rng *rand.Rand, ws []advWindow, maxTDs, remDs int) (advWindow, bool) {
	if remDs < 5 {
		return advWindow{}, false
	}
	dur := 5 + rng.Intn(remDs-4)
	if dur > maxTDs-11 {
		dur = maxTDs - 11
	}
	if dur < 5 {
		return advWindow{}, false
	}
	t0 := 10 + rng.Intn(maxTDs-dur-10+1)
	t1 := t0 + dur
	ki := rng.Intn(len(advKinds))
	for tries := 0; overlapsSameKind(ws, advKinds[ki], t0, t1, -1); tries++ {
		if tries >= len(advKinds) {
			return advWindow{}, false
		}
		ki = (ki + 1) % len(advKinds)
	}
	w := advWindow{kind: advKinds[ki], t0: t0, t1: t1}
	if w.kind == "burst" || w.kind == "corrupt" {
		w.p10 = sampleP10(rng)
	}
	return w, true
}

// heuristicSchedules proposes strong starting points the climber
// evaluates before falling back to random init draws: full-budget
// outages of each infrastructure kind at mission start (when the
// offload pipeline is warming up and Algorithm 2 has no history), the
// same split-and-stacked across two kinds at once, a heavy burst, and
// periodic outages that re-trip failover each time the previous hold
// expires. These encode what an adversary knows about the controller;
// they still cost the climber one evaluation each, so the comparison
// against the random baseline stays equal-budget.
func heuristicSchedules(maxTDs, budDs, maxWindows int) [][]advWindow {
	clamp := func(t int) int {
		if t > maxTDs {
			return maxTDs
		}
		return t
	}
	full := func(kind string, t0 int) advWindow {
		return advWindow{kind: kind, t0: t0, t1: clamp(t0 + budDs)}
	}
	half := budDs / 2
	out := [][]advWindow{
		{full("wap", 10)},
		{full("server", 10)},
		{{kind: "wap", t0: 10, t1: clamp(10 + half)}, {kind: "server", t0: 10, t1: clamp(10 + half)}},
		{{kind: "wap", t0: 10, t1: clamp(10 + half)}, {kind: "partdown", t0: 10, t1: clamp(10 + half)}},
		{full("wap", maxTDs/3)},
		{{kind: "burst", t0: 10, t1: clamp(10 + budDs), p10: 9}},
	}
	if third := budDs / 3; third >= 5 {
		var periodic []advWindow
		for k := 0; k < 3; k++ {
			t0 := 10 + k*(maxTDs/3)
			periodic = append(periodic, advWindow{kind: "wap", t0: t0, t1: clamp(t0 + third)})
		}
		out = append(out, periodic)
	}
	var ok [][]advWindow
	for _, ws := range out {
		good := len(ws) <= maxWindows && totalDs(ws) <= budDs
		for i, w := range ws {
			if w.t1-w.t0 < 5 || overlapsSameKind(ws, w.kind, w.t0, w.t1, i) {
				good = false
			}
		}
		if good {
			ok = append(ok, ws)
		}
	}
	return ok
}

// randomSchedule draws 1..maxWindows windows under the budget.
func randomSchedule(rng *rand.Rand, maxTDs, budDs, maxWindows int) []advWindow {
	n := 1 + rng.Intn(maxWindows)
	var ws []advWindow
	for i := 0; i < n; i++ {
		w, ok := sampleWindow(rng, ws, maxTDs, budDs-totalDs(ws))
		if !ok {
			break
		}
		ws = append(ws, w)
	}
	return ws
}

// mutateSchedule returns a neighbour of ws: one window added, removed,
// shifted, resized, re-kinded or re-weighted — plus the two moves that
// give the climber its edge over random search: aligning a second fault
// kind on top of an existing window (stacked faults at the same instant
// compound, and random draws almost never line windows up) and growing
// a window to swallow the whole remaining budget.
func mutateSchedule(rng *rand.Rand, ws []advWindow, maxTDs, budDs, maxWindows int) []advWindow {
	// Infeasible ops are retried without spending an evaluation; only a
	// genuinely stuck neighbourhood falls back to a random restart.
	for tries := 0; tries < 8; tries++ {
		if out, ok := mutateOnce(rng, ws, maxTDs, budDs, maxWindows); ok {
			return out
		}
	}
	return randomSchedule(rng, maxTDs, budDs, maxWindows)
}

func mutateOnce(rng *rand.Rand, ws []advWindow, maxTDs, budDs, maxWindows int) ([]advWindow, bool) {
	out := append([]advWindow(nil), ws...)
	op := rng.Intn(8)
	if len(out) == 0 {
		op = 0
	}
	switch op {
	case 0: // add a window
		if len(out) < maxWindows {
			if w, ok := sampleWindow(rng, out, maxTDs, budDs-totalDs(out)); ok {
				return append(out, w), true
			}
		}
	case 1: // remove a window
		if len(out) > 1 {
			i := rng.Intn(len(out))
			return append(out[:i], out[i+1:]...), true
		}
	case 2: // shift a window in time (up to +-5 s)
		i := rng.Intn(len(out))
		w := out[i]
		delta := rng.Intn(101) - 50
		t0, t1 := w.t0+delta, w.t1+delta
		if t0 >= 10 && t1 <= maxTDs && !overlapsSameKind(out, w.kind, t0, t1, i) {
			out[i].t0, out[i].t1 = t0, t1
			return out, true
		}
	case 3: // grow or shrink a window (up to +-3 s)
		i := rng.Intn(len(out))
		w := out[i]
		t1 := w.t1 + rng.Intn(61) - 30
		if t1-w.t0 >= 5 && t1 <= maxTDs &&
			totalDs(out)-(w.t1-w.t0)+(t1-w.t0) <= budDs &&
			!overlapsSameKind(out, w.kind, w.t0, t1, i) {
			out[i].t1 = t1
			return out, true
		}
	case 4: // change a window's kind
		i := rng.Intn(len(out))
		w := out[i]
		ki := rng.Intn(len(advKinds))
		for tries := 0; overlapsSameKind(out, advKinds[ki], w.t0, w.t1, i); tries++ {
			if tries >= len(advKinds) {
				return nil, false
			}
			ki = (ki + 1) % len(advKinds)
		}
		out[i].kind = advKinds[ki]
		if out[i].kind == "burst" || out[i].kind == "corrupt" {
			if out[i].p10 == 0 {
				out[i].p10 = sampleP10(rng)
			}
		} else {
			out[i].p10 = 0
		}
		return out, true
	case 5: // re-weight a probabilistic window
		i := rng.Intn(len(out))
		if out[i].kind == "burst" || out[i].kind == "corrupt" {
			out[i].p10 = sampleP10(rng)
			return out, true
		}
	case 6: // align a second kind on top of an existing window
		if len(out) < maxWindows {
			i := rng.Intn(len(out))
			w := out[i]
			t1 := w.t1
			if rem := budDs - totalDs(out); t1-w.t0 > rem {
				t1 = w.t0 + rem
			}
			if t1-w.t0 >= 5 {
				ki := rng.Intn(len(advKinds))
				for tries := 0; advKinds[ki] == w.kind ||
					overlapsSameKind(out, advKinds[ki], w.t0, t1, -1); tries++ {
					if tries >= len(advKinds) {
						return nil, false
					}
					ki = (ki + 1) % len(advKinds)
				}
				n := advWindow{kind: advKinds[ki], t0: w.t0, t1: t1}
				if n.kind == "burst" || n.kind == "corrupt" {
					n.p10 = sampleP10(rng)
				}
				return append(out, n), true
			}
		}
	case 7: // grow a window to swallow the remaining budget
		i := rng.Intn(len(out))
		w := out[i]
		t1 := w.t1 + (budDs - totalDs(out))
		if t1 > maxTDs {
			t1 = maxTDs
		}
		if t1 > w.t1 && !overlapsSameKind(out, w.kind, w.t0, t1, i) {
			out[i].t1 = t1
			return out, true
		}
	}
	return nil, false
}

// shrinkCandidates proposes smaller schedules: each window dropped, and
// each window halved in length.
func shrinkCandidates(ws []advWindow) [][]advWindow {
	var out [][]advWindow
	if len(ws) > 1 {
		for i := range ws {
			c := append([]advWindow(nil), ws[:i]...)
			c = append(c, ws[i+1:]...)
			out = append(out, c)
		}
	}
	for i, w := range ws {
		if w.t1-w.t0 >= 10 {
			c := append([]advWindow(nil), ws...)
			c[i].t1 = w.t0 + (w.t1-w.t0)/2
			out = append(out, c)
		}
	}
	return out
}
