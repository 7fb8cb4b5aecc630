package simtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"lgvoffload/internal/core"
	"lgvoffload/internal/energy"
	"lgvoffload/internal/faults"
	"lgvoffload/internal/spans"
)

// ErrSkip marks an invariant that does not apply to the given scenario
// (wrong deployment mode, out-of-scope link profile, …). Skips are
// counted but are neither violations nor errors.
var ErrSkip = errors.New("invariant not applicable")

// Invariant is one paper-derived property checked against every run.
type Invariant struct {
	Name string
	// Desc is the one-line statement of the property, referencing the
	// paper equation/algorithm it encodes.
	Desc string
	// ExtraRuns is how many additional full mission runs the check
	// costs (baselines, replays, the kernel matrix).
	ExtraRuns int
	Check     func(o *Outcome) error
}

// Invariants returns the full library in evaluation order: cheap
// structural checks first, re-run-based checks last.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name:  "energy-sum",
			Desc:  "Eq. 1a: per-component energies are non-negative and sum to E_total",
			Check: checkEnergySum,
		},
		{
			Name:  "span-structure",
			Desc:  "span log is structurally valid (parents exist, children nested, times ordered)",
			Check: checkSpanStructure,
		},
		{
			Name:  "makespan-decomposition",
			Desc:  "Eq. 2: critical-path compute+queue+transport equals tick makespan within 1%",
			Check: checkMakespan,
		},
		{
			Name:  "watchdog-zero-vel",
			Desc:  "the watchdog never lets a nonzero velocity command through after staleness",
			Check: checkWatchdog,
		},
		{
			Name:  "no-flap",
			Desc:  "Algorithm 2 never returns to remote placement inside the failover hold-down",
			Check: checkNoFlap,
		},
		{
			Name:  "handoff-no-flap",
			Desc:  "Algorithm 2 never changes placement inside the post-handoff freeze window",
			Check: checkHandoffNoFlap,
		},
		{
			Name:  "link-accounting",
			Desc:  "every offered packet is delivered or dropped with an attributed cause",
			Check: checkLinkAccounting,
		},
		{
			Name:      "ec-dominance",
			Desc:      "Algorithm 1 goal-EC never consumes more energy than all-local (no-fault, high-bandwidth)",
			ExtraRuns: 1,
			Check:     checkECDominance,
		},
		{
			Name:      "store-roundtrip",
			Desc:      "a recorded mission is bit-identical to an unrecorded one, and its stored records replay to the identical summary",
			ExtraRuns: 1,
			Check:     checkStoreRoundTrip,
		},
		{
			Name:      "replay-determinism",
			Desc:      "identical seeds yield byte-identical Results across repeated runs",
			ExtraRuns: 1,
			Check:     checkReplay,
		},
		{
			Name:      "adversarial-replay",
			Desc:      "an adversarially-found fault schedule survives a JSON round trip and replays bit-identically",
			ExtraRuns: 1,
			Check:     checkAdversarialReplay,
		},
		{
			Name:      "flight-bundle",
			Desc:      "a breach-triggered flight bundle is non-invasive, contains the breach tick, and replays byte-identically",
			ExtraRuns: 2,
			Check:     checkFlightBundle,
		},
		{
			Name:      "matrix-determinism",
			Desc:      "Results are byte-identical across kernel threads {1,2,4,8} × {block,interleaved}",
			ExtraRuns: 8,
			Check:     checkMatrix,
		},
		{
			Name:      "sched-fair",
			Desc:      "the serve scheduler starves no mission and multiplexed results are byte-identical to solo runs",
			ExtraRuns: 5,
			Check:     checkSchedFair,
		},
	}
}

// InvariantByName returns the named invariant or false.
func InvariantByName(name string) (Invariant, bool) {
	for _, inv := range Invariants() {
		if inv.Name == name {
			return inv, true
		}
	}
	return Invariant{}, false
}

func checkEnergySum(o *Outcome) error {
	sum := 0.0
	for _, comp := range sortedComponents(o.Res) {
		j := o.Res.Energy[energy.Component(comp)]
		if j < 0 {
			return fmt.Errorf("component %s has negative energy %g J", comp, j)
		}
		sum += j
	}
	total := o.Res.TotalEnergy
	if !closeRel(sum, total, 1e-9) {
		return fmt.Errorf("components sum to %.9f J but E_total = %.9f J (diff %g)",
			sum, total, sum-total)
	}
	return nil
}

func checkSpanStructure(o *Outcome) error {
	if o.SpansDropped > 0 {
		return ErrSkip // ring wrapped: orphaned parents are expected
	}
	return spans.Validate(o.Spans)
}

func checkMakespan(o *Outcome) error {
	if o.SpansDropped > 0 {
		return ErrSkip
	}
	paths := spans.AnalyzeTicks(o.Spans)
	for _, p := range paths {
		if p.Makespan <= 0 {
			continue
		}
		tol := math.Max(1e-6, 0.01*p.Makespan)
		if math.Abs(p.Sum()-p.Makespan) > tol {
			return fmt.Errorf("tick trace %d at t=%.2f: compute %.6f + queue %.6f + transport %.6f = %.6f ≠ makespan %.6f",
				p.Trace, p.Start, p.Compute, p.Queue, p.Transport, p.Sum(), p.Makespan)
		}
	}
	return nil
}

func checkWatchdog(o *Outcome) error {
	if len(o.CmdViolations) == 0 {
		return nil
	}
	v := o.CmdViolations[0]
	return fmt.Errorf("%d nonzero commands while stalled (first at t=%.2f: v=%.3f w=%.3f); %d stalled samples total",
		len(o.CmdViolations), v.T, v.V, v.W, o.StalledSamples)
}

func checkNoFlap(o *Outcome) error {
	const hold = core.FailoverHoldSec
	lastFailover := math.Inf(-1)
	for _, d := range o.Res.Decisions {
		if d.Reason == "failover" {
			if d.T-lastFailover < hold-1e-9 {
				return fmt.Errorf("failovers at t=%.2f and t=%.2f are closer than the %.0fs hold-down",
					lastFailover, d.T, hold)
			}
			lastFailover = d.T
			continue
		}
		// HoldActive(now) is `now < holdUntil`, so a remote verdict at
		// exactly lastFailover+hold is legal.
		if d.RemoteOK && d.T-lastFailover < hold-1e-9 {
			return fmt.Errorf("decision at t=%.2f has RemoteOK inside the hold-down started at t=%.2f (hold %.0fs)",
				d.T, lastFailover, hold)
		}
	}
	return nil
}

func checkHandoffNoFlap(o *Outcome) error {
	ht := o.Res.HandoffTimes
	if len(ht) == 0 {
		return ErrSkip
	}
	const hold = core.HandoffFreezeSec
	for _, d := range o.Res.Decisions {
		if d.Reason == "failover" {
			// The failover path deliberately bypasses the handoff freeze:
			// a link that dies across a handoff must still pull home.
			continue
		}
		for _, h := range ht {
			if d.T >= h && d.T-h < hold-1e-9 {
				return fmt.Errorf("adaptation decision (%s) at t=%.2f is %.2fs after the handoff at t=%.2f — inside the %.1fs freeze",
					d.Reason, d.T, d.T-h, h, hold)
			}
		}
	}
	return nil
}

func checkAdversarialReplay(o *Outcome) error {
	if !o.Scenario.Adversarial {
		return ErrSkip
	}
	// The fault schedule must survive a ParseSpec → String → ParseSpec
	// round trip: the repro corpus and cmd/advhunt exchange schedules as
	// spec strings, so a lossy rendering would silently change the
	// adversarial scenario.
	if o.Scenario.Faults != "" {
		fc, err := faults.ParseSpec(o.Scenario.Faults)
		if err != nil {
			return fmt.Errorf("adversarial spec does not parse: %w", err)
		}
		back, err := faults.ParseSpec(fc.String())
		if err != nil {
			return fmt.Errorf("re-rendered spec %q does not parse: %w", fc.String(), err)
		}
		a := append([]faults.Window(nil), fc.Windows...)
		b := append([]faults.Window(nil), back.Windows...)
		sortWindows(a)
		sortWindows(b)
		if len(a) != len(b) {
			return fmt.Errorf("spec round trip changed window count: %d vs %d", len(a), len(b))
		}
		for i := range a {
			// prob() normalizes P ∈ {0, 1} equivalently; compare effective
			// windows field by field.
			if a[i].Kind != b[i].Kind || a[i].T0 != b[i].T0 || a[i].T1 != b[i].T1 || a[i].P != b[i].P {
				return fmt.Errorf("spec round trip changed window %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	// The full scenario must survive a JSON round trip and replay to the
	// byte-identical canonical result — this is what makes an emitted
	// worst-case schedule a usable repro.
	data, err := json.Marshal(o.Scenario)
	if err != nil {
		return fmt.Errorf("scenario marshal: %w", err)
	}
	var sc2 Scenario
	if err := json.Unmarshal(data, &sc2); err != nil {
		return fmt.Errorf("scenario unmarshal: %w", err)
	}
	o2, err := RunScenario(sc2)
	if err != nil {
		return fmt.Errorf("adversarial replay errored: %w", err)
	}
	if !bytes.Equal(o.Canon, o2.Canon) {
		return fmt.Errorf("adversarial replay diverged: %s", firstDiff(o.Canon, o2.Canon))
	}
	return nil
}

func sortWindows(ws []faults.Window) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].T0 != ws[j].T0 {
			return ws[i].T0 < ws[j].T0
		}
		return ws[i].Kind < ws[j].Kind
	})
}

func checkLinkAccounting(o *Outcome) error {
	st := o.Res.Net
	if st.Sent != st.Delivered+st.Dropped() {
		return fmt.Errorf("ledger leak: sent %d ≠ delivered %d + dropped %d (impair %d, overflow %d, loss %d, corrupt %d)",
			st.Sent, st.Delivered, st.Dropped(),
			st.DroppedImpair, st.DroppedOverflow, st.DroppedLoss, st.DroppedCorrupt)
	}
	if o.Scenario.NoFaults() && (st.DroppedImpair > 0 || st.DroppedCorrupt > 0) {
		return fmt.Errorf("fault-attributed drops without a fault schedule: impair %d, corrupt %d",
			st.DroppedImpair, st.DroppedCorrupt)
	}
	if o.Res.MsgsDropped > o.Res.MsgsSent {
		return fmt.Errorf("pipeline counters: dropped %d > sent %d", o.Res.MsgsDropped, o.Res.MsgsSent)
	}
	return nil
}

// ecDominanceTol is the slack on the EC-dominance comparison. Adaptive
// EC runs the same physics with strictly cheaper compute placement, but
// path realizations differ slightly (different seeds feed the same rngs
// through different code paths is NOT possible — seeds match — yet
// completion times can differ by a control tick), so a small relative
// margin absorbs boundary effects.
const ecDominanceTol = 0.02

func checkECDominance(o *Outcome) error {
	sc := o.Scenario
	if sc.Deploy.Mode != "adaptive" || sc.Deploy.Goal != "ec" {
		return ErrSkip
	}
	if !sc.NoFaults() || !sc.HighBandwidth() {
		return ErrSkip
	}
	base := sc
	base.Deploy = DeploySpec{Mode: "local", Threads: 1}
	base.Fleet = 1
	base.KernelThreads = 0
	base.KernelPartition = ""
	bo, err := RunScenario(base)
	if err != nil || !bo.Res.Success {
		return ErrSkip // all-local cannot complete this mission: nothing to dominate
	}
	if !o.Res.Success {
		return fmt.Errorf("goal-EC adaptive failed (%s) a mission all-local completes", o.Res.Reason)
	}
	if o.Res.TotalEnergy > bo.Res.TotalEnergy*(1+ecDominanceTol) {
		return fmt.Errorf("goal-EC adaptive used %.1f J > all-local %.1f J (tol %.0f%%)",
			o.Res.TotalEnergy, bo.Res.TotalEnergy, ecDominanceTol*100)
	}
	return nil
}

func checkReplay(o *Outcome) error {
	o2, err := RunScenario(o.Scenario)
	if err != nil {
		return fmt.Errorf("replay errored: %w", err)
	}
	if !bytes.Equal(o.Canon, o2.Canon) {
		return fmt.Errorf("replay diverged: %s", firstDiff(o.Canon, o2.Canon))
	}
	return nil
}

func checkMatrix(o *Outcome) error {
	for _, threads := range []int{1, 2, 4, 8} {
		for _, part := range []string{"block", "interleaved"} {
			sc := o.Scenario
			sc.KernelThreads = threads
			sc.KernelPartition = part
			if sc.KernelThreads == o.Scenario.KernelThreads && sc.KernelPartition == o.Scenario.KernelPartition {
				continue // that's the primary run itself
			}
			mo, err := RunScenario(sc)
			if err != nil {
				return fmt.Errorf("threads=%d/%s errored: %w", threads, part, err)
			}
			if !bytes.Equal(o.Canon, mo.Canon) {
				return fmt.Errorf("threads=%d/%s diverged from primary: %s",
					threads, part, firstDiff(o.Canon, mo.Canon))
			}
		}
	}
	return nil
}

// firstDiff locates the first differing byte of two canonical
// encodings and returns a short window around it for the report.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 30
	if lo < 0 {
		lo = 0
	}
	win := func(s []byte) string {
		hi := i + 30
		if hi > len(s) {
			hi = len(s)
		}
		if lo >= len(s) {
			return "<end>"
		}
		return string(s[lo:hi])
	}
	return fmt.Sprintf("first diff at byte %d: %q vs %q", i, win(a), win(b))
}

func closeRel(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}
