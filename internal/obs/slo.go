package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lgvoffload/internal/ring"
)

// SLO engine: declarative service-level rules evaluated live, every
// tick, over rolling windows of virtual time. The paper's practicality
// argument is that VDP stays inside a mission-level budget while Alg. 2
// adapts; these rules make that budget (and its siblings: energy rate,
// command staleness, handoff flapping) a first-class runtime judgment
// instead of an offline plot.
//
// Rule syntax (comma-separated in -slo specs):
//
//	metric<=threshold@WINDOWs   budget rule: stat over the window must
//	                            stay <= threshold
//	metric~factor@WINDOWs       anomaly rule: stat must stay <= factor ×
//	                            its own EWMA baseline
//
// Metrics: vdp_p99 (s), energy_rate (J/s), staleness (s), handoff_rate
// (handoffs/s). Example: "vdp_p99<=0.5@30s,energy_rate~3@20s".

// SLO metric names.
const (
	SLOVdpP99      = "vdp_p99"
	SLOEnergyRate  = "energy_rate"
	SLOStaleness   = "staleness"
	SLOHandoffRate = "handoff_rate"
)

// Rule modes.
const (
	SLOBudget = "budget" // stat <= Threshold
	SLOAnom   = "ewma"   // stat <= Threshold × EWMA(stat)
)

const (
	sloWarmup     = 5.0  // s of virtual time before rules arm
	sloSustainN   = 3    // consecutive bad samples to open a breach
	sloClearN     = 3    // consecutive good samples to close it
	sloEWMAAlpha  = 0.05 // baseline smoothing
	sloHistoryCap = 256  // bounded breach history
)

// SLORule is one parsed service-level rule.
type SLORule struct {
	Metric    string  `json:"metric"`
	Mode      string  `json:"mode"`      // SLOBudget | SLOAnom
	Threshold float64 `json:"threshold"` // limit (budget) or factor (ewma)
	Window    float64 `json:"window"`    // seconds of rolling window
}

// String reconstructs the rule in -slo spec syntax.
func (r SLORule) String() string {
	op := "<="
	if r.Mode == SLOAnom {
		op = "~"
	}
	return fmt.Sprintf("%s%s%s@%ss", r.Metric, op,
		strconv.FormatFloat(r.Threshold, 'g', -1, 64),
		strconv.FormatFloat(r.Window, 'g', -1, 64))
}

// Breach records one rule transition into the breached state.
type Breach struct {
	T      float64 `json:"t"`
	Rule   string  `json:"rule"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit"`
}

// HealthStatus is the inspector's /health + /ready projection.
type HealthStatus struct {
	Healthy  bool     `json:"healthy"`
	Ready    bool     `json:"ready"`
	Samples  int64    `json:"samples"`
	Breaches int      `json:"breaches"`
	Open     []string `json:"open,omitempty"`
}

type sloRuleState struct {
	rule SLORule
	ewma float64
	seen bool // ewma initialized
	bad  int  // consecutive violating samples
	good int  // consecutive ok samples while open
	open bool
}

// SLOEngine evaluates a rule set against per-tick frames. The zero
// value is unusable; construct with NewSLOEngine. A nil *SLOEngine is a
// valid no-op (Observe returns nil, Health reports healthy), matching
// the rest of the obs plane.
type SLOEngine struct {
	mu    sync.Mutex
	rules []sloRuleState
	// window holds the frames of the last span seconds, the longest
	// rule window, plus always the newest frame. It has no count bound,
	// so it grows until the window fits and then allocates nothing.
	window  ring.Ring[FlightFrame]
	span    float64
	samples int64
	history []Breach
	scratch []float64 // reused p99 sort buffer
}

// NewSLOEngine builds an engine over the given rules. Rules arm after
// sloWarmup seconds of virtual time so start-of-mission transients
// (staleness measured from t=0, empty windows) don't fire.
func NewSLOEngine(rules []SLORule) *SLOEngine {
	e := &SLOEngine{}
	for _, r := range rules {
		e.rules = append(e.rules, sloRuleState{rule: r})
		e.span = max(e.span, r.Window)
	}
	return e
}

// Rules returns a copy of the configured rules.
func (e *SLOEngine) Rules() []SLORule {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLORule, len(e.rules))
	for i := range e.rules {
		out[i] = e.rules[i].rule
	}
	return out
}

// Observe feeds one tick's frame and returns the breaches (closed→open
// transitions) it caused, or nil — the common case — with zero
// allocations once the window is warm. Frames must arrive in time
// order.
func (e *SLOEngine) Observe(f FlightFrame) []Breach {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples++
	e.window.Push(f)
	e.window.DropFront(e.since(f.T - e.span))
	var out []Breach
	for i := range e.rules {
		st := &e.rules[i]
		stat, ok := e.eval(st.rule, f.T)
		if !ok {
			continue
		}
		limit := st.rule.Threshold
		if st.rule.Mode == SLOAnom {
			if !st.seen {
				st.ewma, st.seen = stat, true
				continue
			}
			limit = st.rule.Threshold * st.ewma
			st.ewma += sloEWMAAlpha * (stat - st.ewma)
		}
		violating := stat > limit && f.T >= sloWarmup
		if violating {
			st.bad++
			st.good = 0
			if !st.open && st.bad >= sloSustainN {
				st.open = true
				b := Breach{T: f.T, Rule: st.rule.String(), Metric: st.rule.Metric, Value: stat, Limit: limit}
				out = append(out, b)
				if len(e.history) < sloHistoryCap {
					e.history = append(e.history, b)
				}
			}
		} else {
			st.bad = 0
			if st.open {
				st.good++
				if st.good >= sloClearN {
					st.open = false
					st.good = 0
				}
			}
		}
	}
	return out
}

// since returns the index of the oldest window frame at or after
// cutoff, but never past the newest frame.
func (e *SLOEngine) since(cutoff float64) int {
	return sort.Search(e.window.Len()-1, func(i int) bool { return e.window.At(i).T >= cutoff })
}

// eval computes the rule's stat over the frames of its own window, the
// part of the shared window at or after now - r.Window. ok is false
// while that part lacks enough data for the metric.
func (e *SLOEngine) eval(r SLORule, now float64) (stat float64, ok bool) {
	first, last := e.since(now-r.Window), e.window.Len()-1
	switch r.Metric {
	case SLOVdpP99:
		e.scratch = e.scratch[:0]
		for i := first; i <= last; i++ {
			e.scratch = append(e.scratch, e.window.At(i).VDP)
		}
		sort.Float64s(e.scratch)
		// nearest-rank p99
		n := len(e.scratch)
		return e.scratch[min((99*n+99)/100, n)-1], true
	case SLOEnergyRate:
		f0, f1 := e.window.At(first), e.window.At(last)
		return sloRate(f0.T, f0.EnergyJ, f1.T, f1.EnergyJ)
	case SLOStaleness:
		return e.window.At(last).Staleness, true
	case SLOHandoffRate:
		f0, f1 := e.window.At(first), e.window.At(last)
		return sloRate(f0.T, float64(f0.Handoffs), f1.T, float64(f1.Handoffs))
	}
	return 0, false
}

// sloRate differentiates a cumulative counter between two frames.
func sloRate(t0, v0, t1, v1 float64) (float64, bool) {
	if t1 <= t0 {
		return 0, false
	}
	return (v1 - v0) / (t1 - t0), true
}

// Breaches returns the bounded breach history.
func (e *SLOEngine) Breaches() []Breach {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Breach, len(e.history))
	copy(out, e.history)
	return out
}

// Health reports the engine's current judgment. Healthy means no rule
// is currently open; Ready additionally requires at least one observed
// sample (a mission that never started is unhealthy to route to). A nil
// engine is both healthy and ready: no rules, nothing to violate.
func (e *SLOEngine) Health() HealthStatus {
	if e == nil {
		return HealthStatus{Healthy: true, Ready: true}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	h := HealthStatus{Healthy: true, Samples: e.samples, Breaches: len(e.history)}
	for i := range e.rules {
		if e.rules[i].open {
			h.Healthy = false
			h.Open = append(h.Open, e.rules[i].rule.String())
		}
	}
	h.Ready = h.Healthy && e.samples > 0
	return h
}

// DefaultSLORules is the rule set behind `-slo default`: a VDP p99
// budget at the paper's safe-stop deadline scale, an EWMA anomaly
// detector on energy draw, a staleness ceiling just under the watchdog
// zone, and a handoff flap-rate bound.
func DefaultSLORules() []SLORule {
	return []SLORule{
		{Metric: SLOVdpP99, Mode: SLOBudget, Threshold: 0.5, Window: 30},
		{Metric: SLOEnergyRate, Mode: SLOAnom, Threshold: 3.0, Window: 20},
		{Metric: SLOStaleness, Mode: SLOBudget, Threshold: 1.0, Window: 5},
		{Metric: SLOHandoffRate, Mode: SLOBudget, Threshold: 0.5, Window: 30},
	}
}

// ParseSLORules parses a comma-separated -slo spec ("default" for
// DefaultSLORules).
func ParseSLORules(spec string) ([]SLORule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("empty SLO spec")
	}
	if spec == "default" {
		return DefaultSLORules(), nil
	}
	var out []SLORule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseSLORule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty SLO spec")
	}
	return out, nil
}

func parseSLORule(s string) (SLORule, error) {
	var r SLORule
	body, win, ok := strings.Cut(s, "@")
	if !ok {
		return r, fmt.Errorf("rule %q: missing @window", s)
	}
	win = strings.TrimSuffix(strings.TrimSpace(win), "s")
	w, err := strconv.ParseFloat(win, 64)
	if err != nil || w <= 0 {
		return r, fmt.Errorf("rule %q: bad window %q", s, win)
	}
	r.Window = w
	var metric, thr string
	switch {
	case strings.Contains(body, "<="):
		r.Mode = SLOBudget
		metric, thr, _ = strings.Cut(body, "<=")
	case strings.Contains(body, "~"):
		r.Mode = SLOAnom
		metric, thr, _ = strings.Cut(body, "~")
	default:
		return r, fmt.Errorf("rule %q: want metric<=threshold or metric~factor", s)
	}
	r.Metric = strings.TrimSpace(metric)
	switch r.Metric {
	case SLOVdpP99, SLOEnergyRate, SLOStaleness, SLOHandoffRate:
	default:
		return r, fmt.Errorf("rule %q: unknown metric %q", s, r.Metric)
	}
	r.Threshold, err = strconv.ParseFloat(strings.TrimSpace(thr), 64)
	if err != nil {
		return r, fmt.Errorf("rule %q: bad threshold %q", s, thr)
	}
	if r.Mode == SLOAnom && r.Threshold <= 0 {
		return r, fmt.Errorf("rule %q: EWMA factor must be > 0", s)
	}
	return r, nil
}
