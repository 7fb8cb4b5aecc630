package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestParseSLORules(t *testing.T) {
	t.Run("default keyword", func(t *testing.T) {
		rules, err := ParseSLORules("default")
		if err != nil {
			t.Fatal(err)
		}
		want := DefaultSLORules()
		if len(rules) != len(want) {
			t.Fatalf("got %d rules, want %d", len(rules), len(want))
		}
		for i := range rules {
			if rules[i] != want[i] {
				t.Errorf("rule %d: %+v != %+v", i, rules[i], want[i])
			}
		}
	})

	t.Run("explicit spec", func(t *testing.T) {
		rules, err := ParseSLORules("vdp_p99<=0.5@30s, energy_rate~3@20s")
		if err != nil {
			t.Fatal(err)
		}
		if len(rules) != 2 {
			t.Fatalf("got %d rules, want 2", len(rules))
		}
		if rules[0] != (SLORule{Metric: SLOVdpP99, Mode: SLOBudget, Threshold: 0.5, Window: 30}) {
			t.Errorf("budget rule: %+v", rules[0])
		}
		if rules[1] != (SLORule{Metric: SLOEnergyRate, Mode: SLOAnom, Threshold: 3, Window: 20}) {
			t.Errorf("ewma rule: %+v", rules[1])
		}
	})

	t.Run("String round-trips", func(t *testing.T) {
		for _, spec := range []string{"vdp_p99<=0.5@30s", "energy_rate~3@20s", "staleness<=1@5s"} {
			rules, err := ParseSLORules(spec)
			if err != nil {
				t.Fatal(err)
			}
			again, err := ParseSLORules(rules[0].String())
			if err != nil {
				t.Fatalf("%q re-parse: %v", rules[0].String(), err)
			}
			if again[0] != rules[0] {
				t.Errorf("%q: %+v round-tripped to %+v", spec, rules[0], again[0])
			}
		}
	})

	bad := []string{
		"", "   ", ",",
		"vdp_p99<=0.5",         // no window
		"vdp_p99<=0.5@0s",      // zero window
		"vdp_p99<=0.5@-3s",     // negative window
		"vdp_p99=0.5@30s",      // bad operator
		"nonesuch<=0.5@30s",    // unknown metric
		"vdp_p99<=banana@30s",  // bad threshold
		"energy_rate~0@20s",    // non-positive ewma factor
		"vdp_p99<=0.5@thirtys", // non-numeric window
	}
	for _, spec := range bad {
		if _, err := ParseSLORules(spec); err == nil {
			t.Errorf("ParseSLORules(%q) = nil error, want failure", spec)
		}
	}
}

// feed pushes n ticks dt apart starting at t0, with a constant frame
// mutator, and returns all breaches raised.
func feed(e *SLOEngine, t0, dt float64, n int, f func(t float64) FlightFrame) []Breach {
	var out []Breach
	for i := 0; i < n; i++ {
		tt := t0 + float64(i)*dt
		out = append(out, e.Observe(f(tt))...)
	}
	return out
}

func TestSLOBudgetBreachAndClear(t *testing.T) {
	rules, _ := ParseSLORules("staleness<=1@5s")
	e := NewSLOEngine(rules)

	// Healthy warm-up: below threshold, past the warmup gate.
	if b := feed(e, 0, 0.2, 50, func(tt float64) FlightFrame {
		return FlightFrame{T: tt, Staleness: 0.2}
	}); len(b) != 0 {
		t.Fatalf("healthy run raised %d breaches: %+v", len(b), b)
	}
	if h := e.Health(); !h.Healthy || !h.Ready {
		t.Fatalf("healthy engine reports %+v", h)
	}

	// One bad sample is noise, not a breach (sustain count is 3).
	if b := e.Observe(FlightFrame{T: 10.0, Staleness: 5}); len(b) != 0 {
		t.Fatalf("single bad sample opened a breach: %+v", b)
	}
	if b := e.Observe(FlightFrame{T: 10.2, Staleness: 0.2}); len(b) != 0 {
		t.Fatal("breach after recovery")
	}

	// Three consecutive bad samples open exactly one breach, and holding
	// the violation does not re-raise it.
	b := feed(e, 11, 0.2, 6, func(tt float64) FlightFrame {
		return FlightFrame{T: tt, Staleness: 5}
	})
	if len(b) != 1 {
		t.Fatalf("sustained violation raised %d breaches, want 1: %+v", len(b), b)
	}
	if b[0].Metric != SLOStaleness || b[0].Value != 5 || b[0].Limit != 1 {
		t.Errorf("breach fields: %+v", b[0])
	}
	h := e.Health()
	if h.Healthy || h.Ready {
		t.Fatalf("open breach but Health reports %+v", h)
	}
	if len(h.Open) != 1 || !strings.Contains(h.Open[0], SLOStaleness) {
		t.Errorf("Open = %v", h.Open)
	}

	// Three good samples clear it; a later sustained violation is a new
	// breach (history grows to 2).
	feed(e, 13, 0.2, 3, func(tt float64) FlightFrame { return FlightFrame{T: tt, Staleness: 0.1} })
	if h := e.Health(); !h.Healthy {
		t.Fatalf("breach did not clear: %+v", h)
	}
	b = feed(e, 14, 0.2, 3, func(tt float64) FlightFrame { return FlightFrame{T: tt, Staleness: 9} })
	if len(b) != 1 {
		t.Fatalf("re-breach raised %d, want 1", len(b))
	}
	if got := len(e.Breaches()); got != 2 {
		t.Errorf("history has %d breaches, want 2", got)
	}
}

func TestSLOWarmupGate(t *testing.T) {
	rules, _ := ParseSLORules("staleness<=1@5s")
	e := NewSLOEngine(rules)
	// Violating from t=0, but nothing may open before the warmup.
	for i := 0; i < 20; i++ {
		tt := float64(i) * 0.2 // 0 .. 3.8 < warmup 5
		if b := e.Observe(FlightFrame{T: tt, Staleness: 99}); len(b) != 0 {
			t.Fatalf("breach at t=%.1f inside warmup", tt)
		}
	}
	// From the warmup on, the same violation counts: three armed
	// samples open exactly one breach.
	if b := feed(e, sloWarmup, 0.2, 3, func(tt float64) FlightFrame {
		return FlightFrame{T: tt, Staleness: 99}
	}); len(b) != 1 || b[0].T != sloWarmup+0.4 {
		t.Fatalf("armed violation: got %+v, want one breach at t=%g", b, sloWarmup+0.4)
	}
}

func TestSLOVdpP99Window(t *testing.T) {
	rules, _ := ParseSLORules("vdp_p99<=0.5@10s")
	e := NewSLOEngine(rules)
	// 99 fast ticks and 1 slow one: p99 over the window picks up the
	// tail sample, and three sustained windows open the breach.
	var got []Breach
	for i := 0; i < 200; i++ {
		tt := float64(i) * 0.2
		v := 0.01
		if i >= 150 { // tail latency appears late and persists
			v = 2.0
		}
		got = append(got, e.Observe(FlightFrame{T: tt, VDP: v})...)
	}
	if len(got) != 1 {
		t.Fatalf("got %d breaches, want 1", len(got))
	}
	if got[0].Value < 0.5 {
		t.Errorf("breach value %.3f should exceed the budget", got[0].Value)
	}
}

func TestSLOEnergyRateEWMA(t *testing.T) {
	// A short window matters here: the windowed rate of a long window
	// smooths a step in draw into a ramp slow enough for the EWMA to
	// track, and the anomaly never fires. 2 s (10 ticks) lets the stat
	// jump faster than the baseline adapts.
	rules, _ := ParseSLORules("energy_rate~2@2s")
	e := NewSLOEngine(rules)

	// Steady 10 J/s draw establishes the baseline...
	energy := 0.0
	var breaches []Breach
	for i := 0; i < 100; i++ {
		tt := float64(i) * 0.2
		energy += 2.0 // 10 J/s
		breaches = append(breaches, e.Observe(FlightFrame{T: tt, EnergyJ: energy})...)
	}
	if len(breaches) != 0 {
		t.Fatalf("steady draw breached the anomaly rule: %+v", breaches)
	}
	// ...then draw jumps 5×, far past the 2× EWMA factor.
	for i := 100; i < 160; i++ {
		tt := float64(i) * 0.2
		energy += 10.0 // 50 J/s
		breaches = append(breaches, e.Observe(FlightFrame{T: tt, EnergyJ: energy})...)
	}
	if len(breaches) != 1 {
		t.Fatalf("5x draw surge raised %d breaches, want 1: %+v", len(breaches), breaches)
	}
}

func TestSLOHandoffRate(t *testing.T) {
	rules, _ := ParseSLORules("handoff_rate<=0.5@10s")
	e := NewSLOEngine(rules)
	// A handoff every tick (5/s) blows a 0.5/s budget.
	b := feed(e, sloWarmup, 0.2, 20, func(tt float64) FlightFrame {
		return FlightFrame{T: tt, Handoffs: int(math.Round(tt / 0.2))}
	})
	if len(b) != 1 {
		t.Fatalf("flapping handoffs raised %d breaches, want 1", len(b))
	}
}

func TestSLONilEngine(t *testing.T) {
	var e *SLOEngine
	if b := e.Observe(FlightFrame{T: 1}); b != nil {
		t.Error("nil engine Observe returned breaches")
	}
	if h := e.Health(); !h.Healthy || !h.Ready {
		t.Errorf("nil engine health %+v, want healthy+ready", h)
	}
	if e.Breaches() != nil || e.Rules() != nil {
		t.Error("nil engine leaked state")
	}
}

func TestSLOHistoryBounded(t *testing.T) {
	rules, _ := ParseSLORules("staleness<=1@5s")
	e := NewSLOEngine(rules)
	tt := sloWarmup
	for i := 0; i < 2*sloHistoryCap; i++ {
		// breach (3 bad) then clear (3 good), forever
		for j := 0; j < sloSustainN; j++ {
			e.Observe(FlightFrame{T: tt, Staleness: 9})
			tt += 0.2
		}
		for j := 0; j < sloClearN; j++ {
			e.Observe(FlightFrame{T: tt, Staleness: 0})
			tt += 0.2
		}
	}
	if got := len(e.Breaches()); got != sloHistoryCap {
		t.Errorf("history has %d entries, want capped at %d", got, sloHistoryCap)
	}
}

// TestSLOSharedWindowMatchesPerRuleWindows checks every rule's stat,
// read from the engine's one shared window, against a window of its
// own that pushes each sample and evicts those older than the rule's
// window, always keeping the newest. Frames arrive in time order with
// random gaps, repeated times and counter steps.
func TestSLOSharedWindowMatchesPerRuleWindows(t *testing.T) {
	rules, err := ParseSLORules("vdp_p99<=0.5@30s,vdp_p99<=0.5@1s,energy_rate~3@20s," +
		"energy_rate<=9@0.5s,staleness<=1@5s,handoff_rate<=0.5@30s,handoff_rate<=0.5@3s")
	if err != nil {
		t.Fatal(err)
	}
	type sample struct{ t, v float64 }
	own := make([][]sample, len(rules))
	value := func(r SLORule, f FlightFrame) float64 {
		switch r.Metric {
		case SLOVdpP99:
			return f.VDP
		case SLOEnergyRate:
			return f.EnergyJ
		case SLOHandoffRate:
			return float64(f.Handoffs)
		}
		return f.Staleness
	}
	e := NewSLOEngine(rules)
	rng := rand.New(rand.NewSource(3))
	var f FlightFrame
	for step := 0; step < 3000; step++ {
		f.T += []float64{0, 0.05, 0.2, 0.2, 0.2, 1.5}[rng.Intn(6)]
		f.VDP = rng.ExpFloat64() * 0.1
		f.EnergyJ += rng.Float64() * 3
		f.Handoffs += rng.Intn(2) * rng.Intn(2)
		f.Staleness = rng.Float64() * 2
		e.Observe(f)
		for i, r := range rules {
			w := append(own[i], sample{f.T, value(r, f)})
			for len(w) > 1 && w[0].t < f.T-r.Window {
				w = w[1:]
			}
			own[i] = w
			var want float64
			wantOK := true
			switch r.Metric {
			case SLOVdpP99:
				vs := make([]float64, len(w))
				for j := range w {
					vs[j] = w[j].v
				}
				sort.Float64s(vs)
				want = vs[min((99*len(vs)+99)/100, len(vs))-1]
			case SLOStaleness:
				want = w[len(w)-1].v
			default:
				a, b := w[0], w[len(w)-1]
				if wantOK = b.t > a.t; wantOK {
					want = (b.v - a.v) / (b.t - a.t)
				}
			}
			got, ok := e.eval(r, f.T)
			if ok != wantOK || got != want {
				t.Fatalf("step %d t=%g rule %s: stat %v/%v, own window %v/%v",
					step, f.T, r, got, ok, want, wantOK)
			}
		}
	}
}
