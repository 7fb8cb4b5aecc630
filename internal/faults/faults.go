// Package faults implements deterministic fault injection for the
// wireless link and the remote server: a virtual-time schedule of
// failure windows — WAP blackouts, server crash/restart intervals,
// burst loss, payload corruption, one-way partitions — that composes
// with netsim.Link through the Impairment hook. The paper's §VI argues
// the whole point of real-time adjustment is surviving a degrading
// network; this package lets missions script the degradation so the
// watchdog/failover machinery can be exercised reproducibly: no wall
// clock, no global rand, same seed + schedule → identical disturbances.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"lgvoffload/internal/netsim"
	"lgvoffload/internal/obs"
)

// Kind enumerates the failure domains the schedule can inject.
type Kind int

const (
	// WAPOutage blacks the access point out: the effective signal is
	// forced to zero for the window, so every packet in either direction
	// is lost and the kernel buffer stops draining.
	WAPOutage Kind = iota
	// ServerCrash takes the remote host down: packets to and from it are
	// discarded for the window (the server "restarts" when it closes).
	ServerCrash
	// BurstLoss drops each packet with probability P for the window,
	// uncorrelated with signal or heading — a contention burst.
	BurstLoss
	// Corruption flips bits in transit: each packet is corrupted with
	// probability P and discarded by the receiver's decoder.
	Corruption
	// PartitionUp blackholes the uplink only (the robot can hear the
	// server but not reach it).
	PartitionUp
	// PartitionDown blackholes the downlink only (the server hears
	// scans but its commands never come back).
	PartitionDown
)

func (k Kind) String() string {
	switch k {
	case WAPOutage:
		return "wap_outage"
	case ServerCrash:
		return "server_crash"
	case BurstLoss:
		return "burst_loss"
	case Corruption:
		return "corruption"
	case PartitionUp:
		return "partition_up"
	case PartitionDown:
		return "partition_down"
	default:
		return "unknown"
	}
}

// Window is one scheduled failure interval [T0, T1) in virtual time.
type Window struct {
	Kind   Kind
	T0, T1 float64
	// P is the per-packet probability for BurstLoss and Corruption
	// (ignored by the deterministic kinds; 0 means 1.0 — total).
	P float64
}

func (w Window) active(now float64) bool { return now >= w.T0 && now < w.T1 }

func (w Window) prob() float64 {
	if w.P <= 0 || w.P > 1 {
		return 1
	}
	return w.P
}

// Config is a declarative fault schedule.
type Config struct {
	Windows []Window
}

// Validate rejects malformed windows: negative start times, zero or
// negative lengths, unknown kinds, and same-kind windows that overlap
// (two overlapping outages are one longer outage — a schedule that
// encodes them separately is almost certainly a spec typo, and the
// injected-count accounting would double-bill the overlap).
func (c Config) Validate() error {
	for i, w := range c.Windows {
		if w.T0 < 0 {
			return fmt.Errorf("faults: window %d [%g, %g) starts before t=0", i, w.T0, w.T1)
		}
		if w.T1 <= w.T0 {
			return fmt.Errorf("faults: window %d [%g, %g) has zero or negative length", i, w.T0, w.T1)
		}
		if w.Kind < WAPOutage || w.Kind > PartitionDown {
			return fmt.Errorf("faults: window %d has unknown kind %d", i, w.Kind)
		}
		for j := 0; j < i; j++ {
			prev := c.Windows[j]
			// Half-open intervals: [a, b) and [b, c) do not overlap.
			if prev.Kind == w.Kind && w.T0 < prev.T1 && prev.T0 < w.T1 {
				return fmt.Errorf("faults: %s windows %d [%g, %g) and %d [%g, %g) overlap — merge them",
					w.Kind, j, prev.T0, prev.T1, i, w.T0, w.T1)
			}
		}
	}
	return nil
}

// Empty reports whether the schedule injects nothing.
func (c Config) Empty() bool { return len(c.Windows) == 0 }

// ParseSpec parses the compact CLI syntax used by `lgvsim -faults`:
// semicolon- or comma-separated windows of the form `kind:t0-t1[:p]`,
// e.g. "wap:10-20;server:30-45;burst:50-52:0.9;corrupt:60-70:0.5;
// partup:80-90;partdown:95-100". Times are seconds of virtual time.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	split := func(r rune) bool { return r == ';' || r == ',' }
	for _, part := range strings.FieldsFunc(spec, split) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return cfg, fmt.Errorf("faults: bad window %q (want kind:t0-t1[:p])", part)
		}
		var w Window
		switch fields[0] {
		case "wap":
			w.Kind = WAPOutage
		case "server":
			w.Kind = ServerCrash
		case "burst":
			w.Kind = BurstLoss
		case "corrupt":
			w.Kind = Corruption
		case "partup":
			w.Kind = PartitionUp
		case "partdown":
			w.Kind = PartitionDown
		default:
			return cfg, fmt.Errorf("faults: unknown kind %q in %q", fields[0], part)
		}
		t0t1 := strings.SplitN(fields[1], "-", 2)
		if len(t0t1) != 2 {
			return cfg, fmt.Errorf("faults: bad interval %q in %q", fields[1], part)
		}
		var err error
		if w.T0, err = strconv.ParseFloat(t0t1[0], 64); err != nil {
			return cfg, fmt.Errorf("faults: bad t0 in %q: %w", part, err)
		}
		if w.T1, err = strconv.ParseFloat(t0t1[1], 64); err != nil {
			return cfg, fmt.Errorf("faults: bad t1 in %q: %w", part, err)
		}
		if len(fields) == 3 {
			if w.P, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return cfg, fmt.Errorf("faults: bad probability in %q: %w", part, err)
			}
		}
		cfg.Windows = append(cfg.Windows, w)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// String renders the schedule back in ParseSpec syntax, sorted by T0.
func (c Config) String() string {
	ws := append([]Window(nil), c.Windows...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].T0 < ws[j].T0 })
	parts := make([]string, 0, len(ws))
	for _, w := range ws {
		name := map[Kind]string{
			WAPOutage: "wap", ServerCrash: "server", BurstLoss: "burst",
			Corruption: "corrupt", PartitionUp: "partup", PartitionDown: "partdown",
		}[w.Kind]
		s := fmt.Sprintf("%s:%g-%g", name, w.T0, w.T1)
		if w.P > 0 && w.P < 1 {
			s += fmt.Sprintf(":%g", w.P)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// Schedule is the runtime state of a fault configuration: it implements
// netsim.Impairment, counts every injected disturbance, and emits one
// timeline event per window occurrence. It is driven from the mission
// engine's single goroutine and is not safe for concurrent use.
type Schedule struct {
	windows []Window
	rng     *rand.Rand
	sink    *obs.Telemetry // nil when telemetry is off

	fired    []bool // one per window: fault event already emitted
	injected map[Kind]int
	total    int
}

// New builds a schedule with deterministic randomness for the
// probabilistic kinds. rng must be seeded by the caller (the engine
// derives it from the mission seed) so runs reproduce exactly.
func New(cfg Config, rng *rand.Rand) *Schedule {
	return &Schedule{
		windows:  append([]Window(nil), cfg.Windows...),
		rng:      rng,
		fired:    make([]bool, len(cfg.Windows)),
		injected: make(map[Kind]int),
	}
}

// SetSink attaches a telemetry sink (nil detaches).
func (s *Schedule) SetSink(sk *obs.Telemetry) { s.sink = sk }

// Impair implements netsim.Impairment: it folds every active window
// into one verdict for a packet sent at virtual time now in the given
// direction.
func (s *Schedule) Impair(now float64, dir netsim.Dir) netsim.Verdict {
	v := netsim.Verdict{SignalCap: 1}
	for i := range s.windows {
		w := &s.windows[i]
		if !w.active(now) {
			continue
		}
		disturbed := false
		switch w.Kind {
		case WAPOutage:
			v.SignalCap = 0
			disturbed = true
		case ServerCrash:
			v.Drop = true
			disturbed = true
		case BurstLoss:
			if s.rng.Float64() < w.prob() {
				v.Drop = true
				disturbed = true
			}
		case Corruption:
			if s.rng.Float64() < w.prob() {
				v.Corrupt = true
				disturbed = true
			}
		case PartitionUp:
			if dir == netsim.DirUp {
				v.Drop = true
				disturbed = true
			}
		case PartitionDown:
			if dir == netsim.DirDown {
				v.Drop = true
				disturbed = true
			}
		}
		if disturbed {
			s.count(now, i, w)
		}
	}
	return v
}

func (s *Schedule) count(now float64, idx int, w *Window) {
	s.injected[w.Kind]++
	s.total++
	if s.sink != nil {
		s.sink.Count(obs.MFaultsInjected, w.Kind.String(), 1)
		if !s.fired[idx] {
			s.sink.Emit(obs.Event{Kind: obs.KindFault, T0: w.T0, T1: w.T1,
				Node: w.Kind.String(),
				Detail: fmt.Sprintf("window [%g, %g) first disturbance at %.2f s",
					w.T0, w.T1, now)})
		}
	}
	s.fired[idx] = true
}

// Injected returns the total number of disturbed packets so far.
func (s *Schedule) Injected() int { return s.total }

// InjectedByKind returns the per-kind disturbance counts.
func (s *Schedule) InjectedByKind() map[Kind]int {
	out := make(map[Kind]int, len(s.injected))
	for k, n := range s.injected {
		out[k] = n
	}
	return out
}

// ActiveAt reports whether any window of the given kind covers now.
func (s *Schedule) ActiveAt(now float64, kind Kind) bool {
	for _, w := range s.windows {
		if w.Kind == kind && w.active(now) {
			return true
		}
	}
	return false
}
