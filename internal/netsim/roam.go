package netsim

import (
	"fmt"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
)

// WAP is one access point of a roaming link. Zero GoodRange/FadeRange
// inherit the LinkConfig-level values, so a WAP list can be positions
// only or carry per-WAP coverage (a long-range backbone AP next to a
// short-range in-aisle repeater).
type WAP struct {
	Pos       geom.Vec2
	GoodRange float64 // full signal within this distance, m (0 = LinkConfig.GoodRange)
	FadeRange float64 // zero signal beyond this distance, m (0 = LinkConfig.FadeRange)
}

// Roaming defaults, applied by NewLink when the link has more than one
// access point and the corresponding LinkConfig field is zero.
const (
	// DefaultHandoffMargin is how much stronger a candidate AP's signal
	// must be before the client roams to it — 802.11-style hysteresis so
	// the link does not ping-pong where two cells overlap evenly.
	DefaultHandoffMargin = 0.08
	// DefaultHandoffHoldSec is the minimum time between handoffs.
	DefaultHandoffHoldSec = 3.0
	// DefaultHandoffDipSec is how long the signal dips after a handoff
	// while the client re-associates (auth + DHCP-ish settling).
	DefaultHandoffDipSec = 0.5
	// DefaultHandoffDipFloor caps the effective signal during the dip.
	DefaultHandoffDipFloor = 0.35
)

// aps returns the full access-point list: the primary LinkConfig.WAP
// plus any roaming WAPs, with per-WAP ranges defaulted.
func (c LinkConfig) aps() []WAP {
	out := make([]WAP, 0, 1+len(c.WAPs))
	out = append(out, WAP{Pos: c.WAP, GoodRange: c.GoodRange, FadeRange: c.FadeRange})
	for _, ap := range c.WAPs {
		if ap.GoodRange == 0 {
			ap.GoodRange = c.GoodRange
		}
		if ap.FadeRange == 0 {
			ap.FadeRange = c.FadeRange
		}
		out = append(out, ap)
	}
	return out
}

// apSignal is the distance-fade signal of one AP at distance dist.
func apSignal(ap WAP, dist float64) float64 {
	switch {
	case dist <= ap.GoodRange:
		return 1
	case dist >= ap.FadeRange:
		return 0
	default:
		return 1 - (dist-ap.GoodRange)/(ap.FadeRange-ap.GoodRange)
	}
}

// maybeHandoff evaluates every AP at position p and roams to the
// strongest one if it beats the serving AP by the hysteresis margin and
// the hold-down has expired. On a handoff the direction estimate resets
// (the next fix is relative to the new AP) and the signal briefly dips
// while the client re-associates.
func (l *Link) maybeHandoff(now float64, p geom.Vec2) {
	best, bestSig := l.serving, -1.0
	for i, ap := range l.aps {
		s := apSignal(ap, p.Dist(ap.Pos))
		// Strict > keeps ties on the lowest index, deterministically.
		if s > bestSig {
			best, bestSig = i, s
		}
	}
	if best == l.serving {
		return
	}
	servingSig := apSignal(l.aps[l.serving], p.Dist(l.aps[l.serving].Pos))
	if bestSig < servingSig+l.cfg.HandoffMargin {
		return
	}
	if len(l.handoffTimes) > 0 && now-l.lastHandoff < l.cfg.HandoffHoldSec {
		return
	}
	from := l.serving
	l.serving = best
	l.lastHandoff = now
	l.handoffTimes = append(l.handoffTimes, now)
	// The new association starts with no history: the direction estimate
	// is meaningless across APs, so it resets and re-converges.
	l.direction = 0
	l.haveDist = false
	if l.sink != nil {
		l.sink.Count(obs.MLinkHandoffs, "", 1)
		l.sink.Emit(obs.Event{Kind: obs.KindHandoff, T0: now, T1: now + l.cfg.HandoffDipSec,
			Detail: fmt.Sprintf("wap%d -> wap%d", from, best), Value: bestSig - servingSig})
	}
}

// dipActive reports whether the post-handoff re-association dip covers
// virtual time now.
func (l *Link) dipActive(now float64) bool {
	return len(l.handoffTimes) > 0 && now >= l.lastHandoff && now-l.lastHandoff < l.cfg.HandoffDipSec
}

// Serving returns the index of the access point currently serving the
// link (0 is the primary LinkConfig.WAP).
func (l *Link) Serving() int { return l.serving }

// Handoffs returns how many times the link roamed between APs.
func (l *Link) Handoffs() int { return len(l.handoffTimes) }

// HandoffTimes returns the virtual times of every handoff, in order.
// The returned slice is owned by the link; callers must not mutate it.
func (l *Link) HandoffTimes() []float64 { return l.handoffTimes }
