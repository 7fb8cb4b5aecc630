package bench

import (
	"fmt"
	"io"
	"math/rand"

	"lgvoffload/internal/core"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/netsim"
)

// apselRow is one (scenario, policy) corridor walk of the §X comparison.
type apselRow struct {
	scenario, policy  string
	remoteAvail, ctrl float64 // shares of ticks
	apSwitches        int
}

// apsel walks the corridor out and back under one and then two WAPs,
// each with the AP-selection baseline and then Algorithm 2.
func apsel(quick bool) []apselRow {
	length := 24.0
	duration := 120.0
	if quick {
		length = 16.0
		duration = 80.0
	}
	speed := 2 * length / duration // out and back

	walk := func(waps []geom.Vec2, alg2 bool) apselRow {
		links := make([]*netsim.Link, len(waps))
		meters := make([]*netsim.BandwidthMeter, len(waps))
		for i, wap := range waps {
			cfg := netsim.DefaultEdgeLink(wap)
			cfg.GoodRange = 4
			cfg.FadeRange = 9
			links[i] = netsim.NewLink(cfg, rand.New(rand.NewSource(int64(7+i))))
			meters[i] = netsim.NewBandwidthMeter()
		}
		ctl := core.NewNetController(core.NetThreshold)
		active := 0
		res := apselRow{}
		usable, controlled, ticks := 0, 0, 0
		for now := 0.2; now < duration; now += 0.2 {
			x := speed * now
			if now > duration/2 {
				x = speed * (duration - now)
			}
			pos := geom.V(x, 1.5)
			for i := range links {
				links[i].SetRobotPos(pos)
			}
			// Probe every AP (the baseline's bandwidth assessment).
			for i := range links {
				if arrive, dropped := links[i].Send(now, 64); !dropped {
					meters[i].Observe(arrive)
				}
			}
			// AP selection: switch to the AP with the best bandwidth.
			best := active
			for i := range meters {
				if meters[i].Rate(now) > meters[best].Rate(now)+1 {
					best = i
				}
			}
			if best != active {
				active = best
				res.apSwitches++
			}
			ticks++
			remoteUp := meters[active].Rate(now) >= 4
			if remoteUp {
				usable++
			}
			if alg2 {
				// Algorithm 2 gates remote use, but the robot always
				// retains control: local execution is the fallback.
				ctl.Update(meters[active].Rate(now), links[active].Direction())
				controlled++
			} else if remoteUp {
				// The baseline has no local fallback: its pinned-remote
				// pipeline only works while an AP is reachable.
				controlled++
			}
		}
		res.remoteAvail = float64(usable) / float64(ticks)
		res.ctrl = float64(controlled) / float64(ticks)
		return res
	}

	oneWAP := []geom.Vec2{{X: 0, Y: 1.5}}
	twoWAPs := []geom.Vec2{{X: 0, Y: 1.5}, {X: length, Y: 1.5}}

	var rows []apselRow
	r := walk(oneWAP, false)
	r.scenario, r.policy = "1 WAP", "AP selection [63-67]"
	rows = append(rows, r)
	r = walk(oneWAP, true)
	r.scenario, r.policy = "1 WAP", "Algorithm 2"
	rows = append(rows, r)
	r = walk(twoWAPs, false)
	r.scenario, r.policy = "2 WAPs", "AP selection [63-67]"
	rows = append(rows, r)
	r = walk(twoWAPs, true)
	r.scenario, r.policy = "2 WAPs", "Algorithm 2"
	return append(rows, r)
}

// RunAPSel runs the §X related-work comparison: prior robustness work
// selects among multiple access points by bandwidth estimation, which
// "cannot work when there are no multiple optional communication links".
// A corridor walk is driven under one and two WAPs; the AP-selection
// baseline keeps the robot connected only where *some* AP reaches it,
// while Algorithm 2 guarantees control continuity with a single AP by
// migrating computation home.
func RunAPSel(w io.Writer, quick bool) error {
	hr(w, "§X related work — AP selection vs Algorithm 2 on a corridor walk")
	fmt.Fprintf(w, "%-10s %-22s %16s %18s %10s\n",
		"scenario", "policy", "remote avail.", "control avail.", "AP switches")
	for _, r := range apsel(quick) {
		fmt.Fprintf(w, "%-10s %-22s %15.0f%% %17.0f%% %10d\n",
			r.scenario, r.policy, r.remoteAvail*100, r.ctrl*100, r.apSwitches)
	}
	fmt.Fprintln(w, "\nPaper's reading: with two APs both approaches keep the link alive; with a")
	fmt.Fprintln(w, "single AP the selection baseline has nothing to select — only Algorithm 2's")
	fmt.Fprintln(w, "migration keeps the vehicle under control through the dead zone.")
	return nil
}
