package bench

import (
	"fmt"
	"io"

	"lgvoffload/internal/core"
	"lgvoffload/internal/energy"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/world"
)

// fig12 runs the lab navigation mission under each of deployments(),
// in that order, with the velocity trace recorded.
func fig12(quick bool) ([]*core.Result, error) {
	var out []*core.Result
	for _, d := range deployments() {
		cfg := labNav(d, quick)
		cfg.RecordTrace = true
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RunFig12 regenerates Figure 12: the maximum velocity of the LGV over a
// navigation mission under the five offloading deployments.
func RunFig12(w io.Writer, quick bool) error {
	hr(w, "Fig. 12 — maximum velocity (m/s) during navigation, per deployment")
	results, err := fig12(quick)
	if err != nil {
		return err
	}
	deps := deployments()

	fmt.Fprintf(w, "%-10s %12s %12s\n", "deployment", "avg vmax", "mission(s)")
	var local float64
	for i, r := range results {
		fmt.Fprintf(w, "%-10s %12.3f %12.1f\n", deps[i].Name, r.AvgMaxVel, r.TotalTime)
		if deps[i].Name == "local" {
			local = r.AvgMaxVel
		}
	}
	best := 0.0
	for _, r := range results {
		if r.AvgMaxVel > best {
			best = r.AvgMaxVel
		}
	}
	fmt.Fprintf(w, "\nbest offloaded vmax / local vmax = %.2fx (paper: 4–5x)\n", best/local)

	// Velocity time series, downsampled, for the best deployment and local.
	hr(w, "Fig. 12 — velocity trace samples (t, vmax)")
	for i, r := range results {
		if deps[i].Name != "local" && r.AvgMaxVel != best {
			continue
		}
		fmt.Fprintf(w, "%s:", deps[i].Name)
		step := len(r.Trace) / 12
		if step < 1 {
			step = 1
		}
		for j := 0; j < len(r.Trace); j += step {
			fmt.Fprintf(w, " (%.0fs, %.2f)", r.Trace[j].T, r.Trace[j].MaxVel)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// fig13Summary is one deployment's end-to-end outcome.
type fig13Summary struct {
	Name    string
	Success bool
	Time    float64
	Energy  map[energy.Component]float64
	Total   float64
}

func runFig13Workload(wl core.Workload, quick bool) ([]fig13Summary, error) {
	var out []fig13Summary
	for _, d := range deployments() {
		var cfg core.MissionConfig
		if wl == core.NavigationWithMap {
			cfg = labNav(d, quick)
		} else {
			cfg = labExplore(d, quick)
		}
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, fig13Summary{
			Name: d.Name, Success: res.Success, Time: res.TotalTime,
			Energy: res.Energy, Total: res.TotalEnergy,
		})
	}
	return out, nil
}

// fig13Best returns the local row and the successful rows with the least
// total energy and the shortest mission time; the reductions Figure 13
// headlines are local over best.
func fig13Best(rows []fig13Summary) (local, bestTotal, bestTime fig13Summary) {
	bestTotal.Total = 1e18
	bestTime.Time = 1e18
	for _, r := range rows {
		if r.Name == "local" {
			local = r
		}
		if r.Success && r.Total < bestTotal.Total {
			bestTotal = r
		}
		if r.Success && r.Time < bestTime.Time {
			bestTime = r
		}
	}
	return local, bestTotal, bestTime
}

// RunFig13 regenerates Figure 13: total energy consumption by component
// and mission completion time for both workloads across the five
// deployments, with the reduction factors the paper headlines.
func RunFig13(w io.Writer, quick bool) error {
	for _, wl := range []core.Workload{core.NavigationWithMap, core.ExplorationNoMap} {
		rows, err := runFig13Workload(wl, quick)
		if err != nil {
			return err
		}
		hr(w, fmt.Sprintf("Fig. 13 (%s) — energy (J) by component and mission time", wl))
		fmt.Fprintf(w, "%-10s %5s %8s %8s %8s %8s %8s %9s %9s\n",
			"deploy", "ok", "sensor", "motor", "micro", "computer", "wireless", "total(J)", "time(s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %5v %8.0f %8.0f %8.0f %8.0f %8.1f %9.0f %9.1f\n",
				r.Name, r.Success,
				r.Energy[energy.Sensor], r.Energy[energy.Motor],
				r.Energy[energy.Microcontroller], r.Energy[energy.Computer],
				r.Energy[energy.Wireless], r.Total, r.Time)
		}
		local, bestTotal, bestTime := fig13Best(rows)
		paperE, paperT := "1.61x", "2.53x"
		if wl == core.ExplorationNoMap {
			paperE, paperT = "2.12x", "1.60x"
		}
		fmt.Fprintf(w, "\nenergy reduction vs local: %.2fx (%s, paper: %s)\n",
			local.Total/bestTotal.Total, bestTotal.Name, paperE)
		fmt.Fprintf(w, "time reduction vs local:   %.2fx (%s, paper: %s)\n",
			local.Time/bestTime.Time, bestTime.Name, paperT)
		fmt.Fprintf(w, "motor energy local/best: %.2fx (paper: ≈1, motors don't benefit)\n",
			local.Energy[energy.Motor]/bestTotal.Energy[energy.Motor])
	}
	return nil
}

// fig14Course is the Fig. 14 mission without its velocity cap: the
// obstacle course on the gateway at 8 threads. Quick mode drives a
// straight 10 m room instead.
func fig14Course(quick bool) core.MissionConfig {
	cfg := core.MissionConfig{
		Workload:   core.NavigationWithMap,
		Map:        world.ObstacleCourseMap(),
		Start:      geom.P(0.6, 3.0, 0),
		Goal:       geom.V(13.5, 0.8), // beyond the right-turn wall
		WAP:        geom.V(7, 3),
		Deployment: core.DeployEdge(8),
		Seed:       21,
		MaxSimTime: 900,
	}
	if quick {
		cfg.Map = world.EmptyRoomMap(10, 4, 0.05)
		cfg.Start = geom.P(0.8, 2, 0)
		cfg.Goal = geom.V(9, 2)
	}
	return cfg
}

// fig14Policy is one velocity policy's traced Fig. 14 mission, with the
// per-tick sums of the max-vs-real velocity gap and of the maximum.
type fig14Policy struct {
	name            string
	res             *core.Result
	gapSum, vmaxSum float64
}

// fig14 runs the course under the low-speed and the high-speed cap, in
// that order.
func fig14(quick bool) ([]fig14Policy, error) {
	var out []fig14Policy
	for _, p := range []struct {
		name  string
		vceil float64
	}{{"low-speed", 0.18}, {"high-speed", 0.6}} {
		cfg := fig14Course(quick)
		cfg.VCeil = p.vceil
		cfg.RecordTrace = true
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		pol := fig14Policy{name: p.name, res: res}
		for _, tp := range res.Trace {
			pol.gapSum += tp.MaxVel - tp.RealVel
			pol.vmaxSum += tp.MaxVel
		}
		out = append(out, pol)
	}
	return out, nil
}

// RunFig14 regenerates Figure 14: the gap between the maximum velocity
// and the real velocity across the obstacle-course phases (avoiding
// obstacles, heading straight, turning), for a low and a high velocity
// policy.
func RunFig14(w io.Writer, quick bool) error {
	hr(w, "Fig. 14 — maximum vs real velocity on the obstacle course")
	policies, err := fig14(quick)
	if err != nil {
		return err
	}
	for _, p := range policies {
		res := p.res
		n := float64(len(res.Trace))
		fmt.Fprintf(w, "\npolicy %-10s: success=%v time=%.1fs avg vmax=%.3f avg gap=%.3f (gap/vmax=%.0f%%)\n",
			p.name, res.Success, res.TotalTime, p.vmaxSum/n, p.gapSum/n, 100*p.gapSum/p.vmaxSum)
		fmt.Fprint(w, "trace (t, vmax, vreal):")
		step := len(res.Trace) / 14
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(res.Trace); i += step {
			tp := res.Trace[i]
			fmt.Fprintf(w, " (%.0f, %.2f, %.2f)", tp.T, tp.MaxVel, tp.RealVel)
		}
		fmt.Fprintln(w)
	}
	// §VIII-E follow-through: the same high-speed course with the
	// parallelism-shedding controller on — fewer reserved core-seconds,
	// similar completion time.
	for _, shed := range []bool{false, true} {
		cfg := fig14Course(quick)
		cfg.VCeil = 0.6
		cfg.ShedParallelism = shed
		res, err := run(cfg)
		if err != nil {
			return err
		}
		mode := "fixed 8 threads "
		if shed {
			mode = "shedding (§VIII-E)"
		}
		fmt.Fprintf(w, "\n%s: time=%.1fs, reserved core-seconds=%.0f, thread adjustments=%d",
			mode, res.TotalTime, res.CoreSeconds, res.ThreadAdjustments)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "\nPaper's reading: only on straight phases does the real velocity reach the")
	fmt.Fprintln(w, "maximum; the higher the cap, the bigger the gap — so matching the paid")
	fmt.Fprintln(w, "parallelism to the environment phase saves cloud resources without losing")
	fmt.Fprintln(w, "real speed (the §VIII-E adaptivity analysis, run live above).")
	return nil
}

// RunAlg1 runs the Algorithm 1 ablation: EC vs MCT goals under a good
// and a degraded network, reporting the chosen placements and outcomes.
func RunAlg1(w io.Writer, quick bool) error {
	hr(w, "Algorithm 1 ablation — EC vs MCT under good and degraded networks")
	fmt.Fprintf(w, "%-22s %-10s %8s %9s %9s %9s\n",
		"scenario", "goal", "success", "time(s)", "E(J)", "switches")
	// A clean corridor isolates the policy effect from obstacle-course
	// variance: the two goals differ only in where the VDP runs.
	corridor := world.EmptyRoomMap(14, 4, 0.05)
	if quick {
		corridor = world.EmptyRoomMap(6, 4, 0.05)
	}
	for _, goal := range []core.Goal{core.GoalEC, core.GoalMCT} {
		for _, slow := range []bool{false, true} {
			cfg := labNav(core.DeployAdaptive(core.HostCloud, 12, goal), quick)
			cfg.Map = corridor
			cfg.Start = geom.P(0.8, 2, 0)
			cfg.WAP = geom.V(float64(corridor.Width)*corridor.Resolution/2, 2)
			cfg.Goal = geom.V(float64(corridor.Width)*corridor.Resolution-0.8, 2)
			name := "good network"
			if slow {
				// A congested WAN: 300 ms each way makes the round trip
				// exceed the on-board VDP makespan, so MCT must pull the
				// T3 nodes home while EC keeps them remote for energy.
				lc := netsim.DefaultCloudLink(cfg.WAP)
				lc.WANLatSec = 0.300
				cfg.LinkCfg = &lc
				name = "congested WAN"
			}
			res, err := run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-22s %-10s %8v %9.1f %9.0f %9d\n",
				name, goal, res.Success, res.TotalTime, res.TotalEnergy, res.Switches)
			writeDecisionLog(w, res.Decisions)
		}
	}
	fmt.Fprintln(w, "\nPaper's reading: with a high-cost network, MCT migrates the T3 nodes back")
	fmt.Fprintln(w, "(completion time recovers); EC keeps ECNs remote to protect the battery.")
	return nil
}

// writeDecisionLog prints a mission's adaptation decisions with the
// profiler inputs (bandwidth, signal direction, VDP estimates) that
// produced each placement switch.
func writeDecisionLog(w io.Writer, decisions []core.AdaptDecision) {
	for _, d := range decisions {
		extra := ""
		if d.RemoteOK {
			extra = fmt.Sprintf(", VDP local=%.0f ms cloud=%.0f ms",
				d.LocalVDP*1000, d.CloudVDP*1000)
		}
		fmt.Fprintf(w, "    %7.1f s  %-9s %s -> %s  (bw=%.1f msg/s, dir=%+.2f%s)\n",
			d.T, d.Reason, d.From, d.To, d.Bandwidth, d.Direction, extra)
	}
}
