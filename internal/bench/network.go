package bench

import (
	"fmt"
	"io"
	"math/rand"

	"lgvoffload/internal/core"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/world"
)

// fig11Row is one 5 Hz sample of the Fig. 11 walk.
type fig11Row struct {
	T         float64
	Dist      float64 // robot-WAP distance
	Signal    float64
	Bandwidth float64
	LatencyMs float64 // latency of the latest received packet (-1 = none)
	Direction float64
	RemoteOK  bool // Algorithm 2's live decision
}

// fig11Walk drives the virtual LGV from point A (at the WAP) out to
// point C in the unstable area and back, sending 5 Hz messages, and
// returns the recorded time series.
func fig11Walk(quick bool) []fig11Row {
	link := netsim.NewLink(netsim.DefaultEdgeLink(geom.V(0, 0)), rand.New(rand.NewSource(3)))
	bw := netsim.NewBandwidthMeter()
	ctl := core.NewNetController(core.NetThreshold)

	duration := 90.0
	speed := 0.35 // m/s out and back
	if quick {
		duration = 50.0
		speed = 0.5
	}
	half := duration / 2

	var rows []fig11Row
	now := 0.0
	for now < duration {
		now += 0.2
		// Triangle walk: out to C at half-time, then back to A.
		var x float64
		if now <= half {
			x = speed * now
		} else {
			x = speed * (duration - now)
		}
		link.SetRobotPos(geom.V(x, 0))

		latency := -1.0
		if arrive, dropped := link.Send(now, 64); !dropped {
			bw.Observe(arrive)
			latency = (arrive - now) * 1000
		}
		rate := bw.Rate(now)
		var remoteOK bool
		if now > 2 { // same warm-up as the engine
			remoteOK = ctl.Update(rate, link.Direction())
		} else {
			remoteOK = ctl.RemoteOK()
		}
		rows = append(rows, fig11Row{
			T: now, Dist: x, Signal: link.Signal(), Bandwidth: rate,
			LatencyMs: latency, Direction: link.Direction(), RemoteOK: remoteOK,
		})
	}
	return rows
}

// RunFig11 regenerates Figure 11: the latency and bandwidth of 5 Hz UDP
// transmission while the LGV walks from the WAP (A) into the unstable
// area (C) and back, with Algorithm 2's switching decisions.
func RunFig11(w io.Writer, quick bool) error {
	rows := fig11Walk(quick)
	hr(w, "Fig. 11 — network latency and bandwidth of UDP under mobility (threshold = 4 msg/s)")
	fmt.Fprintf(w, "%6s %6s %7s %10s %10s %9s %7s\n",
		"t(s)", "d(m)", "signal", "bw(msg/s)", "lat(ms)", "direction", "remote")
	step := len(rows) / 30
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(rows); i += step {
		r := rows[i]
		lat := "lost"
		if r.LatencyMs >= 0 {
			lat = fmt.Sprintf("%.2f", r.LatencyMs)
		}
		fmt.Fprintf(w, "%6.1f %6.2f %7.2f %10.1f %10s %9.2f %7v\n",
			r.T, r.Dist, r.Signal, r.Bandwidth, lat, r.Direction, r.RemoteOK)
	}

	offAt, onAt := fig11SwitchTimes(rows)
	fmt.Fprintf(w, "\nAlgorithm 2 switched LOCAL at t=%.1f s (outbound, bandwidth collapsed while receding)\n", offAt)
	fmt.Fprintf(w, "Algorithm 2 switched REMOTE at t=%.1f s (inbound, bandwidth recovered while approaching)\n", onAt)
	fmt.Fprintln(w, "Paper's reading: received-packet latency stays low until deep fade (best-effort")
	fmt.Fprintln(w, "UDP hides loss), while bandwidth + signal direction predict the failure early.")
	return nil
}

// fig11SwitchTimes returns when Algorithm 2 first switched to local and
// when it first switched back to remote after that (0 = never).
func fig11SwitchTimes(rows []fig11Row) (offAt, onAt float64) {
	prev := true
	for _, r := range rows {
		if prev && !r.RemoteOK && offAt == 0 {
			offAt = r.T
		}
		if !prev && r.RemoteOK && offAt > 0 && onAt == 0 {
			onAt = r.T
		}
		prev = r.RemoteOK
	}
	return offAt, onAt
}

// RunAlg2 runs the Algorithm 2 ablation: a full mission across a dead
// zone under three policies — adaptive (bandwidth+direction), static
// remote, and all-local — and reports completion time and robustness.
func RunAlg2(w io.Writer, quick bool) error {
	length := 24.0
	if quick {
		length = 14.0
	}
	m := world.EmptyRoomMap(length, 3, 0.1)
	link := netsim.DefaultEdgeLink(geom.V(1, 1.5))
	link.GoodRange = 3
	link.FadeRange = 8

	base := core.MissionConfig{
		Workload:   core.NavigationWithMap,
		Map:        m,
		Start:      geom.P(1, 1.5, 0),
		Goal:       geom.V(length-2, 1.5),
		WAP:        geom.V(1, 1.5),
		LinkCfg:    &link,
		Seed:       5,
		MaxSimTime: 900,
	}

	hr(w, "Algorithm 2 ablation — mission across a WAP dead zone")
	fmt.Fprintf(w, "%-24s %8s %9s %9s %8s %9s %8s\n",
		"policy", "success", "time(s)", "stdby(s)", "drops", "switches", "E(J)")
	var adaptive []core.AdaptDecision
	for _, d := range []core.Deployment{
		core.DeployAdaptive(core.HostEdge, 8, core.GoalMCT),
		core.DeployEdge(8),
		core.DeployLocal(),
	} {
		cfg := base
		cfg.Deployment = d
		res, err := run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %8v %9.1f %9.1f %8d %9d %8.0f\n",
			d.Name, res.Success, res.TotalTime, res.StandbyTime,
			res.MsgsDropped, res.Switches, res.TotalEnergy)
		if cfg.Deployment.Mode == core.Adaptive {
			adaptive = res.Decisions
		}
	}
	if len(adaptive) > 0 {
		fmt.Fprintln(w, "\nadaptive decision log (bandwidth and direction at each switch):")
		writeDecisionLog(w, adaptive)
	}
	fmt.Fprintln(w, "\nPaper's reading: static offloading starves in the dead zone; the adaptive")
	fmt.Fprintln(w, "policy rides the fast server while reachable and degrades to local gracefully.")
	return nil
}
