package bench

import (
	"fmt"
	"io"
	"math/rand"

	"lgvoffload/internal/core"
	"lgvoffload/internal/costmap"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/slam"
	"lgvoffload/internal/trace"
	"lgvoffload/internal/tracker"
)

// platformsUnderTest returns the Fig. 9/10 platforms with the thread
// counts each can use (the paper sweeps 1–8 on the quad-core machines
// and up to 24 on the manycore cloud server).
func platformsUnderTest() []struct {
	P       hostsim.Platform
	Threads []int
} {
	return []struct {
		P       hostsim.Platform
		Threads []int
	}{
		{hostsim.RaspberryPi(), []int{1, 2, 4, 8}},
		{hostsim.EdgeGateway(), []int{1, 2, 4, 8}},
		{hostsim.CloudServer(), []int{1, 2, 4, 8, 12, 24}},
	}
}

// ecnWorkPerUpdate replays a dataset prefix through the RBPF and returns
// the average per-update work at the given particle count. The kernels
// run for real (the parallel scanMatch included), so the op counts are
// measured, not assumed.
func ecnWorkPerUpdate(ds *trace.Dataset, particles, entries int) hostsim.Work {
	cfg := slam.DefaultConfig(ds.Map.Width, ds.Map.Height, ds.Map.Resolution, ds.Map.Origin)
	cfg.NumParticles = particles
	s := slam.New(cfg, rand.New(rand.NewSource(7)))
	s.SetInitialPose(ds.Start)
	if entries > ds.Len() {
		entries = ds.Len()
	}
	var total hostsim.Work
	for _, e := range ds.Entries[:entries] {
		st := s.Update(e.OdomDelta, e.Scan)
		total = total.Add(core.SlamWork(st.MatchOps, st.IntegrateOps, st.WeightOps, st.CopyOps))
	}
	return total.Scale(1 / float64(entries))
}

// fig9Data is Figure 9's sweep: the measured per-update SLAM work at
// each particle count, and the headline numbers at the largest count.
type fig9Data struct {
	particles []int
	work      []hostsim.Work // per update, one per particle count
	base      float64        // local 1-thread seconds per update
	edgeUp    float64        // gateway speedup at 8 threads
	cloudUp   float64        // cloud speedup at 24 threads
}

func fig9(quick bool) fig9Data {
	particles := []int{10, 20, 30, 100}
	entries := 60
	if quick {
		particles = []int{10, 30}
		entries = 15
	}
	ds := trace.LabDataset(11, entries+5)

	// Measure the per-update work once per particle count.
	d := fig9Data{particles: particles}
	for _, m := range particles {
		d.work = append(d.work, ecnWorkPerUpdate(ds, m, entries))
	}
	maxW := d.work[len(d.work)-1]
	d.base = hostsim.RaspberryPi().ExecTime(maxW, 1)
	d.edgeUp = hostsim.EdgeGateway().Speedup(maxW, 8)
	d.cloudUp = hostsim.CloudServer().Speedup(maxW, 24)
	return d
}

// RunFig9 regenerates Figure 9: processing time of the energy-critical
// SLAM node under different thread and particle counts on the three
// platforms, with the headline speedups.
func RunFig9(w io.Writer, quick bool) error {
	d := fig9(quick)
	for _, pt := range platformsUnderTest() {
		hr(w, fmt.Sprintf("Fig. 9 — SLAM processing time (s) on %s", pt.P.Name))
		fmt.Fprintf(w, "%8s", "threads")
		for _, m := range d.particles {
			fmt.Fprintf(w, "  M=%-7d", m)
		}
		fmt.Fprintln(w)
		for _, th := range pt.Threads {
			fmt.Fprintf(w, "%8d", th)
			for _, wk := range d.work {
				fmt.Fprintf(w, "  %-9.4f", pt.P.ExecTime(wk, th))
			}
			fmt.Fprintln(w)
		}
	}

	hr(w, "Fig. 9 — headline accelerations at the largest particle count")
	fmt.Fprintf(w, "local 1-thread baseline: %.3f s/update (M=%d)\n", d.base, d.particles[len(d.particles)-1])
	fmt.Fprintf(w, "gateway (8 threads):   %6.2fx   (paper: up to 27.97x)\n", d.edgeUp)
	fmt.Fprintf(w, "cloud   (24 threads):  %6.2fx   (paper: up to 40.84x)\n", d.cloudUp)
	fmt.Fprintf(w, "manycore cloud beats the gateway on the ECN: %v (paper: yes)\n", d.cloudUp > d.edgeUp)
	return nil
}

// vdpWork is the average per-tick work of the velocity dependent path's
// three nodes.
type vdpWork struct{ cm, tk, mux hostsim.Work }

// time is the VDP's processing time on p. Only the trajectory scoring
// parallelizes (Fig. 5); costmap and mux are serial.
func (v vdpWork) time(p hostsim.Platform, threads int) float64 {
	return p.ExecTime(v.cm, 1) + p.ExecTime(v.tk, threads) + p.ExecTime(v.mux, 1)
}

// vdpWorkPerTick replays a dataset prefix through the VDP kernels
// (costmap update + trajectory rollout + mux) at the given trajectory
// count and returns average per-tick work for each node.
func vdpWorkPerTick(ds *trace.Dataset, samples, entries int) vdpWork {
	ccfg := costmap.DefaultConfig(ds.Map.Width, ds.Map.Height, ds.Map.Resolution, ds.Map.Origin)
	cmap := costmap.New(ccfg)
	cmap.SetStatic(ds.Map)

	tcfg := tracker.DefaultConfig()
	tcfg.WSamples = 40
	tcfg.VSamples = samples / 40
	if tcfg.VSamples < 1 {
		tcfg.VSamples = 1
	}
	tk8 := tracker.New(tcfg)

	if entries > ds.Len() {
		entries = ds.Len()
	}
	var v vdpWork
	n := 0
	for _, e := range ds.Entries[:entries] {
		st := cmap.Update(e.TruePose, e.Scan)
		v.cm = v.cm.Add(core.CostmapWork(st.Total()))
		out, err := tk8.Plan(tracker.Input{
			Pose: e.TruePose, Vel: geom.Twist{V: 0.1},
			Path:    []geom.Vec2{e.TruePose.Pos, e.TruePose.Pos.Add(geom.V(2, 0))},
			Costmap: cmap,
		})
		if err == nil {
			v.tk = v.tk.Add(core.TrackingWork(out.Ops))
		}
		v.mux = v.mux.Add(core.MuxWork())
		n++
	}
	inv := 1 / float64(n)
	return vdpWork{v.cm.Scale(inv), v.tk.Scale(inv), v.mux.Scale(inv)}
}

// fig10Data is Figure 10's sweep: the measured per-tick VDP work at each
// sample count, and the headline speedups at the largest count.
type fig10Data struct {
	samples []int
	work    []vdpWork // one per sample count
	base    float64   // local 1-thread seconds per tick
	edgeUp  float64   // gateway speedup at 8 threads
	cloudUp float64   // cloud speedup at 12 threads
}

func fig10(quick bool) fig10Data {
	samples := []int{200, 400, 1000, 2000}
	entries := 40
	if quick {
		samples = []int{200, 1000}
		entries = 10
	}
	ds := trace.LabDataset(12, entries+5)

	d := fig10Data{samples: samples}
	for _, s := range samples {
		d.work = append(d.work, vdpWorkPerTick(ds, s, entries))
	}
	maxW := d.work[len(d.work)-1]
	d.base = maxW.time(hostsim.RaspberryPi(), 1)
	d.edgeUp = d.base / maxW.time(hostsim.EdgeGateway(), 8)
	d.cloudUp = d.base / maxW.time(hostsim.CloudServer(), 12)
	return d
}

// RunFig10 regenerates Figure 10: processing time of the velocity
// dependent path (CostmapGen + Path Tracking + Velocity Multiplexer)
// under different thread and sample counts on the three platforms.
func RunFig10(w io.Writer, quick bool) error {
	d := fig10(quick)
	for _, pt := range platformsUnderTest() {
		hr(w, fmt.Sprintf("Fig. 10 — VDP processing time (ms) on %s", pt.P.Name))
		fmt.Fprintf(w, "%8s", "threads")
		for _, s := range d.samples {
			fmt.Fprintf(w, "  S=%-7d", s)
		}
		fmt.Fprintln(w)
		for _, th := range pt.Threads {
			fmt.Fprintf(w, "%8d", th)
			for _, wk := range d.work {
				fmt.Fprintf(w, "  %-9.2f", wk.time(pt.P, th)*1000)
			}
			fmt.Fprintln(w)
		}
	}

	hr(w, "Fig. 10 — headline accelerations at the largest sample count")
	fmt.Fprintf(w, "local 1-thread baseline: %.1f ms/tick (S=%d)\n", d.base*1000, d.samples[len(d.samples)-1])
	fmt.Fprintf(w, "gateway (8 threads):   %6.2fx   (paper: up to 23.92x)\n", d.edgeUp)
	fmt.Fprintf(w, "cloud  (12 threads):   %6.2fx   (paper: up to 17.29x)\n", d.cloudUp)
	fmt.Fprintf(w, "high-frequency gateway beats cloud on the VDP: %v (paper: yes)\n", d.edgeUp > d.cloudUp)
	cloud := hostsim.CloudServer()
	t4 := d.work[0].time(cloud, 4)
	t24 := d.work[0].time(cloud, 24)
	fmt.Fprintf(w, "cloud scaling saturates above 4 threads at S=%d: t(4)=%.2f ms, t(24)=%.2f ms (paper: yes)\n",
		d.samples[0], t4*1000, t24*1000)
	return nil
}
