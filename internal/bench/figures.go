package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"lgvoffload/internal/core"
	"lgvoffload/internal/energy"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/viz"
)

// WriteFigures renders the paper's figures as SVG files into dir:
// fig9_<platform>.svg, fig10_<platform>.svg, fig11.svg, fig12.svg,
// lab_map.svg, fig13_<workload>.svg, fig14.svg, fleet.svg and
// vision.svg. Each draws the data its experiment's report prints, so
// quick mode shrinks them the same way.
func WriteFigures(dir string, quick bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	steps := []func(string, bool) error{
		writeFig9SVG, writeFig10SVG, writeFig11SVG,
		writeFig12SVG, writeFig13SVG, writeFig14SVG, writeExtensionSVGs,
	}
	for _, f := range steps {
		if err := f(dir, quick); err != nil {
			return err
		}
	}
	return nil
}

func create(dir, name string, render func(f *os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("render %s: %w", name, err)
	}
	return f.Close()
}

func platformSlug(p hostsim.Platform) string {
	switch p.Cores {
	case 24:
		return "cloud"
	default:
		if p.PerfNorm > 1 {
			return "edge"
		}
		return "local"
	}
}

func writeFig9SVG(dir string, quick bool) error {
	d := fig9(quick)
	for _, pt := range platformsUnderTest() {
		var series []viz.Series
		for i, m := range d.particles {
			s := viz.Series{Name: fmt.Sprintf("M=%d", m)}
			for _, th := range pt.Threads {
				s.X = append(s.X, float64(th))
				s.Y = append(s.Y, pt.P.ExecTime(d.work[i], th))
			}
			series = append(series, s)
		}
		name := fmt.Sprintf("fig9_%s.svg", platformSlug(pt.P))
		err := create(dir, name, func(f *os.File) error {
			return viz.LineChart(f, viz.ChartConfig{
				Title: "Fig. 9 — SLAM time on " + pt.P.Name, XLabel: "threads",
				YLabel: "processing time (s)", LogY: true,
			}, series)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFig10SVG(dir string, quick bool) error {
	d := fig10(quick)
	for _, pt := range platformsUnderTest() {
		var series []viz.Series
		for i, smp := range d.samples {
			s := viz.Series{Name: fmt.Sprintf("S=%d", smp)}
			for _, th := range pt.Threads {
				s.X = append(s.X, float64(th))
				s.Y = append(s.Y, d.work[i].time(pt.P, th)*1000)
			}
			series = append(series, s)
		}
		name := fmt.Sprintf("fig10_%s.svg", platformSlug(pt.P))
		err := create(dir, name, func(f *os.File) error {
			return viz.LineChart(f, viz.ChartConfig{
				Title: "Fig. 10 — VDP time on " + pt.P.Name, XLabel: "threads",
				YLabel: "processing time (ms)",
			}, series)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFig11SVG(dir string, quick bool) error {
	rows := fig11Walk(quick)
	bw := viz.Series{Name: "bandwidth (msg/s)"}
	lat := viz.Series{Name: "latency (ms)"}
	sig := viz.Series{Name: "signal ×10"}
	for _, r := range rows {
		bw.X = append(bw.X, r.T)
		bw.Y = append(bw.Y, r.Bandwidth)
		sig.X = append(sig.X, r.T)
		sig.Y = append(sig.Y, r.Signal*10)
		if r.LatencyMs >= 0 {
			lat.X = append(lat.X, r.T)
			lat.Y = append(lat.Y, r.LatencyMs)
		}
	}
	return create(dir, "fig11.svg", func(f *os.File) error {
		return viz.LineChart(f, viz.ChartConfig{
			Title:  "Fig. 11 — UDP bandwidth vs latency under mobility (A→C→A)",
			XLabel: "time (s)", YLabel: "msg/s · ms · signal×10",
		}, []viz.Series{bw, lat, sig})
	})
}

// writeFig12SVG draws fig12.svg and, from the edge+8T mission's trace,
// the robot's path over the map in lab_map.svg.
func writeFig12SVG(dir string, quick bool) error {
	results, err := fig12(quick)
	if err != nil {
		return err
	}
	var series []viz.Series
	var path []geom.Vec2
	for i, d := range deployments() {
		s := viz.Series{Name: d.Name}
		for _, tp := range results[i].Trace {
			s.X = append(s.X, tp.T)
			s.Y = append(s.Y, tp.MaxVel)
			if d.Name == "edge+8T" {
				path = append(path, geom.V(tp.X, tp.Y))
			}
		}
		series = append(series, s)
	}
	err = create(dir, "fig12.svg", func(f *os.File) error {
		return viz.LineChart(f, viz.ChartConfig{
			Title:  "Fig. 12 — maximum velocity per deployment",
			XLabel: "time (s)", YLabel: "max velocity (m/s)",
		}, series)
	})
	if err != nil {
		return err
	}
	return create(dir, "lab_map.svg", func(f *os.File) error {
		return viz.MapSVG(f, labNav(core.DeployEdge(8), quick).Map, path)
	})
}

func writeFig13SVG(dir string, quick bool) error {
	for _, wl := range []core.Workload{core.NavigationWithMap, core.ExplorationNoMap} {
		rows, err := runFig13Workload(wl, quick)
		if err != nil {
			return err
		}
		var labels []string
		comp := map[energy.Component]*viz.Series{}
		order := []energy.Component{energy.Sensor, energy.Motor, energy.Microcontroller, energy.Computer}
		for _, c := range order {
			comp[c] = &viz.Series{Name: string(c)}
		}
		for _, r := range rows {
			labels = append(labels, r.Name)
			for _, c := range order {
				comp[c].Y = append(comp[c].Y, r.Energy[c])
			}
		}
		var series []viz.Series
		for _, c := range order {
			series = append(series, *comp[c])
		}
		name := fmt.Sprintf("fig13_%s.svg", wl)
		err = create(dir, name, func(f *os.File) error {
			return viz.BarChart(f, viz.ChartConfig{
				Title:  fmt.Sprintf("Fig. 13 — energy by component (%s)", wl),
				XLabel: "deployment", YLabel: "energy (J)",
			}, labels, series)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFig14SVG(dir string, quick bool) error {
	policies, err := fig14(quick)
	if err != nil {
		return err
	}
	high := policies[1].res
	vmax := viz.Series{Name: "maximum velocity"}
	vreal := viz.Series{Name: "real velocity"}
	for _, tp := range high.Trace {
		vmax.X = append(vmax.X, tp.T)
		vmax.Y = append(vmax.Y, tp.MaxVel)
		vreal.X = append(vreal.X, tp.T)
		vreal.Y = append(vreal.Y, tp.RealVel)
	}
	return create(dir, "fig14.svg", func(f *os.File) error {
		return viz.LineChart(f, viz.ChartConfig{
			Title:  "Fig. 14 — maximum vs real velocity on the obstacle course",
			XLabel: "time (s)", YLabel: "velocity (m/s)",
		}, []viz.Series{vmax, vreal})
	})
}

// writeExtensionSVGs renders the extension results: the fleet-scaling
// crossover and the vision-speed saturation curves.
func writeExtensionSVGs(dir string, quick bool) error {
	edge, cloud, err := fleetSweeps(quick)
	if err != nil {
		return err
	}
	var sizes, edgeT, cloudT []float64
	for i := range edge {
		sizes = append(sizes, float64(edge[i].FleetSize))
		edgeT = append(edgeT, edge[i].Time)
		cloudT = append(cloudT, cloud[i].Time)
	}
	err = create(dir, "fleet.svg", func(f *os.File) error {
		return viz.LineChart(f, viz.ChartConfig{
			Title:  "Fleet extension — per-robot mission time vs fleet size",
			XLabel: "robots sharing the server", YLabel: "mission time (s)",
		}, []viz.Series{
			{Name: "edge gateway (4 cores)", X: sizes, Y: edgeT},
			{Name: "cloud server (24 cores)", X: sizes, Y: cloudT},
		})
	})
	if err != nil {
		return err
	}

	var speeds, realized []float64
	for _, r := range vision(quick) {
		speeds = append(speeds, r.speed)
		realized = append(realized, r.realized)
	}
	return create(dir, "vision.svg", func(f *os.File) error {
		return viz.LineChart(f, viz.ChartConfig{
			Title:  "Vision extension — realized vs commanded speed (§IX)",
			XLabel: "commanded speed (m/s)", YLabel: "realized speed (m/s)",
		}, []viz.Series{
			{Name: "realized", X: speeds, Y: realized},
			{Name: "commanded (ideal)", X: speeds, Y: speeds},
		})
	})
}
