package bench

import (
	"fmt"
	"io"

	"lgvoffload/internal/core"
	"lgvoffload/internal/fleet"
)

// fleetSweeps runs the fleet extension: the small-room mission at each
// fleet size, sharing the edge gateway and then the cloud server.
func fleetSweeps(quick bool) (edge, cloud []fleet.Result, err error) {
	sizes := []int{1, 2, 4, 8, 16, 32}
	if quick {
		sizes = []int{1, 4, 16}
	}
	base := func(d core.Deployment) core.MissionConfig {
		cfg := labNav(d, true) // the small room keeps the sweep fast
		cfg.MaxSimTime = 600
		return cfg
	}
	if edge, err = fleet.Sweep(base(core.DeployEdge(8)), sizes, run); err != nil {
		return nil, nil, err
	}
	if cloud, err = fleet.Sweep(base(core.DeployCloud(12)), sizes, run); err != nil {
		return nil, nil, err
	}
	return edge, cloud, nil
}

// RunFleet runs the multi-robot extension: per-robot mission time and
// velocity as k vehicles share the edge gateway vs the cloud server,
// locating the fleet size where the manycore cloud overtakes the
// high-frequency gateway.
func RunFleet(w io.Writer, quick bool) error {
	edge, cloud, err := fleetSweeps(quick)
	if err != nil {
		return err
	}

	hr(w, "Fleet extension — per-robot mission time as k robots share one server")
	fmt.Fprintf(w, "%6s %16s %16s %14s %14s\n",
		"fleet", "edge time(s)", "cloud time(s)", "edge vmax", "cloud vmax")
	for i := range edge {
		fmt.Fprintf(w, "%6d %13.1f %s %13.1f %s %14.3f %14.3f\n",
			edge[i].FleetSize,
			edge[i].Time, okMark(edge[i].Success),
			cloud[i].Time, okMark(cloud[i].Success),
			edge[i].AvgVmax, cloud[i].AvgVmax)
	}
	if k, ok := fleet.Crossover(edge, cloud); ok {
		fmt.Fprintf(w, "\nedge → cloud crossover at fleet size %d: the 4-core gateway wins small\n", k)
		fmt.Fprintln(w, "fleets (paper Fig. 10: frequency beats cores on the VDP), but its share")
		fmt.Fprintln(w, "collapses first; the 24-core cloud amortizes across the larger fleet.")
	} else {
		fmt.Fprintln(w, "\nno crossover in range — widen the sweep")
	}
	return nil
}

func okMark(ok bool) string {
	if ok {
		return "  "
	}
	return "✗ "
}
