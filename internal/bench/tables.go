package bench

import (
	"fmt"
	"io"

	"lgvoffload/internal/core"
	"lgvoffload/internal/energy"
)

// RunTable1 prints Table I: maximum power consumption per component for
// three commodity LGVs, with each component's share of the total.
func RunTable1(w io.Writer, _ bool) error {
	hr(w, "Table I: maximum power consumption of each component (W)")
	fmt.Fprintf(w, "%-12s %10s %10s %16s %10s %8s\n",
		"LGV", "Sensor", "Motor", "Microcontroller", "Computer", "Total")
	for _, r := range energy.TableI() {
		s := r.Share()
		fmt.Fprintf(w, "%-12s %5.2f (%2.0f%%) %5.2f (%2.0f%%) %10.2f (%2.0f%%) %5.2f (%2.0f%%) %7.2f\n",
			r.Vehicle,
			r.Sensor, s[0]*100, r.Motor, s[1]*100,
			r.Microcontroller, s[2]*100, r.Computer, s[3]*100, r.Total())
	}
	fmt.Fprintln(w, "\nPaper's reading: motors and the embedded computer dominate every vehicle,")
	fmt.Fprintln(w, "which is why offloading targets computation and why motor energy cannot improve.")
	return nil
}

// paperTable2 holds the published Gigacycle breakdown for comparison.
var paperTable2 = map[string]map[string]float64{
	"with map": {
		core.NodeLocalization: 0.028,
		core.NodeCostmap:      0.857,
		core.NodePlanner:      0.055,
		core.NodeTracking:     1.385,
	},
	"without map": {
		core.NodeSLAM:        3.327,
		core.NodeCostmap:     0.685,
		core.NodePlanner:     0.052,
		core.NodeExploration: 0.011,
		core.NodeTracking:    1.207,
	},
}

// table2 runs Table II's two workloads, with map and then without, on
// the edge deployment so the lab missions finish. Placement does not
// change a workload's cycle counts, which is the point of Table II.
// Quick mode uses the small rooms.
func table2(quick bool) (withMap, withoutMap *core.Result, err error) {
	d := core.DeployEdge(8)
	if withMap, err = run(labNav(d, quick)); err != nil {
		return nil, nil, err
	}
	if withoutMap, err = run(labExplore(d, quick)); err != nil {
		return nil, nil, err
	}
	return withMap, withoutMap, nil
}

// RunTable2 reproduces Table II: run both workloads and report each
// node's cycles and share, next to the paper's shares.
func RunTable2(w io.Writer, quick bool) error {
	withMap, withoutMap, err := table2(quick)
	if err != nil {
		return err
	}
	for _, t := range []struct {
		label string
		res   *core.Result
	}{{"with map", withMap}, {"without map", withoutMap}} {
		res := t.res
		hr(w, fmt.Sprintf("Table II (%s): cycle breakdown — %s, %.0f s mission", t.label,
			map[bool]string{true: "completed", false: res.Reason}[res.Success], res.TotalTime))
		paper := paperTable2[t.label]
		var paperTotal float64
		for _, gc := range paper {
			paperTotal += gc
		}
		fmt.Fprintf(w, "%-16s %14s %8s %14s %6s\n",
			"node", "measured Gc", "share", "paper share", "ECN?")
		classes := core.Classify(res.Cycles)
		for _, r := range res.Cycles.Breakdown() {
			paperShare := paper[r.Node] / paperTotal
			ecn := ""
			for _, c := range classes {
				if c.Node == r.Node && c.ECN {
					ecn = "ECN"
				}
			}
			fmt.Fprintf(w, "%-16s %14.3f %7.1f%% %13.1f%% %6s\n",
				r.Node, r.Work.Total()/1e9, r.Share*100, paperShare*100, ecn)
		}
	}
	return nil
}
