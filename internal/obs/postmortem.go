package obs

import (
	"fmt"
	"io"
)

// WritePostMortem renders the human-readable mission report: per-node
// latency histograms, per-host occupancy, the network transfer/drop
// summary, and the adaptation decision log with the bandwidth and
// signal-direction inputs that produced each switch. missionTime is the
// mission's total virtual time (for occupancy fractions). Nil-safe.
func WritePostMortem(w io.Writer, t *Telemetry, missionTime float64) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "post-mortem: telemetry was not enabled")
		return err
	}
	snap := t.Snapshot()

	fmt.Fprintln(w, "=== mission post-mortem ===")

	// --- Per-node latency histograms. ---------------------------------------
	fmt.Fprintf(w, "\nnode execution latency (ms):\n")
	fmt.Fprintf(w, "  %-18s %8s %9s %9s %9s %9s\n", "node", "execs", "mean", "p50", "p95", "p99")
	for _, p := range snap {
		if p.Name != MNodeExecSeconds {
			continue
		}
		fmt.Fprintf(w, "  %-18s %8d %9.2f %9.2f %9.2f %9.2f\n",
			p.Label, p.Count, p.Value*1000, p.P50*1000, p.P95*1000, p.P99*1000)
	}

	// --- Per-host occupancy. -------------------------------------------------
	fmt.Fprintf(w, "\nhost occupancy (execution seconds / mission time %.1f s):\n", missionTime)
	for _, p := range snap {
		if p.Name != MHostBusySeconds {
			continue
		}
		frac := 0.0
		if missionTime > 0 {
			frac = p.Value / missionTime
		}
		fmt.Fprintf(w, "  %-8s %8.1f s  (%.0f%%)\n", p.Label, p.Value, frac*100)
	}

	// --- Network summary. ----------------------------------------------------
	fmt.Fprintf(w, "\nnetwork (per topic): transfers / bytes / drops / overwrites:\n")
	stat := func(name, label string) float64 {
		for _, p := range snap {
			if p.Name == name && p.Label == label {
				return p.Value
			}
		}
		return 0
	}
	seen := map[string]bool{}
	for _, p := range snap {
		if p.Name != MTransfers && p.Name != MDrops && p.Name != MOverwrites {
			continue
		}
		if seen[p.Label] {
			continue
		}
		seen[p.Label] = true
		fmt.Fprintf(w, "  %-12s %8.0f %12.0f B %8.0f %8.0f\n", p.Label,
			stat(MTransfers, p.Label), stat(MTransferBytes, p.Label),
			stat(MDrops, p.Label), stat(MOverwrites, p.Label))
	}
	if p50 := statHist(snap, MProbeRTTSeconds); p50 != nil {
		fmt.Fprintf(w, "  probe RTT: %d samples, p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
			p50.Count, p50.P50*1000, p50.P95*1000, p50.P99*1000)
	}

	// --- Critical-path decomposition (fed every tick telemetry is on). -------
	anyCrit := false
	for _, p := range snap {
		switch p.Name {
		case MCritComputeSeconds, MCritQueueSeconds, MCritTransportSeconds:
			if !anyCrit {
				fmt.Fprintf(w, "\nVDP critical path per tick (ms):\n")
				fmt.Fprintf(w, "  %-24s %8s %9s %9s %9s\n", "segment", "ticks", "mean", "p50", "p95")
				anyCrit = true
			}
			fmt.Fprintf(w, "  %-24s %8d %9.2f %9.2f %9.2f\n",
				p.Name[len("critpath_"):len(p.Name)-len("_seconds")]+"{"+p.Label+"}",
				p.Count, p.Value*1000, p.P50*1000, p.P95*1000)
		}
	}

	// --- Adaptation decision log. --------------------------------------------
	fmt.Fprintf(w, "\nadaptation decision log:\n")
	any := false
	for _, ev := range t.Events() {
		switch ev.Kind {
		case KindAlg2:
			any = true
			decision := "LOCAL"
			if ev.Remote {
				decision = "REMOTE"
			}
			fmt.Fprintf(w, "  %7.1f s  alg2   -> %-6s  (bw=%.1f msg/s, dir=%+.2f)\n",
				ev.T0, decision, ev.Bandwidth, ev.Direction)
		case KindSwitch:
			any = true
			fmt.Fprintf(w, "  %7.1f s  switch %-28s (bw=%.1f msg/s, dir=%+.2f, state=%.0f B)\n",
				ev.T0, ev.Detail, ev.Bandwidth, ev.Direction, ev.Value)
		}
	}
	if !any {
		fmt.Fprintln(w, "  (no adaptation events — static deployment or stable link)")
	}

	// --- Mission store health. -----------------------------------------------
	if d := stat(MStoreDropped, ""); d > 0 {
		fmt.Fprintf(w, "\nmission store: recording queue dropped %.0f records — persisted time series have holes\n", d)
	}

	if ev := t.Timeline.Evicted(); ev > 0 {
		fmt.Fprintf(w, "\n(timeline ring evicted %d older events; totals above include them)\n", ev)
	}
	return nil
}

func statHist(snap []MetricPoint, name string) *MetricPoint {
	for i := range snap {
		if snap[i].Name == name && snap[i].Kind == "histogram" && snap[i].Count > 0 {
			return &snap[i]
		}
	}
	return nil
}
