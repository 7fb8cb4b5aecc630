package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"lgvoffload/internal/core"
	"lgvoffload/internal/store"
)

// checkStoreRoundTrip is the persistence invariant: recording a mission
// into the store must be non-invasive (the recorded rerun is
// byte-identical to the unrecorded primary), and what comes back off
// disk must be exactly what went in — the scenario JSON, the Result
// summary, and bookkeeping consistent with the persisted tick series.
// It reads the records of the scenario's shared rerun (see rerun.go).
func checkStoreRoundTrip(o *Outcome) error {
	r := o.rerunFor(withStore)
	if err := r.check(o, "recorded re-run errored", "recording perturbed the mission"); err != nil {
		return err
	}
	if r.storeErr != nil {
		return r.storeErr
	}
	md, want := r.stored, core.StoreSummary(r.out.Res)
	if !bytes.Equal([]byte(md.Start.Scenario), r.scJSON) {
		return fmt.Errorf("stored scenario JSON diverged: %s",
			firstDiff([]byte(md.Start.Scenario), r.scJSON))
	}

	// Summary round trip: the stored MissionEnd minus recorder
	// bookkeeping (and the store-assigned ID) must equal the summary the
	// producer handed to Finish.
	got := md.End.WithoutBookkeeping()
	got.ID = ""
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		return fmt.Errorf("stored summary diverged: %s", firstDiff(gotJSON, wantJSON))
	}

	// Bookkeeping consistency: the index entry's counts and quantiles
	// must describe exactly the bulk records persisted next to it.
	if md.End.Ticks != len(md.Ticks) || md.End.Decisions != len(md.Decisions) ||
		md.End.Faults != len(md.Faults) || md.End.SpanRows != len(md.Spans) {
		return fmt.Errorf("index counts (ticks %d, decisions %d, faults %d, spans %d) != stored records (%d, %d, %d, %d)",
			md.End.Ticks, md.End.Decisions, md.End.Faults, md.End.SpanRows,
			len(md.Ticks), len(md.Decisions), len(md.Faults), len(md.Spans))
	}
	if len(md.Ticks) > 0 {
		vdps := make([]float64, len(md.Ticks))
		var sum float64
		for i, tk := range md.Ticks {
			vdps[i] = tk.VDP
			sum += tk.VDP
		}
		sort.Float64s(vdps)
		mean := sum / float64(len(vdps))
		for _, q := range []struct {
			name string
			got  float64
			want float64
		}{
			{"mean", md.End.VDPMean, mean},
			{"p50", md.End.VDPP50, store.Quantile(vdps, 0.50)},
			{"p95", md.End.VDPP95, store.Quantile(vdps, 0.95)},
			{"p99", md.End.VDPP99, store.Quantile(vdps, 0.99)},
		} {
			if math.Abs(q.got-q.want) > 1e-12 {
				return fmt.Errorf("index VDP %s = %g but recomputing from %d stored ticks gives %g",
					q.name, q.got, len(vdps), q.want)
			}
		}
	}
	// The engine writes one decision record per Result log entry; the
	// bounded queue may drop under pathological I/O stalls, but then
	// Dropped must say so.
	if md.End.Dropped == 0 && len(md.Decisions) != len(r.out.Res.Decisions) {
		return fmt.Errorf("stored %d decisions but the Result logged %d (and Dropped=0)",
			len(md.Decisions), len(r.out.Res.Decisions))
	}
	return nil
}
