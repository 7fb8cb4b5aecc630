package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// WriteJSONL writes one JSON object per event, one event per line —
// loadable by any log pipeline (jq, DuckDB, pandas.read_json(lines=True)).
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL dumps the telemetry timeline as JSONL (nil-safe: writes
// nothing on a nil receiver).
func (t *Telemetry) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteJSONL(w, t.Timeline.Events())
}

// WriteJSON writes an expvar-style JSON snapshot of every metric: a map
// keyed "name{label}" for labeled metrics and "name" otherwise. Counters
// and gauges map to their value; histograms to {count, mean, p50, p95,
// p99}.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshotMap())
}

func (r *Registry) snapshotMap() map[string]any {
	out := make(map[string]any)
	for _, p := range r.Snapshot() {
		key := p.Name
		if p.Label != "" {
			key = p.Name + "{" + p.Label + "}"
		}
		if p.Kind == "histogram" {
			out[key] = map[string]any{
				"count": p.Count,
				"mean":  round3(p.Value),
				"p50":   round3(p.P50),
				"p95":   round3(p.P95),
				"p99":   round3(p.P99),
			}
		} else {
			out[key] = p.Value
		}
	}
	return out
}
