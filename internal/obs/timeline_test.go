package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTimelineRingEviction(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 10; i++ {
		tl.Append(Event{Kind: KindProbe, T0: float64(i)})
	}
	evs := tl.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := float64(6 + i); ev.T0 != want {
			t.Errorf("event %d: T0 = %v, want %v (oldest-first)", i, ev.T0, want)
		}
	}
	if tl.Total() != 10 || tl.Evicted() != 6 {
		t.Errorf("total/evicted = %d/%d", tl.Total(), tl.Evicted())
	}
	// Sequence numbers keep counting across evictions.
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Errorf("seqs = %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
}

func TestTimelineDefaultCap(t *testing.T) {
	tl := NewTimeline(0)
	if got := len(tl.Events()); got != 0 {
		t.Errorf("fresh timeline has %d events", got)
	}
	tl.Append(Event{})
	if tl.Len() != 1 {
		t.Error("append on default-cap timeline")
	}
}

func TestWriteJSONLParses(t *testing.T) {
	tel := NewTelemetry(128)
	tel.SetPhase("navigation")
	tel.NodeExec("costmap_gen", "edge", 1.0, 0.02, 1)
	tel.Probe(1.2, 0.004)
	tel.Alg2(2.0, 3.1, -0.5, false)
	tel.Switch(2.0, 3.1, -0.5, 4096, false, "edge:[costmap_gen] -> local")
	tel.Transfer(2.2, 2.21, "scan", "edge", 2900)
	tel.Drop(2.4, "scan", "uplink")

	var buf bytes.Buffer
	if err := tel.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", n, err, sc.Text())
		}
		if ev.Kind == "" || ev.Seq == 0 {
			t.Errorf("line %d: missing kind/seq: %+v", n, ev)
		}
		if ev.T1 < ev.T0 {
			t.Errorf("line %d: span ends before it starts: %+v", n, ev)
		}
		if ev.Phase != "navigation" {
			t.Errorf("line %d: phase not stamped: %+v", n, ev)
		}
	}
	if n != 6 {
		t.Errorf("lines = %d, want 6", n)
	}
}

// TestNilTelemetrySafe proves a nil *Telemetry is a valid no-op sink:
// every hook and exporter must be callable without panicking.
func TestNilTelemetrySafe(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Error("nil telemetry reports enabled")
	}
	tel.SetPhase("x")
	tel.Count("a", "", 1)
	tel.SetGauge("a", "", 1)
	tel.Observe("a", "", 1)
	tel.Emit(Event{})
	tel.NodeExec("n", "h", 0, 0.1, 1)
	tel.TickSpan(0, 0.2, 0.05)
	tel.Probe(0, 0.001)
	tel.Alg2(0, 5, 1, true)
	tel.Switch(0, 5, 1, 0, true, "")
	tel.Transfer(0, 0.01, "t", "h", 10)
	tel.Drop(0, "t", "w")
	if tel.Events() != nil || tel.Snapshot() != nil || tel.Phase() != "" {
		t.Error("nil telemetry must return empty views")
	}
	var sb strings.Builder
	if err := tel.WriteJSONL(&sb); err != nil || sb.Len() != 0 {
		t.Error("nil telemetry JSONL must be empty")
	}
	if err := WritePostMortem(&sb, tel, 10); err != nil {
		t.Errorf("nil post-mortem: %v", err)
	}
	if !strings.Contains(sb.String(), "not enabled") {
		t.Error("nil post-mortem should say telemetry was off")
	}
}

func TestPostMortemSections(t *testing.T) {
	tel := NewTelemetry(0)
	tel.NodeExec("path_tracking", "edge", 0, 0.030, 8)
	tel.NodeExec("path_tracking", "edge", 0.2, 0.050, 8)
	tel.NodeExec("velocity_mux", "lgv", 0.2, 0.001, 1)
	tel.Probe(0.2, 0.004)
	tel.Transfer(0.3, 0.31, "scan", "edge", 2900)
	tel.Drop(0.5, "scan", "uplink")
	tel.Alg2(3.0, 2.0, -0.8, false)
	tel.Switch(3.0, 2.0, -0.8, 70000, false, "edge:[path_tracking] -> local")

	var sb strings.Builder
	if err := WritePostMortem(&sb, tel, 12.5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"node execution latency", "path_tracking", "velocity_mux",
		"host occupancy", "edge", "lgv",
		"adaptation decision log", "bw=2.0", "dir=-0.80",
		"switch", "alg2", "probe RTT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, out)
		}
	}
}
