package core

import (
	"bytes"
	"math"
	"testing"

	"lgvoffload/internal/obs"
	"lgvoffload/internal/spans"
)

// runTraced runs a small mission with the tracer attached and returns
// both the result and the recorded spans.
func runTraced(t *testing.T, d Deployment, seed int64) (*Result, *spans.Tracer) {
	t.Helper()
	cfg := smallNav(d, seed)
	tr := spans.NewTracer(1 << 18) // hold the whole mission, no eviction
	cfg.Tracer = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// TestTraceSegmentsSumToMakespan is the tentpole acceptance check: for
// every tick that delivered a command, the compute+queue+transport
// segments recorded on its trace sum to the root span's measured VDP
// makespan within 1%.
func TestTraceSegmentsSumToMakespan(t *testing.T) {
	for _, d := range []Deployment{DeployLocal(), DeployEdge(8), DeployCloud(12)} {
		t.Run(d.Name, func(t *testing.T) {
			res, tr := runTraced(t, d, 3)
			if !res.Success {
				t.Fatalf("mission failed: %s", res.Reason)
			}
			if err := spans.Validate(tr.Spans()); err != nil {
				t.Fatalf("invalid span set: %v", err)
			}
			paths := spans.AnalyzeTicks(tr.Spans())
			if len(paths) < 20 {
				t.Fatalf("only %d tick traces for a %ds mission", len(paths), int(res.TotalTime))
			}
			checked := 0
			for _, p := range paths {
				if p.Makespan <= 0 {
					continue // starved tick: no command, no critical path
				}
				if diff := math.Abs(p.Sum() - p.Makespan); diff > 0.01*p.Makespan {
					t.Fatalf("tick at %.2fs: segments %.6f != makespan %.6f (%.2f%% off)",
						p.Start, p.Sum(), p.Makespan, 100*diff/p.Makespan)
				}
				checked++
			}
			if checked < 20 {
				t.Fatalf("only %d delivered ticks checked", checked)
			}
			// Remote deployments must show network time on the path.
			if d.Name != "local" {
				s := spans.Summarize(paths)
				if s.TransportP50 <= 0 {
					t.Errorf("remote deployment shows no transport time (p50=%g)", s.TransportP50)
				}
			}
		})
	}
}

// TestTraceChromeExportValidates covers the exporter end-to-end on real
// mission spans: well-formed JSON, monotonic ts, every parent present.
func TestTraceChromeExportValidates(t *testing.T) {
	_, tr := runTraced(t, DeployEdge(8), 5)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := spans.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if n != tr.Len() {
		t.Errorf("%d chrome events, want %d", n, tr.Len())
	}
}

// TestTraceCritPathFeedsTelemetry checks the obs registry sees the same
// decomposition (the post-mortem table source).
func TestTraceCritPathFeedsTelemetry(t *testing.T) {
	cfg := smallNav(DeployEdge(8), 3)
	cfg.Telemetry = obs.NewTelemetry(1 << 16)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("mission failed: %s", res.Reason)
	}
	var compute, transport float64
	for _, p := range cfg.Telemetry.Snapshot() {
		switch p.Name {
		case "critpath_compute_seconds":
			compute += p.Value * float64(p.Count)
		case "critpath_transport_seconds":
			transport += p.Value * float64(p.Count)
		}
	}
	if compute <= 0 || transport <= 0 {
		t.Errorf("critpath metrics empty: compute=%g transport=%g", compute, transport)
	}
}

// TestTraceChaosRecordsEpisodes runs the faulted adaptive mission with
// tracing on: the fault windows and safety episodes must appear as Mark
// spans alongside the tick trees.
func TestTraceChaosRecordsEpisodes(t *testing.T) {
	cfg := chaosNav(7)
	tr := spans.NewTracer(1 << 18)
	cfg.Tracer = tr
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := spans.Validate(tr.Spans()); err != nil {
		t.Fatalf("invalid span set: %v", err)
	}
	kinds := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Kind == spans.Mark {
			kinds[s.Name]++
		}
	}
	found := false
	for name := range kinds {
		if len(name) > 6 && name[:6] == "fault:" {
			found = true
		}
	}
	if !found {
		t.Errorf("no fault window marks recorded: %v", kinds)
	}
}
