package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"lgvoffload/internal/spans"
)

// tracerWith returns a tracer holding n one-span tick traces; span IDs
// run 2, 4, ..., 2n (each trace id takes the odd one before it).
func tracerWith(n int) *spans.Tracer {
	tr := spans.NewTracer(0)
	for i := 0; i < n; i++ {
		tr.Add(tr.NewTrace(), 0, "tick", "lgv", "", spans.Tick, float64(i), float64(i)+0.1)
	}
	return tr
}

func get(t *testing.T, h *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestInspectorRoutes(t *testing.T) {
	tel := NewTelemetry(16)
	tel.Drop(1.0, "scan", "uplink")
	srv := httptest.NewServer(NewInspector(tel, tracerWith(3)))
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "spans buffered: 3") {
		t.Errorf("index: %d %q", code, body)
	}
	code, body = get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "net_drops{scan}") {
		t.Errorf("metrics: %d %q", code, body)
	}
	code, body = get(t, srv, "/timeline")
	if code != 200 || !strings.Contains(body, `"drop"`) {
		t.Errorf("timeline: %d %q", code, body)
	}
	code, body = get(t, srv, "/trace")
	if code != 200 || !strings.Contains(body, "traceEvents") {
		t.Errorf("trace: %d %q", code, body)
	}
	code, body = get(t, srv, "/spans")
	if code != 200 || !strings.Contains(body, "tick") {
		t.Errorf("spans: %d %q", code, body)
	}
	code, body = get(t, srv, "/debug/vars")
	if code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("expvar: %d %q", code, body)
	}
	code, _ = get(t, srv, "/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("pprof: %d", code)
	}
	code, _ = get(t, srv, "/nope")
	if code != 404 {
		t.Errorf("unknown path: %d, want 404", code)
	}
}

func TestInspectorDisabledSources(t *testing.T) {
	srv := httptest.NewServer(NewInspector(nil, nil))
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "disabled") {
		t.Errorf("index: %d %q", code, body)
	}
	code, body = get(t, srv, "/metrics")
	if code != 200 || strings.TrimSpace(body) != "{}" {
		t.Errorf("metrics: %d %q", code, body)
	}
	code, _ = get(t, srv, "/trace")
	if code != 404 {
		t.Errorf("trace with tracing off: %d, want 404", code)
	}
}
