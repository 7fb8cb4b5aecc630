package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lgvoffload/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(filepath.Join(t.TempDir(), "m.lgvstore"))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	rec, err := s.Begin(store.MissionStart{Seed: 42, Workload: "navigation"})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 25; i++ {
		rec.Tick(store.Tick{T: float64(i) * 0.2, VDP: 0.1 + float64(i%5)*0.02, EnergyJ: float64(i)})
	}
	rec.Decision(store.Decision{T: 1, Reason: "alg2", From: "lgv", To: "edge"})
	rec.SpanRow(store.SpanRow{T: 0.2, Makespan: 0.1, Compute: 0.07, Transport: 0.03})
	if err := rec.Finish(store.MissionEnd{Success: true, Reason: "goal", TotalTime: 5,
		Energy: map[string]float64{"compute": 3}, TotalEnergy: 3}); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return s
}

func TestInspectorDashboardRoutes(t *testing.T) {
	s := testStore(t)
	tel := NewTelemetry(64)
	hub := NewLiveHub(0)
	tel.Tee(hub)
	srv := httptest.NewServer(NewInspectorWith(InspectorConfig{
		Telemetry: tel, Trace: tracerWith(1), Store: s, Live: hub,
	}))
	defer srv.Close()
	defer hub.Close()

	code, body := get(t, srv, "/missions")
	if code != 200 || !strings.Contains(body, `"m1"`) {
		t.Errorf("/missions: %d %q", code, body)
	}
	var list []store.MissionInfo
	if err := json.Unmarshal([]byte(body), &list); err != nil || len(list) != 1 {
		t.Errorf("/missions decode: %v len=%d", err, len(list))
	}

	code, body = get(t, srv, "/missions?outcome=failure")
	if code != 200 || strings.Contains(body, `"m1"`) {
		t.Errorf("/missions filtered: %d %q", code, body)
	}

	code, body = get(t, srv, "/missions/m1")
	if code != 200 {
		t.Fatalf("/missions/m1: %d %q", code, body)
	}
	var md store.MissionData
	if err := json.Unmarshal([]byte(body), &md); err != nil {
		t.Fatalf("/missions/m1 decode: %v", err)
	}
	if len(md.Ticks) != 25 || len(md.Decisions) != 1 || len(md.Spans) != 1 {
		t.Errorf("/missions/m1 contents: ticks=%d dec=%d spans=%d",
			len(md.Ticks), len(md.Decisions), len(md.Spans))
	}

	code, _ = get(t, srv, "/missions/nope")
	if code != 404 {
		t.Errorf("/missions/nope: %d, want 404", code)
	}

	code, body = get(t, srv, "/fleet")
	if code != 200 || !strings.Contains(body, `"vdp_p99"`) {
		t.Errorf("/fleet: %d %q", code, body)
	}
	var fl store.Fleet
	if err := json.Unmarshal([]byte(body), &fl); err != nil || fl.Missions != 1 || fl.VDPP99 <= 0 {
		t.Errorf("/fleet decode: %v %+v", err, fl)
	}

	code, body = get(t, srv, "/dash")
	if code != 200 || !strings.Contains(body, "lgvoffload fleet") {
		t.Errorf("/dash: %d", code)
	}

	code, body = get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "1 missions") {
		t.Errorf("index with store: %d %q", code, body)
	}
}

func TestInspectorDashboardDisabled(t *testing.T) {
	srv := httptest.NewServer(NewInspector(nil, nil))
	defer srv.Close()
	for _, path := range []string{"/missions", "/missions/m1", "/fleet", "/live"} {
		if code, _ := get(t, srv, path); code != 404 {
			t.Errorf("%s without store/hub: %d, want 404", path, code)
		}
	}
}

func TestTimelinePaging(t *testing.T) {
	tel := NewTelemetry(4096)
	for i := 0; i < 500; i++ {
		tel.Emit(Event{Kind: KindTick, T0: float64(i)})
	}
	srv := httptest.NewServer(NewInspector(tel, nil))
	defer srv.Close()

	countLines := func(body string) int {
		return len(strings.Fields(strings.ReplaceAll(strings.TrimSpace(body), "\n", " ")))
	}

	// Default: bounded tail.
	_, body := get(t, srv, "/timeline")
	if n := strings.Count(body, "\n"); n != DefaultTimelineLimit {
		t.Errorf("default page: %d lines, want %d", n, DefaultTimelineLimit)
	}
	// Explicit limit.
	_, body = get(t, srv, "/timeline?limit=10")
	if n := strings.Count(body, "\n"); n != 10 {
		t.Errorf("limit=10: %d lines", n)
	}
	// Legacy ?n alias still works.
	_, body = get(t, srv, "/timeline?n=7")
	if n := strings.Count(body, "\n"); n != 7 {
		t.Errorf("n=7: %d lines", n)
	}
	// Cursor paging walks forward from a seq.
	_, body = get(t, srv, "/timeline?after=490&limit=100")
	if n := strings.Count(body, "\n"); n != 10 {
		t.Errorf("after=490: %d lines, want 10", n)
	}
	if !strings.Contains(body, `"seq":491`) || strings.Contains(body, `"seq":490,`) {
		t.Errorf("after=490 page contents wrong: %q", body[:min(len(body), 200)])
	}
	// Cursor past the end: empty page.
	_, body = get(t, srv, "/timeline?after=500")
	if countLines(body) != 0 {
		t.Errorf("after=500: %q, want empty", body)
	}
}

func TestSpansPaging(t *testing.T) {
	tr := tracerWith(2500) // span IDs 2, 4, ..., 5000
	srv := httptest.NewServer(NewInspector(nil, tr))
	defer srv.Close()

	_, body := get(t, srv, "/spans")
	if n := strings.Count(body, "\n"); n != DefaultSpanLimit {
		t.Errorf("default spans page: %d lines, want %d", n, DefaultSpanLimit)
	}
	_, body = get(t, srv, "/spans?after=4980&limit=100")
	if n := strings.Count(body, "\n"); n != 10 {
		t.Errorf("after=4980: %d lines, want 10", n)
	}
	if !strings.Contains(body, `"id":4982,`) || strings.Contains(body, `"id":4980,`) {
		t.Errorf("page start wrong: %q", body[:min(len(body), 120)])
	}
}

func TestLiveHubSSE(t *testing.T) {
	tel := NewTelemetry(64)
	hub := NewLiveHub(8)
	tel.Tee(hub)
	defer hub.Close()
	srv := httptest.NewServer(NewInspectorWith(InspectorConfig{Telemetry: tel, Live: hub}))
	defer srv.Close()

	// Events emitted before the client connects arrive via replay.
	tel.Watchdog(1.5, 0.6)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/live", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("GET /live: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	lines := bufio.NewScanner(resp.Body)
	read := func() string {
		for lines.Scan() {
			if l := lines.Text(); l != "" {
				return l
			}
		}
		t.Fatalf("stream ended early: %v", lines.Err())
		return ""
	}
	if l := read(); l != "event: hello" {
		t.Fatalf("first frame %q, want hello", l)
	}
	read() // hello data
	if l := read(); l != "event: watchdog_stop" {
		t.Fatalf("replay frame %q, want watchdog_stop", l)
	}
	read() // watchdog data

	// A live event published after subscribing arrives too.
	tel.Failover(2.0, 3, "remote -> local")
	if l := read(); l != "event: failover" {
		t.Fatalf("live frame %q, want failover", l)
	}
	if l := read(); !strings.Contains(l, `"failover"`) {
		t.Fatalf("failover data %q", l)
	}
}

// TestInspectorConcurrentScrape hammers every read route while a
// mission writer is emitting telemetry, spans and store records — the
// live-dashboard usage pattern. Run under -race (make check does) to
// verify the locking of every source the inspector reads.
func TestInspectorConcurrentScrape(t *testing.T) {
	s := testStore(t)
	tel := NewTelemetry(256)
	hub := NewLiveHub(0)
	tel.Tee(hub)
	defer hub.Close()
	srv := httptest.NewServer(NewInspectorWith(InspectorConfig{
		Telemetry: tel, Trace: tracerWith(2), Store: s, Live: hub,
	}))
	defer srv.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(2)
	// Writers sleep briefly each iteration: the point is interleaving
	// with the scrapers, not throughput — an unyielding spin starves the
	// reader goroutines under the race detector.
	go func() { // telemetry writer (the mission engine)
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			now := float64(i) * 0.2
			tel.TickSpan(now, now+0.2, 0.1)
			tel.Alg2(now, 40, 1.5, i%2 == 0)
			tel.NodeExec("planner", "edge", now, 0.03, 4)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // store writer (a second mission recording)
		defer writers.Done()
		rec, err := s.Begin(store.MissionStart{Seed: 43})
		if err != nil {
			t.Error(err)
			return
		}
		i := 0
		for {
			select {
			case <-stop:
				rec.Finish(store.MissionEnd{Success: true, TotalTime: float64(i),
					Energy: map[string]float64{}, TotalEnergy: 1})
				return
			default:
				rec.Tick(store.Tick{T: float64(i) * 0.2, VDP: 0.1})
				i++
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	routes := []string{"/", "/metrics", "/timeline", "/timeline?after=5&limit=50",
		"/spans", "/missions", "/missions/m1", "/fleet"}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				path := routes[i%len(routes)]
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s: %d", path, resp.StatusCode)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
