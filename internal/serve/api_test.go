package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lgvoffload/internal/serve"
	"lgvoffload/internal/simtest"
)

// spec returns a minimal valid scenario document: a short navigation
// hop in a tiny empty room, all-local so it needs no link modeling to
// finish fast.
func spec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{
		"mission_seed": %d,
		"workload": "navigation",
		"world": {"kind": "empty", "w": 5, "h": 4, "res": 0.1},
		"start_x": 1, "start_y": 1,
		"goal_x": 1.8, "goal_y": 1.3,
		"deploy": {"mode": "local", "threads": 1},
		"fleet": 1,
		"link": {"profile": "good", "wapx": 1, "wapy": 1},
		"max_sim_time": 20,
		"tracker_samples": 200
	}`, seed))
}

// withWorld returns spec(1) with its world replaced by the given JSON.
func withWorld(world string) string {
	return strings.Replace(string(spec(1)), `{"kind": "empty", "w": 5, "h": 4, "res": 0.1}`, world, 1)
}

// longSpec returns a mission that stays busy for hundreds of virtual
// seconds (a waypoint zig-zag across the room), so tests can reliably
// observe and cancel a running mission.
func longSpec(seed int64) []byte {
	wps := make([]string, 0, 40)
	for i := 0; i < 20; i++ {
		wps = append(wps, "[4,3]", "[1,1]")
	}
	return []byte(fmt.Sprintf(`{
		"mission_seed": %d,
		"workload": "navigation",
		"world": {"kind": "empty", "w": 5, "h": 4, "res": 0.1},
		"start_x": 1, "start_y": 1,
		"goal_x": 4, "goal_y": 3,
		"waypoints": [%s],
		"deploy": {"mode": "local", "threads": 1},
		"fleet": 1,
		"link": {"profile": "good", "wapx": 1, "wapy": 1},
		"max_sim_time": 100000,
		"tracker_samples": 200
	}`, seed, strings.Join(wps, ",")))
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Scheduler, *httptest.Server) {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = simtest.BuildScenarioMission
	}
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler(nil))
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(false, 60*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func decodeStatus(t *testing.T, r io.Reader) serve.Status {
	t.Helper()
	var st serve.Status
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func postMission(t *testing.T, ts *httptest.Server, body []byte) (serve.Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/missions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /missions: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /missions: status %d: %s", resp.StatusCode, b)
	}
	return decodeStatus(t, resp.Body), resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (serve.Status, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/missions/" + id)
	if err != nil {
		t.Fatalf("GET /missions/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return serve.Status{}, resp.StatusCode
	}
	return decodeStatus(t, resp.Body), resp.StatusCode
}

func pollUntil(t *testing.T, ts *httptest.Server, id string, pred func(serve.Status) bool) serve.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, code := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /missions/%s: status %d", id, code)
		}
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("mission %s: poll deadline exceeded", id)
	return serve.Status{}
}

func terminal(st serve.Status) bool { return st.State.Terminal() }

// TestAPILifecycle covers the happy path of every endpoint: create,
// poll to completion, fetch result, health.
func TestAPILifecycle(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxRunning: 2})

	st, resp := postMission(t, ts, spec(7))
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("POST content-type %q", ct)
	}
	if st.ID == "" || (st.State != serve.StateQueued && st.State != serve.StateRunning) {
		t.Fatalf("created mission: %+v", st)
	}
	if st.Workload != "navigation" || st.Seed != 7 {
		t.Errorf("created status lost metadata: %+v", st)
	}

	end := pollUntil(t, ts, st.ID, terminal)
	if end.State != serve.StateDone {
		t.Fatalf("mission ended %s (%s), want done", end.State, end.Reason)
	}
	if end.Success == nil || !*end.Success {
		t.Errorf("mission did not succeed: %+v", end)
	}
	if end.Summary == nil || !end.Summary.Success || end.Summary.Reason == "" {
		t.Errorf("terminal status missing summary: %+v", end.Summary)
	}
	if end.T <= 0 {
		t.Errorf("terminal status has no virtual time: %+v", end)
	}

	resp2, err := http.Get(ts.URL + "/missions/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp2.StatusCode)
	}
	res := decodeStatus(t, resp2.Body)
	if res.Summary == nil || res.Summary.TotalTime <= 0 || res.Summary.TotalEnergy <= 0 {
		t.Errorf("result summary incomplete: %+v", res.Summary)
	}

	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var hs serve.Stats
	if err := json.NewDecoder(resp3.Body).Decode(&hs); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if !hs.Accepting || hs.Admitted != 1 || hs.Done != 1 || hs.MaxRunning != 2 {
		t.Errorf("healthz: %+v", hs)
	}
}

// TestAPIBadSpec covers the 400 contract: non-JSON, unknown fields,
// semantically invalid scenarios (worlds that cannot be built among
// them), and bad query params never enqueue.
func TestAPIBadSpec(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"not-json", "/missions", "run the thing"},
		{"unknown-field", "/missions", `{"mission_seed":1,"workload":"navigation","bogus":true}`},
		{"bad-workload", "/missions", `{"mission_seed":1,"workload":"teleportation","world":{"kind":"empty","w":4,"h":4},"deploy":{"mode":"local","threads":1},"fleet":1,"link":{"profile":"good","wapx":1,"wapy":1},"max_sim_time":5}`},
		{"trailing-data", "/missions", `{"mission_seed":1,"workload":"navigation","world":{"kind":"empty","w":4,"h":4,"res":0.1},"start_x":1,"start_y":1,"goal_x":2,"goal_y":2,"deploy":{"mode":"local","threads":1},"fleet":1,"link":{"profile":"good","wapx":1,"wapy":1},"max_sim_time":5} {"second":true}`},
		{"bad-deadline", "/missions?deadline_ms=banana", string(spec(1))},
		{"negative-world", "/missions", withWorld(`{"kind":"empty","w":-5,"h":5}`)},
		{"sizeless-world", "/missions", withWorld(`{"kind":"clutter"}`)},
		{"negative-res", "/missions", withWorld(`{"kind":"empty","w":5,"h":4,"res":-0.05}`)},
		{"oversized-world", "/missions", withWorld(`{"kind":"empty","w":2000,"h":2000,"res":0.01}`)},
		{"too-much-clutter", "/missions", withWorld(`{"kind":"clutter","w":5,"h":4,"obstacles":100000}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, b)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Fatalf("400 body not an error document: %v %v", e, err)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs serve.Stats
	json.NewDecoder(resp.Body).Decode(&hs)
	if hs.Admitted != 0 {
		t.Errorf("malformed specs were admitted: %+v", hs)
	}
}

// TestAPIUnknownID covers the 404 contract on every per-mission route.
func TestAPIUnknownID(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, tc := range []struct {
		method, path string
	}{
		{http.MethodGet, "/missions/zzz"},
		{http.MethodGet, "/missions/zzz/result"},
		{http.MethodDelete, "/missions/zzz"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestAPICancel covers the cancel contract: canceling a queued mission
// is immediate, canceling a running one lands at the next slice
// boundary, canceling a finished one is 409, and a mission that never
// ran has no result (409).
func TestAPICancel(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxRunning: 1, SliceSteps: 32})

	first, _ := postMission(t, ts, longSpec(1))
	queued, _ := postMission(t, ts, spec(2))
	if queued.State != serve.StateQueued {
		t.Fatalf("second mission not queued with max-running 1: %+v", queued)
	}

	// Cancel the queued mission: immediate, and it never ran.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/missions/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != serve.StateCanceled {
		t.Fatalf("cancel queued: status %d state %s", resp.StatusCode, st.State)
	}
	resp, err = http.Get(ts.URL + "/missions/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of never-ran mission: status %d, want 409", resp.StatusCode)
	}

	// Cancel the running mission.
	pollUntil(t, ts, first.ID, func(st serve.Status) bool { return st.State == serve.StateRunning })
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/missions/"+first.ID+"?reason=operator", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	code := resp.StatusCode
	resp.Body.Close()
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("cancel running: status %d", code)
	}
	end := pollUntil(t, ts, first.ID, terminal)
	if end.State != serve.StateCanceled || end.Reason != "operator" {
		t.Fatalf("canceled mission ended %s (%q)", end.State, end.Reason)
	}
	// A canceled-while-running mission still has a partial result.
	resp, err = http.Get(ts.URL + "/missions/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	partial := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || partial.Summary == nil || partial.Summary.Success {
		t.Fatalf("partial result: status %d %+v", resp.StatusCode, partial.Summary)
	}

	// 409 on cancel-after-finish.
	done, _ := postMission(t, ts, spec(3))
	pollUntil(t, ts, done.ID, terminal)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/missions/"+done.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished: status %d, want 409", resp.StatusCode)
	}
}

// TestAPIQueueFullAndMethods covers 503 on a saturated queue and 405 on
// unsupported methods.
func TestAPIQueueFullAndMethods(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxRunning: 1, MaxQueued: 1, SliceSteps: 32})

	postMission(t, ts, longSpec(1)) // occupies the running slot
	postMission(t, ts, spec(2))     // occupies the queue
	resp, err := http.Post(ts.URL+"/missions", "application/json", bytes.NewReader(spec(3)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue full: status %d, want 503", resp.StatusCode)
	}

	for _, tc := range []struct{ method, path string }{
		{http.MethodPut, "/missions/j1"},
		{http.MethodPost, "/missions/j1/result"},
		{http.MethodPost, "/healthz"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestAPIFallthrough: paths the scheduler does not own reach the inner
// handler unchanged, including unknown mission IDs on GET.
func TestAPIFallthrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	s := serve.New(serve.Config{Build: simtest.BuildScenarioMission})
	defer s.Shutdown(false, time.Second)
	ts := httptest.NewServer(s.Handler(inner))
	defer ts.Close()

	for _, path := range []string{"/metrics", "/missions", "/missions/m1", "/dash"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTeapot {
			t.Errorf("GET %s: status %d, want fallthrough 418", path, resp.StatusCode)
		}
	}
}

// TestAPIConcurrent hammers create/poll/result from many goroutines —
// the -race contract of the ISSUE.
func TestAPIConcurrent(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxRunning: 4, SliceSteps: 64})

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/missions", "application/json", bytes.NewReader(spec(int64(100+i))))
			if err != nil {
				errs <- err
				return
			}
			var st serve.Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("create %d: code %d err %v", i, resp.StatusCode, err)
				return
			}
			deadline := time.Now().Add(120 * time.Second)
			for {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("mission %s: poll timeout", st.ID)
					return
				}
				resp, err := http.Get(ts.URL + "/missions/" + st.ID)
				if err != nil {
					errs <- err
					return
				}
				var cur serve.Status
				err = json.NewDecoder(resp.Body).Decode(&cur)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if cur.State.Terminal() {
					if cur.State != serve.StateDone || cur.Success == nil || !*cur.Success {
						errs <- fmt.Errorf("mission %s ended %s", st.ID, cur.State)
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
