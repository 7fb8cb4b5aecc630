package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lgvoffload"
)

// missionArtifacts runs one short observed, traced mission with a
// flight recorder and returns the three artifacts `-verify` checks: a
// flight bundle, a Chrome trace and a /metrics.prom scrape.
func missionArtifacts(t *testing.T) (bundle, trace, prom []byte) {
	t.Helper()
	tel := lgvoffload.NewTelemetry(0)
	tr := lgvoffload.NewTracer(1 << 14)
	fr := lgvoffload.NewFlightRecorder(lgvoffload.FlightConfig{})
	res, err := lgvoffload.Run(lgvoffload.MissionConfig{
		Workload:   lgvoffload.NavigationWithMap,
		Map:        lgvoffload.EmptyRoomMap(6, 4, 0.05),
		Start:      lgvoffload.Pose(0.8, 2, 0),
		Goal:       lgvoffload.Point(5.2, 2),
		WAP:        lgvoffload.Point(3, 2),
		Deployment: lgvoffload.DeployAdaptive(lgvoffload.HostEdge, 8, lgvoffload.GoalMCT),
		Seed:       1,
		MaxSimTime: 10,
		Telemetry:  tel,
		Tracer:     tr,
		FlightRec:  fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := fr.ForceDump("test", "", res.TotalTime)
	if b == nil {
		t.Fatal("flight recorder dumped nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	lgvoffload.NewInspector(tel, tr).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.prom", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics.prom status %d", rec.Code)
	}
	return b.Data, buf.Bytes(), rec.Body.Bytes()
}

// corruptLine returns a copy of data with its first line containing
// old rewritten to replace it with new.
func corruptLine(t *testing.T, data []byte, old, new string) []byte {
	t.Helper()
	lines := strings.Split(string(data), "\n")
	for i, l := range lines {
		if strings.Contains(l, old) {
			lines[i] = strings.Replace(l, old, new, 1)
			return []byte(strings.Join(lines, "\n"))
		}
	}
	t.Fatalf("no line contains %q", old)
	return nil
}

func TestVerifyArtifactKinds(t *testing.T) {
	bundle, trace, prom := missionArtifacts(t)
	cases := []struct {
		name string
		data []byte
		kind string // leads the summary when valid, the error otherwise
		ok   bool
	}{
		{"bundle", bundle, kindFlight, true},
		{"trace", trace, kindChrome, true},
		{"prom", prom, kindProm, true},
		// One corrupted line each: a frame that breaks JSON, a complete
		// event with an unknown phase, a sample with an unclosed label set.
		{"bundle-corrupt", corruptLine(t, bundle, `{"frame":{`, `{"frame":{{`), kindFlight, false},
		{"trace-corrupt", corruptLine(t, trace, `"ph":"X"`, `"ph":"?"`), kindChrome, false},
		{"prom-corrupt", corruptLine(t, prom, `quantile="0.5"}`, `quantile="0.5"`), kindProm, false},
		{"empty", nil, "empty file", false},
		{"blank", []byte("\n  \n"), "empty file", false},
		{"plain-text", []byte("hello world\nnot an artifact\n"), "not a flight bundle", false},
		{"other-json", []byte(`{"name":"x"}`), "not a flight bundle", false},
	}
	for _, tc := range cases {
		summary, err := verifyArtifact(tc.data)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.ok && !strings.HasPrefix(summary, tc.kind+", "):
			t.Errorf("%s: summary %q, want kind %q", tc.name, summary, tc.kind)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted as %q", tc.name, summary)
		case !tc.ok && !strings.HasPrefix(err.Error(), tc.kind):
			t.Errorf("%s: error %q, want it to start with %q", tc.name, err, tc.kind)
		}
	}
}

func TestRunVerifyExitCodes(t *testing.T) {
	bundle, trace, prom := missionArtifacts(t)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := []string{write("b.jsonl", bundle), write("t.json", trace), write("m.prom", prom)}

	var out, errOut bytes.Buffer
	if code := runVerify(good, &out, &errOut); code != 0 {
		t.Fatalf("valid files: exit %d, stderr:\n%s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(good) {
		t.Fatalf("want one ok line per file, got:\n%s", out.String())
	}
	for i, kind := range []string{kindFlight, kindChrome, kindProm} {
		if want := good[i] + ": ok: " + kind + ", "; !strings.HasPrefix(lines[i], want) {
			t.Errorf("line %q, want prefix %q", lines[i], want)
		}
	}

	for _, bad := range []string{write("empty", nil), filepath.Join(dir, "missing")} {
		out.Reset()
		errOut.Reset()
		if code := runVerify(append(good, bad), &out, &errOut); code != 1 {
			t.Errorf("%s: exit %d, want 1", bad, code)
		}
		if n := strings.Count(out.String(), ": ok: "); n != len(good) {
			t.Errorf("%s: %d ok lines, want %d", bad, n, len(good))
		}
		if !strings.Contains(errOut.String(), bad) {
			t.Errorf("%s: stderr does not name the file:\n%s", bad, errOut.String())
		}
	}
}
