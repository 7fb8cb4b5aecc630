package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{})
	// 1/1024 s apart, so every frame ever recorded is inside the dump
	// window and only the ring bound can drop one.
	n := flightFrames + 12
	for i := 0; i < n; i++ {
		r.Record(FlightFrame{T: float64(i) / 1024})
	}
	last := float64(n-1) / 1024
	if got := r.FrameCount(); got != flightFrames {
		t.Fatalf("FrameCount = %d, want %d", got, flightFrames)
	}
	if got := r.LastTime(); got != last {
		t.Fatalf("LastTime = %g, want %g", got, last)
	}
	b := r.ForceDump("test", "", last)
	if b == nil {
		t.Fatal("ForceDump returned nil")
	}
	// The ring holds the newest flightFrames frames: the first 12 are gone.
	if b.Frames != flightFrames {
		t.Fatalf("bundle has %d frames, want %d", b.Frames, flightFrames)
	}
	if !bytes.Contains(b.Data, []byte(`{"frame":{"t":0.01171875,`)) ||
		bytes.Contains(b.Data, []byte(`{"frame":{"t":0.0107421875,`)) {
		t.Error("bundle does not start at the 13th frame")
	}
	info, err := VerifyFlightBundle(b.Data)
	if err != nil {
		t.Fatalf("bundle fails verification: %v", err)
	}
	if info.Frames != flightFrames || info.Reason != "test" || info.T != last {
		t.Errorf("verified info %+v", info)
	}
}

func TestFlightDumpWindow(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{})
	for i := 0; i < 50; i++ {
		r.Record(FlightFrame{T: float64(i)})
	}
	b := r.Dump("w", "", 49)
	if b == nil {
		t.Fatal("Dump returned nil")
	}
	// Only the last flightWindow seconds: t in [19, 49].
	if b.Frames != 31 {
		t.Fatalf("bundle has %d frames, want 31 (t=19..49)", b.Frames)
	}
	if _, err := VerifyFlightBundle(b.Data); err != nil {
		t.Fatal(err)
	}
}

func TestFlightDumpRateLimit(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{MaxDumps: 2, MinSpacing: 5})
	r.Record(FlightFrame{T: 1})
	if r.Dump("a", "", 1) == nil {
		t.Fatal("first dump suppressed")
	}
	if b := r.Dump("b", "", 2); b != nil {
		t.Fatal("dump inside MinSpacing not suppressed")
	}
	if r.Dump("c", "", 7) == nil {
		t.Fatal("dump after MinSpacing suppressed")
	}
	if b := r.Dump("d", "", 20); b != nil {
		t.Fatal("dump beyond MaxDumps not suppressed")
	}
	// ForceDump gets the reserved extra slot, then stops too.
	if r.ForceDump("panic", "", 21) == nil {
		t.Fatal("forced dump suppressed despite reserved slot")
	}
	if r.ForceDump("panic2", "", 22) != nil {
		t.Fatal("second forced dump beyond the reserved slot")
	}
	if got := len(r.Bundles()); got != 3 {
		t.Errorf("kept %d bundles, want 3", got)
	}
}

func TestFlightDumpAtVirtualZero(t *testing.T) {
	// lastDump==0 is a valid virtual time: a dump at t=0 must still
	// rate-limit the next one.
	r := NewFlightRecorder(FlightConfig{MinSpacing: 5})
	r.Record(FlightFrame{T: 0})
	if r.Dump("zero", "", 0) == nil {
		t.Fatal("dump at t=0 suppressed")
	}
	if b := r.Dump("next", "", 1); b != nil {
		t.Fatal("dump at t=1 should be inside MinSpacing of the t=0 dump")
	}
}

func TestFlightDumpEventsAndFile(t *testing.T) {
	dir := t.TempDir()
	r := NewFlightRecorder(FlightConfig{Dir: dir})
	for i := 0; i < 60; i++ {
		r.Record(FlightFrame{T: float64(i)})
	}
	// Bundles read their events from the attached mission timeline.
	tel := NewTelemetry(0)
	r.Attach(tel)
	tel.Emit(Event{Kind: KindFault, T0: 2, T1: 3})    // ends before the window at t=59
	tel.Emit(Event{Kind: KindSwitch, T0: 55, T1: 55}) // inside
	tel.Emit(Event{Kind: KindFault, T0: 28, T1: 32})  // straddles the cutoff: kept
	tel.Emit(Event{Kind: KindProbe, T0: 60, T1: 60})  // starts after the dump

	b := r.Dump("slo:test", "detail here", 59)
	if b == nil {
		t.Fatal("dump failed")
	}
	if b.Events != 2 {
		t.Fatalf("bundle has %d events, want 2 (two outside the window)", b.Events)
	}
	if b.WriteErr != "" {
		t.Fatalf("write error: %s", b.WriteErr)
	}
	if b.File == "" {
		t.Fatal("Dir set but no file written")
	}
	if base := filepath.Base(b.File); strings.ContainsAny(base, ": ") {
		t.Errorf("filename %q not sanitized", base)
	}
	data, err := os.ReadFile(b.File)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, b.Data) {
		t.Error("file content differs from in-memory bundle")
	}
	if _, err := VerifyFlightBundle(data); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var r *FlightRecorder
	r.Record(FlightFrame{T: 1})
	r.Attach(NewTelemetry(1))
	if r.Dump("x", "", 1) != nil || r.ForceDump("x", "", 1) != nil {
		t.Error("nil recorder dumped")
	}
	if r.Bundles() != nil || r.FrameCount() != 0 || r.LastTime() != 0 {
		t.Error("nil recorder leaked state")
	}
}

func TestVerifyFlightBundleRejects(t *testing.T) {
	valid := func() []byte {
		r := NewFlightRecorder(FlightConfig{})
		tel := NewTelemetry(0)
		r.Attach(tel)
		r.Record(FlightFrame{T: 1})
		r.Record(FlightFrame{T: 2})
		tel.Emit(Event{Kind: KindFault, T0: 2, T1: 2})
		return r.Dump("ok", "", 2).Data
	}()
	if _, err := VerifyFlightBundle(valid); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage header", []byte("not json\n")},
		{"wrong version", []byte(`{"version":"lgvflight0","reason":"x","t":1,"window":10,"frames":0,"events":0}` + "\n")},
		{"frame count mismatch", []byte(`{"version":"lgvflight1","reason":"x","t":1,"window":10,"frames":2,"events":0}` + "\n" +
			`{"frame":{"t":1}}` + "\n")},
		{"event count mismatch", []byte(`{"version":"lgvflight1","reason":"x","t":1,"window":10,"frames":0,"events":2}` + "\n" +
			`{"event":{"kind":"fault","t0":1,"t1":1}}` + "\n")},
		{"frame outside window", []byte(`{"version":"lgvflight1","reason":"x","t":100,"window":10,"frames":1,"events":0}` + "\n" +
			`{"frame":{"t":1}}` + "\n")},
		{"frames out of order", []byte(`{"version":"lgvflight1","reason":"x","t":10,"window":10,"frames":2,"events":0}` + "\n" +
			`{"frame":{"t":9}}` + "\n" + `{"frame":{"t":4}}` + "\n")},
		{"frame after events", []byte(`{"version":"lgvflight1","reason":"x","t":10,"window":10,"frames":2,"events":1}` + "\n" +
			`{"frame":{"t":4}}` + "\n" + `{"event":{"kind":"fault"}}` + "\n" + `{"frame":{"t":5}}` + "\n")},
		{"unknown row", []byte(`{"version":"lgvflight1","reason":"x","t":10,"window":10,"frames":0,"events":0}` + "\n" +
			`{"neither":1}` + "\n")},
	}
	for _, tc := range cases {
		if _, err := VerifyFlightBundle(tc.data); err == nil {
			t.Errorf("%s: accepted, want rejection", tc.name)
		}
	}
}

func TestFlightDumpDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewFlightRecorder(FlightConfig{})
		tel := NewTelemetry(0)
		r.Attach(tel)
		for i := 0; i < 100; i++ {
			r.Record(FlightFrame{T: float64(i) * 0.2, VDP: 0.04, EnergyJ: float64(i), Sent: i})
			if i%10 == 0 {
				tel.Emit(Event{Kind: KindTick, T0: float64(i) * 0.2, Value: float64(i)})
			}
		}
		return r.Dump("det", "", 19.8).Data
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Error("identical recordings produced different bundle bytes")
	}
}
