package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"lgvoffload/internal/ring"
)

// Flight recorder: an always-on black box for missions. It continuously
// captures a bounded ring of per-tick FlightFrames (VDP, energy, link
// state, Alg. 2 placement, cumulative safety/net counters, critical-path
// split) and, on a trigger — watchdog stop, failover, SLO breach,
// invariant failure, panic — freezes the last flightWindow seconds into
// a versioned JSONL bundle, alongside the existing post-mortem. A bundle
// reads its events from the mission timeline it is attached to, so it
// carries every event of its window that the timeline still holds.
// Recording is allocation-free and reads only values the tick already
// computed, so an instrumented mission stays bit-identical to a bare one.

// FlightVersion is the bundle format version tag.
const FlightVersion = "lgvflight1"

const (
	flightFrames         = 4096 // frame ring capacity
	flightWindow         = 30.0 // virtual seconds per bundle
	defaultFlightDumps   = 16   // bundles kept per mission
	defaultFlightSpacing = 5.0  // min virtual seconds between dumps
)

// FlightFrame is the engine's one per-tick view: the flight ring records
// it, the SLO engine judges it, and the mission store's tick and the
// trace point are projected from it. Counter fields are cumulative
// mission totals (the reader differentiates); the critical-path split
// (Compute/Queue/Transport) is this tick's decomposition.
type FlightFrame struct {
	T         float64 `json:"t"`
	VDP       float64 `json:"vdp"`
	EnergyJ   float64 `json:"energy_j"`
	Bandwidth float64 `json:"bw"`
	Direction float64 `json:"dir"`
	Signal    float64 `json:"signal"`
	MaxVel    float64 `json:"vmax"`
	RealVel   float64 `json:"vel"`
	RemoteOn  int     `json:"remote_on"` // nodes currently placed remote
	Staleness float64 `json:"staleness"` // s since the last fresh command

	Sent     int `json:"sent"`     // cumulative packets offered
	Dropped  int `json:"dropped"`  // cumulative packets lost
	Misses   int `json:"misses"`   // consecutive missed remote ticks
	Stops    int `json:"stops"`    // cumulative watchdog stops
	Failover int `json:"failover"` // cumulative failovers
	Handoffs int `json:"handoffs"` // cumulative WAP handoffs
	Switches int `json:"switches"` // cumulative placement switches

	Compute   float64 `json:"compute"`   // s, this tick
	Queue     float64 `json:"queue"`     // s, this tick
	Transport float64 `json:"transport"` // s, this tick
}

// FlightConfig configures a recorder. Zero values take the defaults above.
type FlightConfig struct {
	Dir        string  // when set, bundles are also written here
	MaxDumps   int     // bundles kept per mission
	MinSpacing float64 // min virtual seconds between rate-limited dumps
}

// FlightBundle is one frozen dump. Data is the full JSONL encoding
// (header line, frame lines, event lines) — deterministic for a
// deterministic mission, which the simtest flight-bundle invariant
// checks byte-for-byte.
type FlightBundle struct {
	Reason   string  `json:"reason"`
	Detail   string  `json:"detail,omitempty"`
	T        float64 `json:"t"`
	Frames   int     `json:"frames"`
	Events   int     `json:"events"`
	File     string  `json:"file,omitempty"`
	WriteErr string  `json:"write_err,omitempty"`
	Data     []byte  `json:"-"`
}

// flightHeader is the first JSONL line of a bundle.
type flightHeader struct {
	Version string  `json:"version"`
	Reason  string  `json:"reason"`
	Detail  string  `json:"detail,omitempty"`
	T       float64 `json:"t"`
	Window  float64 `json:"window"`
	Frames  int     `json:"frames"`
	Events  int     `json:"events"`
}

// FlightRecorder is the ring + dump machinery. A nil *FlightRecorder is
// a valid no-op, like the rest of the obs plane.
type FlightRecorder struct {
	mu     sync.Mutex
	cfg    FlightConfig
	frames ring.Ring[FlightFrame]
	events *Timeline // mission timeline bundles read events from; nil = none

	dumps    []*FlightBundle
	lastDump float64
	dumped   bool // any dump yet (lastDump==0 is a valid virtual time)
}

// NewFlightRecorder preallocates a recorder; no allocation happens on
// the record path afterwards.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.MaxDumps <= 0 {
		cfg.MaxDumps = defaultFlightDumps
	}
	if cfg.MinSpacing <= 0 {
		cfg.MinSpacing = defaultFlightSpacing
	}
	return &FlightRecorder{cfg: cfg, frames: ring.New[FlightFrame](flightFrames)}
}

// Attach points the recorder at the mission telemetry whose timeline
// its bundles copy their events from; a nil t detaches it. Nil-safe.
func (r *FlightRecorder) Attach(t *Telemetry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = nil
	if t != nil {
		r.events = t.Timeline
	}
	r.mu.Unlock()
}

// Record stores one per-tick frame. Never allocates.
func (r *FlightRecorder) Record(f FlightFrame) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.frames.Push(f)
	r.mu.Unlock()
}

// Dump freezes the last flightWindow seconds into a bundle, rate-limited:
// at most MaxDumps per mission, at least MinSpacing virtual seconds
// apart. Returns nil when suppressed. now is virtual mission time —
// wall clock never enters a bundle, so dumps replay bit-identically.
func (r *FlightRecorder) Dump(reason, detail string, now float64) *FlightBundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.dumps) >= r.cfg.MaxDumps {
		return nil
	}
	if r.dumped && now-r.lastDump < r.cfg.MinSpacing {
		return nil
	}
	return r.dumpLocked(reason, detail, now)
}

// ForceDump bypasses rate limiting (panic handlers, advhunt's final
// worst-case capture). Only the MaxDumps memory bound still applies,
// with one slot always reserved for a forced dump.
func (r *FlightRecorder) ForceDump(reason, detail string, now float64) *FlightBundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.dumps) >= r.cfg.MaxDumps+1 {
		return nil
	}
	return r.dumpLocked(reason, detail, now)
}

func (r *FlightRecorder) dumpLocked(reason, detail string, now float64) *FlightBundle {
	cutoff := now - flightWindow

	var frames []FlightFrame
	for i := 0; i < r.frames.Len(); i++ {
		if f := r.frames.At(i); f.T >= cutoff && f.T <= now {
			frames = append(frames, *f)
		}
	}
	var events []Event
	if r.events != nil {
		events = r.events.Window(cutoff, now)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	hdr := flightHeader{Version: FlightVersion, Reason: reason, Detail: detail,
		T: now, Window: flightWindow, Frames: len(frames), Events: len(events)}
	enc.Encode(hdr)
	for i := range frames {
		enc.Encode(struct {
			Frame *FlightFrame `json:"frame"`
		}{&frames[i]})
	}
	for i := range events {
		enc.Encode(struct {
			Event *Event `json:"event"`
		}{&events[i]})
	}

	b := &FlightBundle{Reason: reason, Detail: detail, T: now,
		Frames: len(frames), Events: len(events), Data: buf.Bytes()}
	if r.cfg.Dir != "" {
		name := fmt.Sprintf("flight-%03d-%010.3fs-%s.jsonl",
			len(r.dumps), now, flightSanitize(reason))
		path := filepath.Join(r.cfg.Dir, name)
		if err := os.WriteFile(path, b.Data, 0o644); err != nil {
			b.WriteErr = err.Error()
		} else {
			b.File = path
		}
	}
	r.dumps = append(r.dumps, b)
	r.lastDump = now
	r.dumped = true
	return b
}

// Bundles returns the dumps taken so far, in order.
func (r *FlightRecorder) Bundles() []*FlightBundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*FlightBundle, len(r.dumps))
	copy(out, r.dumps)
	return out
}

// LastTime reports the virtual time of the newest recorded frame, or 0
// when the ring is empty — the natural "now" for a post-mission
// ForceDump by callers that no longer hold the world clock.
func (r *FlightRecorder) LastTime() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frames.Len() == 0 {
		return 0
	}
	return r.frames.At(r.frames.Len() - 1).T
}

// FrameCount reports how many frames the ring currently holds.
func (r *FlightRecorder) FrameCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames.Len()
}

// flightSanitize maps a dump reason into a filename-safe token.
func flightSanitize(s string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		default:
			return '_'
		}
	}, s)
}

// VerifyFlightBundle structurally validates a bundle: version tag,
// header/body counts agree, frame times are nondecreasing and inside
// the declared window, and no frame line follows an event line. Shared
// by the unit tests and `lgvsim -verify` so CI smoke and tests agree on
// what a well-formed bundle is.
func VerifyFlightBundle(data []byte) (FlightBundle, error) {
	var info FlightBundle
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		return info, fmt.Errorf("empty bundle")
	}
	var hdr flightHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return info, fmt.Errorf("header: %v", err)
	}
	if hdr.Version != FlightVersion {
		return info, fmt.Errorf("version %q, want %q", hdr.Version, FlightVersion)
	}
	info = FlightBundle{Reason: hdr.Reason, Detail: hdr.Detail, T: hdr.T}

	frames, events := 0, 0
	lastT := hdr.T - hdr.Window
	const slack = 1e-9
	inEvents := false
	line := 1
	for sc.Scan() {
		line++
		var row struct {
			Frame *FlightFrame `json:"frame"`
			Event *Event       `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return info, fmt.Errorf("line %d: %v", line, err)
		}
		switch {
		case row.Frame != nil:
			if inEvents {
				return info, fmt.Errorf("line %d: frame after events", line)
			}
			if row.Frame.T < lastT-slack {
				return info, fmt.Errorf("line %d: frame time %g before %g", line, row.Frame.T, lastT)
			}
			if row.Frame.T < hdr.T-hdr.Window-slack || row.Frame.T > hdr.T+slack {
				return info, fmt.Errorf("line %d: frame time %g outside window [%g,%g]",
					line, row.Frame.T, hdr.T-hdr.Window, hdr.T)
			}
			lastT = row.Frame.T
			frames++
		case row.Event != nil:
			inEvents = true
			events++
		default:
			return info, fmt.Errorf("line %d: neither frame nor event", line)
		}
	}
	if err := sc.Err(); err != nil {
		return info, err
	}
	if frames != hdr.Frames {
		return info, fmt.Errorf("header declares %d frames, body has %d", hdr.Frames, frames)
	}
	if events != hdr.Events {
		return info, fmt.Errorf("header declares %d events, body has %d", hdr.Events, events)
	}
	info.Frames, info.Events = frames, events
	return info, nil
}
