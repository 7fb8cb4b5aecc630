// Package spans is the causal tracing layer: every control tick is
// recorded as a tree of spans — compute, queue and transport intervals
// with parent links and host/node attributes — so a late command can be
// attributed to the hop that made it late, not just to an aggregate
// histogram. Times are plain float64 seconds of virtual mission time.
//
// The package imports nothing from the repo but internal/ring, and
// mirrors the obs nil-safety contract: every method on a nil *Tracer is
// a no-op, so instrumented hot paths need no guards and allocate
// nothing when tracing is off.
// (The name avoids the existing internal/trace dataset package.)
package spans

import (
	"sync"

	"lgvoffload/internal/ring"
)

// Kind classifies a span for critical-path analysis. Only Compute,
// Queue and Transport spans are segments of the VDP makespan; Aux marks
// work that is causally in the tick but off the command path
// (localization, SLAM, planning, post-decision mux wait), and Mark
// records episodes/instants (watchdog stalls, failovers, fault
// windows).
type Kind uint8

const (
	Compute Kind = iota
	Queue
	Transport
	Tick // root span of one control tick
	Aux
	Mark
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Queue:
		return "queue"
	case Transport:
		return "transport"
	case Tick:
		return "tick"
	case Aux:
		return "aux"
	case Mark:
		return "mark"
	}
	return "unknown"
}

// Span is one completed interval. Producers record spans only once both
// endpoints are known — there is no live span handle to allocate, which
// is what keeps the disabled path (and the ring append) allocation-free.
type Span struct {
	Trace  uint64  `json:"trace"`            // tick/round id; spans with equal Trace form one tree
	ID     uint64  `json:"id"`               // unique within the tracer
	Parent uint64  `json:"parent,omitempty"` // 0 = root of its trace
	Name   string  `json:"name"`
	Host   string  `json:"host,omitempty"`
	Node   string  `json:"node,omitempty"`
	Kind   Kind    `json:"kind"`
	Start  float64 `json:"t0"` // seconds
	End    float64 `json:"t1"`
}

// Duration returns the span length in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// DefaultCapacity bounds the span ring when callers pass 0: at ~10
// spans per 5 Hz tick this holds around 20 minutes of mission.
const DefaultCapacity = 1 << 16

// Tracer collects completed spans into a bounded ring and hands out
// trace/span ids. A nil Tracer is the disabled state: every method
// no-ops and returns zero. The single short-critical-section mutex
// lets the HTTP inspector read spans while a mission records them, and
// stays cheap for the single-goroutine engine.
type Tracer struct {
	mu     sync.Mutex
	ring   ring.Ring[Span] // Evicted() counts spans dropped by the bound
	lastID uint64
}

// NewTracer returns a tracer holding at most capacity spans
// (DefaultCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: ring.New[Span](capacity)}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// NewTrace allocates a fresh trace id (0 when disabled). Trace and span
// ids come from one counter, so an id never names both.
func (t *Tracer) NewTrace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.lastID++
	id := t.lastID
	t.mu.Unlock()
	return id
}

// NextID reserves a span id without recording anything, for producers
// that must hand a parent id to children before the parent span's end
// time is known (the engine does this for each control tick's root).
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.lastID++
	id := t.lastID
	t.mu.Unlock()
	return id
}

// Record appends a completed span, assigning s.ID when zero, and
// returns the span id. Spans with Trace 0 are discarded: trace id 0
// means "untraced", so producers can blindly propagate ids from
// disabled peers. On a nil tracer Record returns 0.
func (t *Tracer) Record(s Span) uint64 {
	if t == nil || s.Trace == 0 {
		return 0
	}
	t.mu.Lock()
	if s.ID == 0 {
		t.lastID++
		s.ID = t.lastID
	}
	t.ring.Push(s)
	id := s.ID
	t.mu.Unlock()
	return id
}

// Add is the one-line producer call: record a completed span with a
// fresh id under the given trace/parent. It no-ops (returning 0) on a
// nil tracer or a zero trace id, so call sites on the tick hot path
// need no branches of their own.
func (t *Tracer) Add(trace, parent uint64, name, host, node string, k Kind, t0, t1 float64) uint64 {
	if t == nil || trace == 0 {
		return 0
	}
	return t.Record(Span{
		Trace: trace, Parent: parent, Name: name, Host: host, Node: node,
		Kind: k, Start: t0, End: t1,
	})
}

// Spans returns a copy of the buffered spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.AppendTo(make([]Span, 0, t.ring.Len()))
}

// Len returns the number of spans currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// Total returns the number of spans ever recorded.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Pushed()
}

// Dropped returns how many old spans the ring bound evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Evicted()
}
