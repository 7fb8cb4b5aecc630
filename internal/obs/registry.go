package obs

import (
	"math"
	"sort"
	"sync"
)

// DefaultSecondsBuckets are the registry's histogram bounds:
// exponential-ish coverage from 1 ms to 10 s, matching the latency range
// of everything the mission engine profiles (node processing times,
// probe RTTs, link latencies).
var DefaultSecondsBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically-increasing metric. Safe for concurrent use.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta float64) {
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-value metric. Safe for concurrent use.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores the latest value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the latest value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket histogram with quantile estimation. Bucket
// i counts samples in (bounds[i-1], bounds[i]] (bucket 0 starts at 0);
// samples above the last bound land in an overflow bucket. Safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is overflow
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (nil means DefaultSecondsBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultSecondsBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the target rank, assuming samples are
// uniformly distributed inside each bucket: with n samples the target
// rank is q·n, and the estimate is lo + (hi-lo)·(rank-cumBefore)/inBucket
// where (lo, hi] is the bucket span (lo = 0 for the first bucket). The
// overflow bucket reports the maximum observed sample. Returns 0 when no
// samples exist.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(q)
}

// quantile is Quantile with h.mu held.
func (h *Histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				return h.max // overflow bucket
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return h.max
}

// point reads the histogram's snapshot row under one lock, so its count,
// sum, mean and quantiles describe the same samples even while another
// goroutine observes.
func (h *Histogram) point(name, label string) MetricPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := MetricPoint{Name: name, Label: label, Kind: "histogram",
		Count: h.n, Sum: h.sum,
		P50: h.quantile(0.50), P95: h.quantile(0.95), P99: h.quantile(0.99)}
	if h.n > 0 {
		p.Value = h.sum / float64(h.n)
	}
	return p
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// MetricPoint is one metric's exported state (a row of a snapshot).
type MetricPoint struct {
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Kind  string  `json:"kind"` // "counter" | "gauge" | "histogram"
	Value float64 `json:"value"`
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Registry is a thread-safe metric registry keyed by name + label. The
// label is a single dimension value (node name, host, topic); metrics
// that need none pass "".
type Registry struct {
	mu       sync.Mutex
	counters map[string]map[string]*Counter
	gauges   map[string]map[string]*Gauge
	hists    map[string]map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]map[string]*Counter),
		gauges:   make(map[string]map[string]*Gauge),
		hists:    make(map[string]map[string]*Histogram),
	}
}

// Counter returns the counter for name+label, creating it on first use.
func (r *Registry) Counter(name, label string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	byLabel, ok := r.counters[name]
	if !ok {
		byLabel = make(map[string]*Counter)
		r.counters[name] = byLabel
	}
	c, ok := byLabel[label]
	if !ok {
		c = &Counter{}
		byLabel[label] = c
	}
	return c
}

// Gauge returns the gauge for name+label, creating it on first use.
func (r *Registry) Gauge(name, label string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	byLabel, ok := r.gauges[name]
	if !ok {
		byLabel = make(map[string]*Gauge)
		r.gauges[name] = byLabel
	}
	g, ok := byLabel[label]
	if !ok {
		g = &Gauge{}
		byLabel[label] = g
	}
	return g
}

// Histogram returns the histogram for name+label, creating it on first
// use with DefaultSecondsBuckets.
func (r *Registry) Histogram(name, label string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	byLabel, ok := r.hists[name]
	if !ok {
		byLabel = make(map[string]*Histogram)
		r.hists[name] = byLabel
	}
	h, ok := byLabel[label]
	if !ok {
		h = NewHistogram(nil)
		byLabel[label] = h
	}
	return h
}

// Add increments the counter name+label by delta.
func (r *Registry) Add(name, label string, delta float64) {
	r.Counter(name, label).Add(delta)
}

// Set stores v in the gauge name+label.
func (r *Registry) Set(name, label string, v float64) {
	r.Gauge(name, label).Set(v)
}

// Observe records v in the histogram name+label.
func (r *Registry) Observe(name, label string, v float64) {
	r.Histogram(name, label).Observe(v)
}

// Snapshot returns every metric's current state, sorted by name, kind,
// then label, for export or assertions. The kind tie-break matters
// twice: it makes the order a total one even when a name+label exists
// as two kinds (sort.Slice is not stable, so a two-key comparator left
// such pairs in map-iteration order and leaked nondeterminism into
// every export), and it keeps each Prometheus metric family contiguous.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.Lock()
	type entry struct {
		name, label string
		c           *Counter
		g           *Gauge
		h           *Histogram
	}
	var entries []entry
	for name, byLabel := range r.counters {
		for label, c := range byLabel {
			entries = append(entries, entry{name: name, label: label, c: c})
		}
	}
	for name, byLabel := range r.gauges {
		for label, g := range byLabel {
			entries = append(entries, entry{name: name, label: label, g: g})
		}
	}
	for name, byLabel := range r.hists {
		for label, h := range byLabel {
			entries = append(entries, entry{name: name, label: label, h: h})
		}
	}
	r.mu.Unlock()

	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		switch {
		case e.c != nil:
			out = append(out, MetricPoint{Name: e.name, Label: e.label, Kind: "counter", Value: e.c.Value()})
		case e.g != nil:
			out = append(out, MetricPoint{Name: e.name, Label: e.label, Kind: "gauge", Value: e.g.Value()})
		default:
			out = append(out, e.h.point(e.name, e.label))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// round3 trims export noise from float metrics (post-mortem display).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
