package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantilesExact checks the interpolation against a known
// distribution: the integers 1..30 with bounds {10, 20, 30} put exactly
// 10 samples in each bucket, so the documented estimator (rank = q·n,
// linear within the bucket) has closed-form values.
func TestHistogramQuantilesExact(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for v := 1; v <= 30; v++ {
		h.Observe(float64(v))
	}
	cases := []struct{ q, want float64 }{
		{0.50, 15},   // rank 15 → bucket (10,20]: 10 + 10·(15-10)/10
		{0.95, 28.5}, // rank 28.5 → bucket (20,30]: 20 + 10·(28.5-20)/10
		{0.99, 29.7}, // rank 29.7 → 20 + 10·(29.7-20)/10
		{1.00, 30},   // rank 30 → upper edge of the last bucket
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Count() != 30 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 465 {
		t.Errorf("sum = %v", h.Sum())
	}
	if math.Abs(h.Mean()-15.5) > 1e-12 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramSingleBucketInterpolation(t *testing.T) {
	// All 4 samples land in (0, 10]: rank q·4 interpolates from 0.
	h := NewHistogram([]float64{10, 20})
	for i := 0; i < 4; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); math.Abs(got-5) > 1e-9 { // rank 2 → 10·2/4
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := h.Quantile(1.0); math.Abs(got-10) > 1e-9 {
		t.Errorf("p100 = %v, want 10", got)
	}
}

func TestHistogramOverflowReportsMax(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	h.Observe(42)
	h.Observe(99)
	if got := h.Quantile(0.99); got != 99 {
		t.Errorf("overflow quantile = %v, want observed max 99", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	if len(h.Bounds()) != len(DefaultSecondsBuckets) {
		t.Error("nil bounds must fall back to defaults")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(DefaultSecondsBuckets)
	vals := []float64{0.0004, 0.002, 0.004, 0.02, 0.03, 0.07, 0.2, 0.4, 0.9, 3, 20}
	for _, v := range vals {
		h.Observe(v)
	}
	prev := -1.0
	for q := 0.05; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev-1e-12 {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
}

// TestRegistryConcurrent hammers every metric type from many goroutines
// while snapshots run; `go test -race` verifies the locking.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			label := string(rune('a' + id%3))
			for i := 0; i < iters; i++ {
				r.Add("ctr", label, 1)
				r.Set("g", label, float64(i))
				r.Observe("h", label, float64(i%20)/1000)
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	var total float64
	for _, p := range r.Snapshot() {
		if p.Name == "ctr" {
			total += p.Value
		}
	}
	if total != workers*iters {
		t.Errorf("counter total = %v, want %d", total, workers*iters)
	}
}

// TestSnapshotHistogramRowsDoNotTear takes snapshots while another
// goroutine observes unit samples: each histogram row must describe one
// set of samples, so its sum equals its count and its mean is 1. A row
// whose fields are read under separate locks can mix samples, as the
// /metrics scrapes of a running mission do.
func TestSnapshotHistogramRowsDoNotTear(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "")
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(1)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	deadline := time.Now().Add(500 * time.Millisecond)
	for row := 0; row < 200000 && time.Now().Before(deadline); row++ {
		p := r.Snapshot()[0]
		if p.Sum != float64(p.Count) || (p.Count > 0 && p.Value != 1) {
			t.Fatalf("row %d tore: count %d, sum %v, mean %v", row, p.Count, p.Sum, p.Value)
		}
	}
}

func TestTelemetryConcurrentEmit(t *testing.T) {
	tel := NewTelemetry(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tel.NodeExec("n", "lgv", float64(i), 0.01, 1)
				tel.Probe(float64(i), 0.002)
			}
		}()
	}
	wg.Wait()
	if got := tel.Timeline.Total(); got != 4*200*2 {
		t.Errorf("total events = %d", got)
	}
	if tel.Timeline.Len() != 64 {
		t.Errorf("ring len = %d, want cap 64", tel.Timeline.Len())
	}
}

func TestRegistrySnapshotSortedAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Add("b", "", 2)
	r.Add("a", "y", 1)
	r.Add("a", "x", 1)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a" || snap[0].Label != "x" || snap[2].Name != "b" {
		t.Errorf("snapshot order = %+v", snap)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"a{x}"`) {
		t.Errorf("expvar-style key missing: %s", sb.String())
	}
}

// TestRegistrySnapshotTotalOrder is the regression test for the
// comparator's kind tie-break: when the same name+label exists as two
// metric kinds, a name+label-only sort left their relative order to
// sort.Slice's unstable whims, so repeated snapshots (and every export
// built on them — JSONL, /metrics.prom) could flip nondeterministically.
func TestRegistrySnapshotTotalOrder(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Same name+label across all three kinds, plus label fan-out.
		r.Add("dup", "same", 1)
		r.Set("dup", "same", 2)
		r.Observe("dup", "same", 3)
		r.Add("dup", "other", 1)
		r.Set("alpha", "", 7)
		return r
	}
	want := build().Snapshot()
	if len(want) != 5 {
		t.Fatalf("snapshot has %d points, want 5: %+v", len(want), want)
	}
	// counter < gauge < histogram lexicographically on the kind key.
	kinds := []string{want[1].Kind, want[2].Kind, want[3].Kind}
	if kinds[0] != "counter" || kinds[1] != "counter" || kinds[2] != "gauge" {
		t.Errorf("dup ordering by kind = %v", kinds)
	}
	for i := 0; i < 50; i++ {
		got := build().Snapshot()
		for j := range want {
			if got[j].Name != want[j].Name || got[j].Kind != want[j].Kind || got[j].Label != want[j].Label {
				t.Fatalf("iteration %d: snapshot order diverged at %d: %+v vs %+v",
					i, j, got[j], want[j])
			}
		}
	}
}
