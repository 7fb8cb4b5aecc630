package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (rank ceil(q·n)) of xs,
// which it sorts in place. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile that has at least ten samples
// beyond it, and which percentile that is. It is capped at p95, so that a
// tail over hundreds of samples does not rest on a handful of stalls, and
// never falls below the median, which is what fewer than twenty samples
// report.
func tail(xs []float64) (value, q float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0.5
	}
	rank := min(max(n-10, (n+1)/2), int(math.Ceil(0.95*float64(n)))) // nearest rank, 1-based
	sort.Float64s(xs)
	return xs[rank-1], float64(rank) / float64(n)
}

// iqr returns the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	return quantile(xs, 0.75) - quantile(xs, 0.25)
}

// allocatedBytes is the process's cumulative heap allocation, read
// without stopping the world.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB runs a full collection and returns the heap it found live,
// in MiB. Between collections the live heap the runtime reports is what
// the last one found, which depends on when the collector happened to run:
// sampled every 2 ms, its median took one of two values 6 MiB apart on
// nav-observed from run to run of the same code, as a finished mission's
// telemetry ring was or was not still reachable at the collections.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// minOf returns the smallest of xs, 0 for none.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// maxOf returns the largest of xs, 0 for none.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
