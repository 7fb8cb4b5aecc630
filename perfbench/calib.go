package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"
)

// Host speed. The benchmark runs on shared hosts whose CPUs change speed
// from one moment to the next: on the 2-CPU reference host one run of the
// calibration kernel below took anywhere from 1.0× to 1.9× its best time
// within the same tenth of a second, with the machine otherwise idle,
// and whole runs of the benchmark read up to 1.75× slower than others.
// So every host time the end-to-end metrics rest on is paired with the
// kernel, run right beside it on the same goroutine, and reported as
// reference-host time: the host time times calibRefMS over the kernel's
// time. The kernel is owned by the benchmark and runs no program code,
// so a change to the program moves a scaled time as it moves the raw
// one, while a slow moment of the host, which slows the kernel and the
// program alike, cancels out.
const (
	// calibRefMS is about one kernel run on the reference host (2-CPU
	// Intel Xeon VM, Go 1.24.0), so that scaled times read as its times.
	calibRefMS = 0.2
	// calibRollouts is how many trajectories one kernel run rolls out.
	calibRollouts = 16

	calibSide   = 160 // cells per side of the kernel's cost grid
	calibRadius = 5   // footprint and inflation radius, cells
)

// calibGrid is the kernel's cost grid: lethal cells scattered at random
// and inflated around, as the costmap does. It is built once and only
// read after.
var calibGrid = func() []uint8 {
	const r, n = calibRadius, calibSide
	static := make([]uint8, n*n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(static)/30; i++ {
		static[rng.Intn(len(static))] = 254
	}
	g := append([]uint8(nil), static...)
	for y := r; y < n-r; y++ {
		for x := r; x < n-r; x++ {
			if static[y*n+x] != 254 {
				continue
			}
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					c := uint8(250 - 40*max(dx, -dx, dy, -dy))
					if i := (y+dy)*n + x + dx; c > g[i] {
						g[i] = c
					}
				}
			}
		}
	}
	return g
}()

// calibSink keeps the kernel's result alive, so the compiler cannot drop
// the work.
var calibSink atomic.Int64

// calibrate runs the kernel once and returns its host time in ms. The
// kernel is shaped like the tracker's roll-outs, the program's hottest
// loop: unicycle trajectories rolled out over the grid, taking the worst
// cost under a round footprint at every step.
func calibrate() float64 {
	const r, n = calibRadius, calibSide
	t0 := time.Now()
	total := 0
	for c := 0; c < calibRollouts; c++ {
		v, w := 0.5+0.1*float64(c), -1+0.125*float64(c)
		x, y, th := n/2.0, n/2.0, 0.0
		worst := uint8(0)
		for s := 0; s < 40; s++ {
			th += 0.1 * w
			sin, cos := math.Sincos(th)
			x, y = x+v*cos, y+v*sin
			cx := min(max(int(x), r), n-1-r)
			cy := min(max(int(y), r), n-1-r)
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if dx*dx+dy*dy <= r*r {
						worst = max(worst, calibGrid[(cy+dy)*n+cx+dx])
					}
				}
			}
		}
		total += int(worst)
	}
	calibSink.Add(int64(total))
	return millis(time.Since(t0))
}

// between scales a host time measured between two kernel runs that took
// before and after ms to the reference host.
func between(hostMS, before, after float64) float64 {
	return hostMS * 2 * calibRefMS / (before + after)
}

// fmtMS lists ms values for stderr.
func fmtMS(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
