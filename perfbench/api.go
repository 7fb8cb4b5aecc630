package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// inspectorServer serves the operator API of a mission workload on a
// loopback port, as `lgvsim -http` does. The handler can be swapped while
// it serves: each mission brings its own telemetry and SLO engine, so the
// inspector is rebuilt for each.
type inspectorServer struct {
	cur    atomic.Pointer[handlerBox]
	srv    *http.Server
	served chan error
	base   string
}

type handlerBox struct{ http.Handler }

func startInspector(h http.Handler) (*inspectorServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inspectorServer{served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.set(h)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cur.Load().ServeHTTP(w, r)
	})}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *inspectorServer) set(h http.Handler) { s.cur.Store(&handlerBox{h}) }

// stop closes the server and waits for its goroutine to return.
func (s *inspectorServer) stop() {
	s.srv.Close()
	<-s.served
}

func get(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// reader is the open-loop operator: one GET every interval, timed from
// when it was due, so a stall also counts against the reads queued
// behind it. Each read is scaled to the reference host by a kernel run
// on either side of it (calib.go), the first not counted in the read.
// path picks the k-th read's path; current is the ID of the mission the
// workload last announced ("" before the first).
type reader struct {
	c        *http.Client
	base     string
	interval time.Duration
	path     func(k int, current string) string
	current  atomic.Value // string
	stop     chan struct{}
	done     chan struct{}

	mu                sync.Mutex
	lat, late         []float64 // reference-host ms from the due time to completion / to start
	attempted, failed int
}

func startReader(c *http.Client, base string, interval time.Duration, path func(k int, current string) string) *reader {
	r := &reader{c: c, base: base, interval: interval, path: path, stop: make(chan struct{}), done: make(chan struct{})}
	r.current.Store("")
	go r.loop()
	return r
}

func (r *reader) loop() {
	defer close(r.done)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * r.interval)
		select {
		case <-r.stop:
			return
		case <-time.After(time.Until(due)):
		}
		before := calibrate()
		begin := time.Now()
		err := get(r.c, r.base+r.path(k, r.current.Load().(string)))
		end := time.Now()
		after := calibrate()
		lat := between(millis(end.Sub(due))-before, before, after)
		r.mu.Lock()
		r.late = append(r.late, between(millis(begin.Sub(due))-before, before, after))
		r.lat = append(r.lat, lat)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: FAIL: read:", err)
		}
		r.mu.Unlock()
	}
}

// halt stops the reader, waits for its last read to finish and adds its
// reads to t.
func (r *reader) halt(t *tally) {
	close(r.stop)
	<-r.done
	t.attempted += r.attempted
	t.failed += r.failed
}

// navPath is nav-observed's operator, reading the inspector `lgvsim -http
// -store` serves: the running mission's Prometheus metrics and timeline,
// the store listing and the last finished mission's tick series. It skips
// /fleet: the run's store grows with every mission, so a fleet read would
// slow down as the missions speed up.
func navPath(k int, current string) string {
	switch {
	case k%4 == 1:
		return "/missions?limit=50"
	case k%4 == 2:
		return "/timeline?limit=50"
	case k%4 == 3 && current != "":
		return "/missions/" + current
	}
	return "/metrics.prom"
}

// explorePath is explore's operator. With every sink off there is
// nothing to inspect, so it probes liveness: the read measures how
// promptly the process answers while the mission keeps the CPUs busy.
func explorePath(k int, _ string) string {
	if k%2 == 0 {
		return "/health"
	}
	return "/metrics"
}

// servePath is serve-batch's operator. Every fourth read lists the store
// and every fourth reads a stored mission; one in twenty aggregates the
// fleet (a full scan of the tick records); the rest poll the newest
// mission's status.
func servePath(k int, current string) string {
	switch {
	case k%20 == 19:
		return "/fleet"
	case k%4 == 1:
		return "/missions?limit=50"
	case k%4 == 3:
		return fmt.Sprintf("/missions/m%d", 1+(k/4)%prefillMissions)
	case current != "":
		return "/missions/" + current
	}
	return "/healthz"
}
