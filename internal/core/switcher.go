package core

import (
	"net"
	"sync"
	"time"

	"lgvoffload/internal/msg"
	"lgvoffload/internal/mw"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/spans"
)

// This file implements the §VII data plane with real sockets: the
// Switcher thread that "maintains data communication between worker
// nodes deployed in the local LGV and the remote server", attaching
// temporal information to each message, and the WORKER module that runs
// an offloaded node remotely and returns its result together with the
// subscribed processing time so the local profiler can compute the VDP
// makespan (cloud proc time + RTT). The simulated mission engine uses
// the virtual-time equivalent; this pair exists so the end-to-end design
// also runs over a genuine UDP transport, as in the paper's evpp-based
// prototype.

// WorkerFunc is the offloaded computation: it consumes a laser scan and
// produces a velocity command (the remote half of the VDP).
type WorkerFunc func(scan *msg.Scan) (*msg.Twist, error)

// Liveness timing for the real-socket pair. The worker beats about ten
// times per control period so the switcher detects a kill within a few
// beats; sends carry a short deadline so a wedged socket cannot stall
// the serving loop.
const (
	workerBeatPeriod = 100 * time.Millisecond
	sendDeadline     = 50 * time.Millisecond
	helloBackoffMin  = 50 * time.Millisecond
	helloBackoffMax  = 2 * time.Second
)

// Worker is the remote WORKER module: it serves scan messages over UDP,
// invokes the offloaded node, and replies with the command followed by a
// Profile record carrying the measured processing time.
type Worker struct {
	Host mw.HostID

	ep    *mw.UDPEndpoint
	fn    WorkerFunc
	stop  chan struct{}
	done  chan struct{}
	epoch time.Time

	mu       sync.Mutex
	tracer   *spans.Tracer // written by SetTracer after the loop started
	served   int
	peerAddr *net.UDPAddr
}

// NewWorker starts a worker listening on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewWorker(addr string, host mw.HostID, fn WorkerFunc) (*Worker, error) {
	ep, err := mw.ListenUDP(addr, 8)
	if err != nil {
		return nil, err
	}
	w := &Worker{Host: host, ep: ep, fn: fn, epoch: time.Now(),
		stop: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w, nil
}

// Addr returns the worker's UDP address.
func (w *Worker) Addr() *net.UDPAddr { return w.ep.Addr() }

// SetTracer attaches a span tracer; the worker then records its own view
// of each offloaded execution on the scan's trace. The span is Aux, not
// Compute: worker and switcher clocks share no epoch, so the remote
// observation annotates the trace but stays off the validated critical
// path (the switcher derives the Compute segment from the echoed
// ProcTime in its own clock). It is also recorded parentless — the
// reply that would close the parent "offload" root can be lost in
// flight, and the span set must stay structurally valid under loss.
func (w *Worker) SetTracer(tr *spans.Tracer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tracer = tr
}

// Served returns how many scans the worker has processed.
func (w *Worker) Served() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.served
}

// Close shuts the worker down.
func (w *Worker) Close() error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	err := w.ep.Close()
	<-w.done
	return err
}

func (w *Worker) loop() {
	defer close(w.done)
	lastBeat := time.Now()
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		// Block until traffic or the next beat is due — an idle worker
		// parks on the endpoint's notify channel instead of spinning.
		m, from, ok := w.ep.PollWaitFrom(workerBeatPeriod)
		if ok {
			switch mm := m.(type) {
			case *msg.Scan:
				// Replies go to the registered peer: a scan alone does not
				// name a robot (the paper's switcher holds a connection).
				w.handleScan(mm)
			case *msg.Heartbeat:
				// A hello probe is the control plane: adopt its sender —
				// this is how a restarted switcher, or a switcher probing
				// a restarted worker, re-binds without manual wiring —
				// and echo immediately so the probe round-trips.
				w.Register(from)
				w.sendBeat()
				lastBeat = time.Now()
			}
		}
		if time.Since(lastBeat) >= workerBeatPeriod {
			w.sendBeat()
			lastBeat = time.Now()
		}
	}
}

// sendBeat emits one liveness beacon to the registered peer, if any.
func (w *Worker) sendBeat() {
	w.mu.Lock()
	peer := w.peerAddr
	served := w.served
	w.mu.Unlock()
	if peer == nil {
		return
	}
	hb := &msg.Heartbeat{From: string(w.Host), Served: int64(served)}
	_ = w.ep.SendToDeadline(peer, hb, sendDeadline)
}

func (w *Worker) handleScan(scan *msg.Scan) {
	start := time.Now()
	cmd, err := w.fn(scan)
	proc := time.Since(start).Seconds()
	if err != nil || cmd == nil {
		return
	}
	w.mu.Lock()
	tracer := w.tracer
	peer := w.peerAddr
	w.served++
	w.mu.Unlock()
	t0 := start.Sub(w.epoch).Seconds()
	tracer.Add(scan.TraceID, 0, "worker_exec", string(w.Host),
		NodeTracking, spans.Aux, t0, t0+proc)
	if peer == nil {
		return
	}
	cmd.Seq = scan.Seq
	cmd.Stamp = scan.Stamp
	cmd.SentAt = scan.SentAt   // echoed so the robot can compute RTT
	cmd.TraceID = scan.TraceID // trace context rides back with the result
	cmd.ParentSpan = scan.ParentSpan
	_ = w.ep.SendToDeadline(peer, cmd, sendDeadline)
	prof := &msg.Profile{
		Header: msg.Header{Seq: scan.Seq, Stamp: scan.Stamp, SentAt: scan.SentAt,
			TraceID: scan.TraceID, ParentSpan: scan.ParentSpan},
		Node:     NodeTracking,
		Host:     string(w.Host),
		ProcTime: proc,
	}
	_ = w.ep.SendToDeadline(peer, prof, sendDeadline)
}

// Register tells the worker where to send replies.
func (w *Worker) Register(robot *net.UDPAddr) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peerAddr = robot
}

// Switcher is the LGV-side switcher thread: it uplinks scans with
// temporal information attached and collects the returning commands and
// profiles, feeding the Profiler exactly as §VII describes.
type Switcher struct {
	ep     *mw.UDPEndpoint
	peer   *net.UDPAddr
	prof   *Profiler
	sink   *obs.Telemetry // nil when telemetry is off
	tracer *spans.Tracer  // nil when tracing is off

	// HealthTimeout is how long the worker may stay silent before the
	// switcher declares it dead and degrades to local execution.
	// Defaults to five worker beat periods; set before first use.
	HealthTimeout time.Duration

	epoch time.Time
	seq   uint64

	mu         sync.Mutex
	lastCmd    *msg.Twist
	received   int
	lastHeard  time.Time     // wall time of the last frame from the worker
	degraded   bool          // worker currently considered dead
	downSince  time.Time     // when the current outage was declared
	reconnects int           // outages recovered from
	backoff    time.Duration // current hello-probe backoff
	nextHello  time.Time     // next hello probe not before this time
}

// NewSwitcher opens the robot-side endpoint and binds it to the worker.
func NewSwitcher(worker *net.UDPAddr, prof *Profiler) (*Switcher, error) {
	ep, err := mw.ListenUDP("127.0.0.1:0", 8)
	if err != nil {
		return nil, err
	}
	return &Switcher{ep: ep, peer: worker, prof: prof,
		HealthTimeout: 5 * workerBeatPeriod,
		epoch:         time.Now(), lastHeard: time.Now(),
		backoff: helloBackoffMin}, nil
}

// Addr returns the robot-side address (give it to Worker.Register).
func (s *Switcher) Addr() *net.UDPAddr { return s.ep.Addr() }

// SetSink attaches a telemetry sink so real-socket runs feed the same
// live registry the simulated engine uses (pass nil to detach). The
// switcher — not the profiler — is instrumented, so a mission engine
// sharing a Profiler never double-counts.
func (s *Switcher) SetSink(sk *obs.Telemetry) { s.sink = sk }

// SetTracer attaches a span tracer. Each uplinked scan is then stamped
// with a fresh trace context that the worker echoes back, and every
// returning Profile closes an "offload" root span decomposed into
// transport (RTT) and compute (the worker's subscribed ProcTime mapped
// into the switcher's clock).
func (s *Switcher) SetTracer(tr *spans.Tracer) { s.tracer = tr }

// now returns seconds since the switcher started — the wall-clock analog
// of the engine's virtual time.
func (s *Switcher) now() float64 { return time.Since(s.epoch).Seconds() }

// SendScan uplinks one scan, stamping the temporal header. The send
// carries a deadline so a wedged socket errors instead of blocking the
// control loop.
func (s *Switcher) SendScan(scan *msg.Scan) error {
	s.seq++
	scan.Seq = s.seq
	scan.SentAt = s.now()
	if s.tracer.Enabled() {
		scan.TraceID = s.tracer.NewTrace()
		scan.ParentSpan = s.tracer.NextID()
	}
	return s.ep.SendToDeadline(s.peer, scan, sendDeadline)
}

// markAlive records evidence of a live worker, closing any declared
// outage and counting the reconnection.
func (s *Switcher) markAlive() {
	now := time.Now()
	s.mu.Lock()
	s.lastHeard = now
	wasDown := s.degraded
	var outage time.Duration
	if wasDown {
		s.degraded = false
		outage = now.Sub(s.downSince)
		s.reconnects++
		s.backoff = helloBackoffMin
	}
	s.mu.Unlock()
	if wasDown {
		if s.sink != nil {
			s.sink.Count(obs.MReconnects, "worker", 1)
			s.sink.Emit(obs.Event{Kind: obs.KindReconnect, T0: s.now(), T1: s.now(),
				Value: outage.Seconds(), Detail: s.peer.String()})
		}
		s.tracer.Add(s.tracer.NewTrace(), 0, "worker_outage", "lgv",
			"switcher", spans.Mark, s.now()-outage.Seconds(), s.now())
	}
}

// Pump drains received messages: commands update the latest command and
// the bandwidth meter; profiles record the remote processing time and the
// measured round trip. Returns how many messages were consumed.
func (s *Switcher) Pump() int {
	n := 0
	for {
		m, ok := s.ep.Poll()
		if !ok {
			return n
		}
		n++
		now := s.now()
		s.markAlive()
		switch mm := m.(type) {
		case *msg.Twist:
			s.mu.Lock()
			s.lastCmd = mm
			s.received++
			s.mu.Unlock()
			s.prof.RecordPacket(now, now-mm.SentAt)
			s.sink.Count(obs.MTransfers, "cmd_vel", 1)
			s.sink.Emit(obs.Event{Kind: obs.KindTransfer,
				T0: mm.SentAt, T1: now, Node: "cmd_vel", Value: now - mm.SentAt})
		case *msg.Profile:
			s.prof.RecordProc(mm.Node, mm.ProcTime)
			// Clock jitter between stamping and receipt can push the
			// subtraction below zero; a negative RTT would poison the
			// profiler's EWMA (and Algorithm 1's cloud VDP estimate).
			rtt := (now - mm.SentAt) - mm.ProcTime
			if rtt < 0 {
				rtt = 0
			}
			s.prof.RecordRTT(rtt)
			if mm.TraceID != 0 && s.tracer.Enabled() {
				// Close the offload root this scan opened in SendScan: the
				// round trip [SentAt, now] decomposes into transport (the
				// RTT remainder) and compute (the subscribed ProcTime laid
				// back from receipt, clamped against clock jitter).
				cStart := now - mm.ProcTime
				if cStart < mm.SentAt {
					cStart = mm.SentAt
				}
				s.tracer.Record(spans.Span{Trace: mm.TraceID, ID: mm.ParentSpan,
					Name: "offload", Host: "lgv", Kind: spans.Tick,
					Start: mm.SentAt, End: now})
				s.tracer.Add(mm.TraceID, mm.ParentSpan, "rtt", "lgv", "net",
					spans.Transport, mm.SentAt, cStart)
				s.tracer.Add(mm.TraceID, mm.ParentSpan, mm.Node, mm.Host, mm.Node,
					spans.Compute, cStart, now)
			}
			s.sink.Observe(obs.MNodeExecSeconds, mm.Node, mm.ProcTime)
			s.sink.Count(obs.MNodeExecs, mm.Node, 1)
			s.sink.Observe(obs.MProbeRTTSeconds, "", rtt)
			s.sink.Emit(obs.Event{Kind: obs.KindNodeExec,
				T0: mm.SentAt, T1: now, Node: mm.Node, Host: mm.Host,
				Value: mm.ProcTime})
		case *msg.Heartbeat:
			// Liveness only: markAlive above already refreshed the health
			// clock and closed any outage.
			_ = mm
		}
	}
}

// Maintain runs the switcher's health check; the demo driver calls it
// periodically (any rate comparable to the control period works). When
// the worker has been silent past HealthTimeout, the switcher declares
// it dead — Degraded() flips true, telling the caller to execute the
// offloaded node locally — and probes with hello heartbeats under
// exponential backoff until the worker (restarted on the same port, or
// a fresh one at the same address) echoes and Pump marks it alive.
func (s *Switcher) Maintain() {
	now := time.Now()
	s.mu.Lock()
	silent := now.Sub(s.lastHeard)
	if silent <= s.HealthTimeout {
		s.mu.Unlock()
		return
	}
	if !s.degraded {
		s.degraded = true
		s.downSince = now
		s.backoff = helloBackoffMin
		s.nextHello = now // probe immediately
	}
	probe := !now.Before(s.nextHello)
	if probe {
		s.nextHello = now.Add(s.backoff)
		s.backoff *= 2
		if s.backoff > helloBackoffMax {
			s.backoff = helloBackoffMax
		}
	}
	s.mu.Unlock()
	if probe {
		hb := &msg.Heartbeat{From: "switcher"}
		hb.SentAt = s.now()
		_ = s.ep.SendToDeadline(s.peer, hb, sendDeadline)
	}
}

// Degraded reports whether the worker is currently considered dead; the
// caller should fail over to local execution while it holds.
func (s *Switcher) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Reconnects returns how many declared outages have been recovered.
func (s *Switcher) Reconnects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconnects
}

// LastCommand returns the most recent velocity command, if any.
func (s *Switcher) LastCommand() (*msg.Twist, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCmd, s.lastCmd != nil
}

// Received returns how many commands have arrived.
func (s *Switcher) Received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Close shuts the endpoint down.
func (s *Switcher) Close() error { return s.ep.Close() }
