package mw

import (
	"fmt"
	"net"
	"sync"
	"time"

	"lgvoffload/internal/obs"
	"lgvoffload/internal/wire"
)

// UDPEndpoint sends and receives wire frames over a real UDP socket. The
// paper's Switcher uses an asynchronous UDP channel (evpp) between the
// LGV and the remote worker, and this endpoint reproduces that data path
// with the standard library, including the nonblocking "best-effort"
// semantics that make tail latency a misleading quality metric (§VI).
//
// Received frames land in a bounded queue; when the queue is full the
// oldest frame is overwritten, matching the one-length-queue freshness
// policy of VDP topics.
type UDPEndpoint struct {
	conn  *net.UDPConn
	depth int

	mu          sync.Mutex
	queue       []inFrame
	recv        int
	errs        int
	overwritten int // frames displaced by newer arrivals before Poll saw them
	closed      bool
	done        chan struct{}
	notify      chan struct{}  // cap-1 wakeup for PollWaitFrom blockers
	sink        *obs.Telemetry // nil when telemetry is off
}

// inFrame is one decoded frame with the peer address it came from, so
// consumers can auto-register a reconnecting sender.
type inFrame struct {
	m    wire.Message
	from *net.UDPAddr
}

// ListenUDP opens an endpoint on the given address ("127.0.0.1:0" for an
// ephemeral port) with the given receive queue depth (<=0 means 1).
func ListenUDP(addr string, depth int) (*UDPEndpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("mw: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("mw: listen %s: %w", addr, err)
	}
	if depth <= 0 {
		depth = 1
	}
	ep := &UDPEndpoint{conn: conn, depth: depth,
		done: make(chan struct{}), notify: make(chan struct{}, 1)}
	go ep.readLoop()
	return ep, nil
}

// Addr returns the endpoint's bound address.
func (ep *UDPEndpoint) Addr() *net.UDPAddr { return ep.conn.LocalAddr().(*net.UDPAddr) }

// SetSink attaches a telemetry sink for live frame/error/overwrite
// counters (nil detaches).
func (ep *UDPEndpoint) SetSink(s *obs.Telemetry) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.sink = s
}

// SendTo encodes and transmits a message to the given peer address. The
// frame is built in a pooled buffer released after the write, so the
// steady-state scan/cmd stream does not allocate per datagram.
func (ep *UDPEndpoint) SendTo(peer *net.UDPAddr, m wire.Message) error {
	e := wire.GetEncoder()
	wire.EncodeFrameTo(e, m)
	_, err := ep.conn.WriteToUDP(e.Bytes(), peer)
	wire.PutEncoder(e)
	return err
}

// SendToDeadline is SendTo with a write deadline: a blocked socket (full
// send buffer, vanished interface) errors out after d instead of
// wedging the caller. d <= 0 means no deadline.
func (ep *UDPEndpoint) SendToDeadline(peer *net.UDPAddr, m wire.Message, d time.Duration) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	wire.EncodeFrameTo(e, m)
	if d > 0 {
		if err := ep.conn.SetWriteDeadline(time.Now().Add(d)); err != nil {
			return err
		}
		defer ep.conn.SetWriteDeadline(time.Time{})
	}
	_, err := ep.conn.WriteToUDP(e.Bytes(), peer)
	return err
}

func (ep *UDPEndpoint) readLoop() {
	defer close(ep.done)
	buf := make([]byte, 64*1024)
	for {
		n, from, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		m, err := wire.DecodeFrame(buf[:n])
		ep.mu.Lock()
		if err != nil {
			ep.errs++
			ep.sink.Count(obs.MDecodeErrors, "udp", 1)
		} else {
			ep.recv++
			ep.sink.Count(obs.MFrames, "udp", 1)
			if len(ep.queue) >= ep.depth {
				drop := len(ep.queue) - ep.depth + 1
				ep.queue = ep.queue[drop:]
				ep.overwritten += drop
				ep.sink.Count(obs.MOverwrites, "udp", float64(drop))
			}
			ep.queue = append(ep.queue, inFrame{m: m, from: from})
		}
		ep.mu.Unlock()
		if err == nil {
			// Wake one blocked PollWaitFrom; a full token already means a
			// wakeup is pending, so never block here.
			select {
			case ep.notify <- struct{}{}:
			default:
			}
		}
	}
}

// Poll removes and returns the oldest received message, if any.
func (ep *UDPEndpoint) Poll() (wire.Message, bool) {
	m, _, ok := ep.PollFrom()
	return m, ok
}

// PollFrom is Poll plus the sender's address, so a server endpoint can
// adopt whichever live peer is actually talking to it.
func (ep *UDPEndpoint) PollFrom() (wire.Message, *net.UDPAddr, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.queue) == 0 {
		return nil, nil, false
	}
	f := ep.queue[0]
	ep.queue = ep.queue[1:]
	return f.m, f.from, true
}

// PollWaitFrom blocks until a message arrives, the timeout elapses, or
// the endpoint closes. It replaces busy-poll loops: an idle consumer
// parks on a channel instead of burning a core.
func (ep *UDPEndpoint) PollWaitFrom(timeout time.Duration) (wire.Message, *net.UDPAddr, bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if m, from, ok := ep.PollFrom(); ok {
			return m, from, true
		}
		select {
		case <-ep.notify:
			// Re-check the queue; stale tokens just loop once more.
		case <-timer.C:
			return nil, nil, false
		case <-ep.done:
			// Drain anything that raced the socket close, then report.
			if m, from, ok := ep.PollFrom(); ok {
				return m, from, true
			}
			return nil, nil, false
		}
	}
}

// Received returns the count of successfully decoded frames.
func (ep *UDPEndpoint) Received() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.recv
}

// DecodeErrors returns the count of frames that failed to decode.
func (ep *UDPEndpoint) DecodeErrors() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.errs
}

// Overwritten returns how many decoded frames the bounded receive queue
// displaced before any Poll consumed them — previously these vanished
// silently, hiding how much uplink work the freshness policy discards.
func (ep *UDPEndpoint) Overwritten() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.overwritten
}

// Close shuts the socket down and waits for the read loop to exit.
func (ep *UDPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.mu.Unlock()
	err := ep.conn.Close()
	<-ep.done
	return err
}
