package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"lgvoffload/internal/ring"
)

// LiveHub fans mission telemetry out to Server-Sent-Events subscribers:
// attach one to a Telemetry with Tee and every timeline event (ticks,
// switches, faults, drops, ...) is rendered once as an SSE frame and
// broadcast to all connected /live clients. A short replay ring hands
// late subscribers the most recent frames so a scrape right after a
// mission finishes still sees events.
//
// A slow subscriber never blocks the producer — its queue overflows and
// frames are counted as dropped for that subscriber only.
type LiveHub struct {
	mu      sync.Mutex
	subs    map[chan []byte]*subState
	replay  ring.Ring[[]byte] // recent frames
	dropped uint64            // frames dropped across all subscribers, ever
	closed  bool
}

type subState struct{ dropped uint64 }

// subQueueCap bounds one subscriber's frame queue; at ~10 events per
// 0.2 s control tick this is several seconds of slack.
const subQueueCap = 1024

// defaultReplay is how many recent frames a new subscriber receives.
const defaultReplay = 256

// NewLiveHub builds a hub whose replay ring holds replayCap frames
// (<= 0 means the default).
func NewLiveHub(replayCap int) *LiveHub {
	if replayCap <= 0 {
		replayCap = defaultReplay
	}
	return &LiveHub{subs: make(map[chan []byte]*subState), replay: ring.New[[]byte](replayCap)}
}

// Emit renders the event as one SSE frame and broadcasts it.
func (h *LiveHub) Emit(ev Event) {
	if h == nil {
		return
	}
	body, err := json.Marshal(ev)
	if err != nil {
		return
	}
	h.Publish(string(ev.Kind), body)
}

// Publish broadcasts one pre-marshaled JSON payload as an SSE frame
// with the given event name. Producers use it for lifecycle frames the
// timeline does not carry (mission start/end).
func (h *LiveHub) Publish(event string, data []byte) {
	if h == nil {
		return
	}
	frame := []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, data))
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.replay.Push(frame)
	for ch, st := range h.subs {
		select {
		case ch <- frame:
		default:
			st.dropped++
			h.dropped++
		}
	}
	h.mu.Unlock()
}

// subscribe registers a new subscriber and returns its channel plus the
// replay frames it should be sent first.
func (h *LiveHub) subscribe() (chan []byte, [][]byte) {
	ch := make(chan []byte, subQueueCap)
	h.mu.Lock()
	replay := h.replay.AppendTo(nil)
	if !h.closed {
		h.subs[ch] = &subState{}
	} else {
		close(ch)
	}
	h.mu.Unlock()
	return ch, replay
}

func (h *LiveHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// Close disconnects all subscribers (their streams end cleanly) and
// makes further publishes no-ops. Nil-safe.
func (h *LiveHub) Close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for ch := range h.subs {
			close(ch)
			delete(h.subs, ch)
		}
	}
	h.mu.Unlock()
}

// Dropped returns the total frames discarded because a subscriber's
// queue was full, across all subscribers since the hub was built
// (nil-safe). Survives unsubscribes, so it is the hub-level signal that
// some client fell behind.
func (h *LiveHub) Dropped() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// Subscribers returns the current subscriber count (nil-safe).
func (h *LiveHub) Subscribers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// ServeHTTP streams SSE frames: a "hello" event first (so probes always
// receive one event promptly, even after the mission has ended), then
// the replay ring, then live frames until the client disconnects or the
// hub closes.
func (h *LiveHub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch, replay := h.subscribe()
	defer h.unsubscribe(ch)

	fmt.Fprintf(w, "event: hello\ndata: {\"replay\":%d}\n\n", len(replay))
	for _, frame := range replay {
		w.Write(frame)
	}
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			// Drain whatever else is queued before flushing once.
			for drained := false; !drained; {
				select {
				case more, ok := <-ch:
					if !ok {
						fl.Flush()
						return
					}
					if _, err := w.Write(more); err != nil {
						return
					}
				default:
					drained = true
				}
			}
			fl.Flush()
		}
	}
}
