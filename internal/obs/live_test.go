package obs

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestLiveHubStalledSubscriberNeverBlocks is the satellite's core claim:
// a subscriber that never reads cannot stall the producer. Publish into
// a full queue must return promptly and count the discarded frames.
func TestLiveHubStalledSubscriberNeverBlocks(t *testing.T) {
	h := NewLiveHub(8)
	ch, _ := h.subscribe()
	defer h.unsubscribe(ch)

	const extra = 37
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < subQueueCap+extra; i++ {
			h.Publish("tick", []byte(fmt.Sprintf(`{"i":%d}`, i)))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked on a stalled subscriber")
	}
	if got := h.Dropped(); got != extra {
		t.Errorf("Dropped() = %d, want %d", got, extra)
	}
	// The stalled subscriber's queue holds the first subQueueCap frames.
	if got := len(ch); got != subQueueCap {
		t.Errorf("stalled queue holds %d frames, want %d", got, subQueueCap)
	}
}

// TestLiveHubEmitNeverBlocks drives the same guarantee through the
// EventSink face the Telemetry tee uses.
func TestLiveHubEmitNeverBlocks(t *testing.T) {
	h := NewLiveHub(4)
	ch, _ := h.subscribe()
	defer h.unsubscribe(ch)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < subQueueCap+5; i++ {
			h.Emit(Event{Kind: KindTick, T0: float64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Emit blocked on a stalled subscriber")
	}
	if got := h.Dropped(); got != 5 {
		t.Errorf("Dropped() = %d, want 5", got)
	}
}

// TestLiveHubSlowSubscriberIsolated: one subscriber falling behind only
// loses its own frames — a healthy subscriber sees every publish.
func TestLiveHubSlowSubscriberIsolated(t *testing.T) {
	h := NewLiveHub(4)
	stalled, _ := h.subscribe()
	defer h.unsubscribe(stalled)
	// Fill the stalled subscriber's queue so everything further drops.
	for i := 0; i < subQueueCap; i++ {
		h.Publish("fill", []byte("{}"))
	}

	healthy, _ := h.subscribe()
	defer h.unsubscribe(healthy)
	const n = 50
	for i := 0; i < n; i++ {
		h.Publish("tick", []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	if got := len(healthy); got != n {
		t.Errorf("healthy subscriber queued %d frames, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		frame := <-healthy
		want := []byte(fmt.Sprintf("event: tick\ndata: {\"i\":%d}\n\n", i))
		if !bytes.Equal(frame, want) {
			t.Fatalf("frame %d = %q, want %q", i, frame, want)
		}
	}
	if got := h.Dropped(); got != n {
		t.Errorf("Dropped() = %d, want %d (stalled subscriber only)", got, n)
	}
}

// TestLiveHubReplayExactAfterReconnect: a late (re)subscriber receives
// exactly the newest ringCap frames, oldest first, byte-identical to
// what was published.
func TestLiveHubReplayExactAfterReconnect(t *testing.T) {
	const ringCap = 16
	h := NewLiveHub(ringCap)

	// A first client connects, sees traffic, and disconnects mid-stream.
	first, replay := h.subscribe()
	if len(replay) != 0 {
		t.Fatalf("fresh hub replayed %d frames", len(replay))
	}
	const total = 100
	for i := 0; i < total/2; i++ {
		h.Publish("tick", []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	h.unsubscribe(first)
	for i := total / 2; i < total; i++ {
		h.Publish("tick", []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}

	// The reconnect replays exactly the last ringCap frames, in order.
	second, replay := h.subscribe()
	defer h.unsubscribe(second)
	if len(replay) != ringCap {
		t.Fatalf("replayed %d frames, want %d", len(replay), ringCap)
	}
	for j, frame := range replay {
		i := total - ringCap + j
		want := []byte(fmt.Sprintf("event: tick\ndata: {\"i\":%d}\n\n", i))
		if !bytes.Equal(frame, want) {
			t.Fatalf("replay[%d] = %q, want %q", j, frame, want)
		}
	}
	// And frames published after the reconnect arrive live, after replay.
	h.Publish("tick", []byte(`{"i":-1}`))
	select {
	case frame := <-second:
		if !bytes.Contains(frame, []byte(`{"i":-1}`)) {
			t.Errorf("live frame = %q", frame)
		}
	default:
		t.Error("no live frame after reconnect")
	}
}

func TestLiveHubCloseAndNil(t *testing.T) {
	h := NewLiveHub(4)
	ch, _ := h.subscribe()
	h.Publish("a", []byte("{}"))
	h.Close()
	// Draining: the queued frame, then the close.
	if _, ok := <-ch; !ok {
		t.Fatal("queued frame lost on Close")
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed")
	}
	h.Publish("b", []byte("{}")) // no-op, must not panic
	if h.Subscribers() != 0 {
		t.Error("subscribers survived Close")
	}
	late, replay := h.subscribe()
	if _, ok := <-late; ok {
		t.Error("post-Close subscription not immediately closed")
	}
	_ = replay

	var nh *LiveHub
	nh.Publish("x", nil)
	nh.Emit(Event{})
	nh.Close()
	if nh.Dropped() != 0 || nh.Subscribers() != 0 {
		t.Error("nil hub leaked state")
	}
}
