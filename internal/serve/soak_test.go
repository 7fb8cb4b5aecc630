package serve_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"lgvoffload/internal/serve"
	"lgvoffload/internal/simtest"
	"lgvoffload/internal/store"
)

// TestSchedulerSoak1000 is the capacity check from the roadmap: a
// thousand missions multiplexed through one daemon on whatever host
// runs the suite, with heap growth bounded (the queue holds spec
// bytes, not worlds; engine state is bounded by MaxRunning; full
// Results by RetainResults) and zero Recorder drops in the shared
// store. Skipped under -short; the full tier-1 run exercises it.
func TestSchedulerSoak1000(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const n = 1000

	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "soak.lgv"))
	if err != nil {
		t.Fatal(err)
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := serve.New(serve.Config{
		Build:         simtest.BuildScenarioMission,
		MaxRunning:    8,
		MaxQueued:     n,
		RetainResults: 16,
		Store:         st,
	})
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := s.Submit(tinySpec(int64(i)), time.Time{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}

	// Heap with the whole backlog admitted but mostly unmaterialized:
	// this is the number that explodes if queued missions hold Recorder
	// channels (~1.4 MiB each — a thousand of them is ~1.4 GiB) instead
	// of spec bytes. The bound is loose because up to MaxRunning engines
	// plus the retained result tail are legitimately live underneath it.
	var queuedStats runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&queuedStats)
	if grew := int64(queuedStats.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<20 {
		t.Errorf("queue of %d specs grew heap by %d MiB, want < 256 MiB", n, grew>>20)
	}

	if err := s.Shutdown(true, 10*time.Minute); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}

	stats := s.Stats()
	if stats.Admitted != n {
		t.Errorf("admitted %d, want %d", stats.Admitted, n)
	}
	if got := stats.Done + stats.Failed + stats.Canceled + stats.Evicted; got != n {
		t.Errorf("terminal missions %d, want %d (%+v)", got, n, stats)
	}
	if stats.Failed != 0 || stats.Canceled != 0 || stats.Evicted != 0 {
		t.Errorf("soak lost missions: %+v", stats)
	}
	for _, id := range ids {
		mst, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if mst.State != serve.StateDone {
			t.Errorf("mission %s ended %s (%s)", id, mst.State, mst.Reason)
		}
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	// A live daemon keeps every status row: without this the collector
	// may free the scheduler before the read and hide a per-row leak.
	runtime.KeepAlive(s)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<20 {
		// 1000 leaked Recorders alone would be ~1.4 GiB of channel
		// buffers; 64 MiB is generous slack for the retained tail.
		t.Errorf("heap grew %d MiB across the soak, want < 64 MiB", grew>>20)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := store.Open(filepath.Join(dir, "soak.lgv"))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rows := ro.List(store.Filter{})
	if len(rows) != n {
		t.Fatalf("store holds %d missions, want %d", len(rows), n)
	}
	for _, m := range rows {
		if !m.Finished() {
			t.Errorf("mission %s unfinished in store", m.Start.ID)
			continue
		}
		if m.End.Dropped != 0 {
			t.Errorf("mission %s dropped %d records", m.Start.ID, m.End.Dropped)
		}
	}
	fmt.Printf("soak: %d missions, %d slices, heap +%d KiB\n",
		n, stats.Slices, (int64(after.HeapAlloc)-int64(before.HeapAlloc))>>10)
}
