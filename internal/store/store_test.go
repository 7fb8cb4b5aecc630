package store

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func tmpStore(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "missions.lgvstore")
}

// writeMission records one synthetic mission with n ticks and returns
// its ID.
func writeMission(t *testing.T, s *Store, seed int64, n int, success bool) string {
	t.Helper()
	rec, err := s.Begin(MissionStart{Seed: seed, Workload: "navigation", FaultSpec: "wap:10-20"})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < n; i++ {
		rec.Tick(Tick{T: float64(i) * 0.2, VDP: 0.1 + float64(i%7)*0.01, EnergyJ: float64(i), Bandwidth: 40})
	}
	rec.Decision(Decision{T: 1, Reason: "alg2", From: "lgv", To: "edge", Bandwidth: 40})
	rec.Fault(Fault{Kind: "wap", T0: 10, T1: 20})
	rec.SpanRow(SpanRow{T: 0.2, Makespan: 0.1, Compute: 0.06, Transport: 0.04})
	err = rec.Finish(MissionEnd{
		Success: success, Reason: "goal", TotalTime: float64(n) * 0.2,
		Energy: map[string]float64{"compute": 10, "motion": 20}, TotalEnergy: 30,
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return rec.ID()
}

func TestStoreRoundTrip(t *testing.T) {
	path := tmpStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	id := writeMission(t, s, 7, 50, true)
	id2 := writeMission(t, s, 8, 30, false)

	if got := len(s.List(Filter{})); got != 2 {
		t.Fatalf("List: got %d missions, want 2", got)
	}
	if got := len(s.List(Filter{Outcome: "success"})); got != 1 {
		t.Fatalf("List success: got %d, want 1", got)
	}
	if got := len(s.List(Filter{Seed: 8, HasSeed: true})); got != 1 {
		t.Fatalf("List seed=8: got %d, want 1", got)
	}
	if got := len(s.List(Filter{FaultSpec: "wap"})); got != 2 {
		t.Fatalf("List faultspec=wap: got %d, want 2", got)
	}

	md, err := s.ReadMission(id)
	if err != nil {
		t.Fatalf("ReadMission: %v", err)
	}
	if len(md.Ticks) != 50 || len(md.Decisions) != 1 || len(md.Faults) != 1 || len(md.Spans) != 1 {
		t.Fatalf("ReadMission counts: ticks=%d dec=%d faults=%d spans=%d",
			len(md.Ticks), len(md.Decisions), len(md.Faults), len(md.Spans))
	}
	if md.End == nil || md.End.Ticks != 50 || md.End.VDPP99 == 0 {
		t.Fatalf("MissionEnd bookkeeping not filled: %+v", md.End)
	}
	if md.Ticks[49].T != 49*0.2 {
		t.Fatalf("tick order broken: last T=%v", md.Ticks[49].T)
	}

	fl, err := s.FleetStats(Filter{})
	if err != nil {
		t.Fatalf("FleetStats: %v", err)
	}
	if fl.Missions != 2 || fl.Finished != 2 || fl.Successes != 1 || fl.Ticks != 80 {
		t.Fatalf("FleetStats: %+v", fl)
	}
	if fl.VDPP99 <= 0 || fl.VDPP50 > fl.VDPP99 {
		t.Fatalf("FleetStats VDP quantiles: p50=%v p99=%v", fl.VDPP50, fl.VDPP99)
	}
	if len(fl.FlipRates) != 2 || fl.FlipRates[1].ID != id2 {
		t.Fatalf("FleetStats flip rates: %+v", fl.FlipRates)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: index rebuilt from disk, nothing truncated, append works.
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Missions != 2 || st.Finished != 2 || st.TruncatedBytes != 0 {
		t.Fatalf("reopen stats: %+v", st)
	}
	writeMission(t, s2, 9, 10, true)
	if st := s2.Stats(); st.Missions != 3 || st.Finished != 3 {
		t.Fatalf("append after reopen: %+v", st)
	}
}

func TestStoreRecoversTruncatedTail(t *testing.T) {
	path := tmpStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeMission(t, s, 1, 20, true)
	// Start mission 2 by hand so we know where its (synchronously
	// written) MissionStart record ends.
	rec, err := s.Begin(MissionStart{Seed: 2, Workload: "navigation"})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	afterStart := s.Stats().Bytes
	for i := 0; i < 20; i++ {
		rec.Tick(Tick{T: float64(i) * 0.2, VDP: 0.1})
	}
	if err := rec.Finish(MissionEnd{Success: true, TotalTime: 4,
		Energy: map[string]float64{}, TotalEnergy: 1}); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	s.Close()

	// Simulate a crash mid-write: cut the file inside mission 2's first
	// tick record, just past its MissionStart.
	if err := os.Truncate(path, afterStart+13); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.TruncatedBytes == 0 {
		t.Fatalf("expected truncated bytes, got %+v", st)
	}
	if st.Missions != 2 || st.Finished != 1 {
		t.Fatalf("after recovery want 2 missions / 1 finished, got %+v", st)
	}
	// Mission 1 fully intact.
	md, err := s2.ReadMission("m1")
	if err != nil {
		t.Fatalf("ReadMission m1: %v", err)
	}
	if len(md.Ticks) != 20 || md.End == nil {
		t.Fatalf("m1 damaged by recovery: ticks=%d end=%v", len(md.Ticks), md.End)
	}
	// Mission 2 listed as unfinished, not lost.
	m2, ok := s2.Mission("m2")
	if !ok || m2.Finished() {
		t.Fatalf("m2: ok=%v finished=%v", ok, m2.Finished())
	}
	// The store accepts new missions after recovery.
	writeMission(t, s2, 3, 5, true)
	if st := s2.Stats(); st.Missions != 3 {
		t.Fatalf("append after recovery: %+v", st)
	}
}

func TestStoreRecoversCorruptTail(t *testing.T) {
	path := tmpStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeMission(t, s, 1, 10, true)
	boundary := s.Stats().Bytes
	writeMission(t, s, 2, 10, true)
	s.Close()

	// Flip payload bytes a little past mission 1's end: the CRC of some
	// mission-2 record no longer matches.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, boundary+frameSize+2); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.TruncatedBytes == 0 {
		t.Fatalf("expected corrupt tail truncated, got %+v", st)
	}
	md, err := s2.ReadMission("m1")
	if err != nil || len(md.Ticks) != 10 || md.End == nil {
		t.Fatalf("m1 damaged: err=%v ticks=%d", err, len(md.Ticks))
	}
}

func TestStoreRejectsForeignFile(t *testing.T) {
	path := tmpStore(t)
	if err := os.WriteFile(path, []byte("definitely not a mission store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a non-store file")
	}
}

func TestStoreCompact(t *testing.T) {
	path := tmpStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeMission(t, s, 1, 40, true)
	writeMission(t, s, 2, 40, false)
	// An abandoned mission: listed, unfinished, dropped by Compact.
	rec, err := s.Begin(MissionStart{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec.Tick(Tick{T: 0.2, VDP: 0.1})
	rec.Abandon()

	dst := filepath.Join(t.TempDir(), "compact.lgvstore")
	kept, err := s.Compact(dst, Filter{})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if kept != 2 {
		t.Fatalf("Compact kept %d, want 2", kept)
	}
	s.Close()

	c, err := Open(dst)
	if err != nil {
		t.Fatalf("open compacted: %v", err)
	}
	defer c.Close()
	if st := c.Stats(); st.Missions != 2 || st.Finished != 2 {
		t.Fatalf("compacted stats: %+v", st)
	}
	md, err := c.ReadMission("m1")
	if err != nil || len(md.Ticks) != 40 {
		t.Fatalf("compacted m1: err=%v ticks=%d", err, len(md.Ticks))
	}
	if md.End.TotalEnergy != 30 || md.End.Ticks != 40 {
		t.Fatalf("compacted summary: %+v", md.End)
	}
}

func TestStoreConcurrentRecorders(t *testing.T) {
	path := tmpStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	const missions, ticks = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, missions)
	for i := 0; i < missions; i++ {
		rec, err := s.Begin(MissionStart{Seed: int64(i)})
		if err != nil {
			t.Fatalf("Begin %d: %v", i, err)
		}
		wg.Add(1)
		go func(rec *Recorder, seed int) {
			defer wg.Done()
			for k := 0; k < ticks; k++ {
				rec.Tick(Tick{T: float64(k), VDP: 0.1, EnergyJ: float64(k)})
			}
			errs <- rec.Finish(MissionEnd{Success: true, TotalTime: ticks,
				Energy: map[string]float64{}, TotalEnergy: 1})
		}(rec, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	for _, m := range s.List(Filter{}) {
		if m.End == nil {
			t.Fatalf("mission %s unfinished", m.Start.ID)
		}
		if m.End.Ticks+int(m.End.Dropped) != ticks {
			t.Fatalf("mission %s lost records: ticks=%d dropped=%d",
				m.Start.ID, m.End.Ticks, m.End.Dropped)
		}
		md, err := s.ReadMission(m.Start.ID)
		if err != nil {
			t.Fatalf("ReadMission %s: %v", m.Start.ID, err)
		}
		if len(md.Ticks) != m.End.Ticks {
			t.Fatalf("mission %s: decoded %d ticks, index says %d",
				m.Start.ID, len(md.Ticks), m.End.Ticks)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Tick(Tick{})
	rec.Decision(Decision{})
	rec.Fault(Fault{})
	rec.SpanRow(SpanRow{})
	if rec.Dropped() != 0 || rec.ID() != "" {
		t.Fatal("nil recorder leaked state")
	}
	if err := rec.Finish(MissionEnd{}); err != nil {
		t.Fatalf("nil Finish: %v", err)
	}
	rec.Abandon()
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if q := Quantile(v, 0.5); q != 3 {
		t.Fatalf("p50=%v want 3", q)
	}
	if q := Quantile(v, 0.99); q != 5 {
		t.Fatalf("p99=%v want 5", q)
	}
	if v[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile=%v", q)
	}
}

// TestFleetStatsSumsDroppedRecords: each mission's Recorder drop
// counter lands in its MissionEnd and FleetStats sums them, so a fleet
// view flags post-mortems with holes without reading bulk records.
func TestFleetStatsSumsDroppedRecords(t *testing.T) {
	s, err := Open(tmpStore(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i, drops := range []uint64{3, 0, 4} {
		rec, err := s.Begin(MissionStart{Seed: int64(i), Workload: "navigation"})
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		rec.Tick(Tick{T: 0.2, VDP: 0.1})
		rec.dropped.Add(drops) // simulate recording-queue backpressure
		if err := rec.Finish(MissionEnd{Success: true, Reason: "goal", TotalTime: 5}); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	fl, err := s.FleetStats(Filter{})
	if err != nil {
		t.Fatalf("FleetStats: %v", err)
	}
	if fl.RecordsDropped != 7 {
		t.Fatalf("RecordsDropped = %d, want 7", fl.RecordsDropped)
	}
	m, ok := s.Mission(fl.FlipRates[0].ID)
	if !ok || m.End.Dropped != 3 {
		t.Fatalf("first mission Dropped = %+v, want 3", m.End)
	}
}

// TestStoreInterleavedWriters is the multi-writer layout test: N
// recorders begun in order write round-robin-interleaved records into
// one shared log and finish in REVERSE order, with one writer
// abandoned mid-mission (a crashed daemon executor). Listing,
// per-mission readback isolation, fleet aggregation, recovery after
// reopen, and Compact must all hold on that interleaved layout. The
// unfinished mission writes wild VDP outliers, so the quantile checks
// fail if fleet pooling ever ingests ticks no summary vouches for.
func TestStoreInterleavedWriters(t *testing.T) {
	path := tmpStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n, ticks = 4, 50
	recs := make([]*Recorder, n)
	ids := make([]string, n)
	for i := range recs {
		rec, err := s.Begin(MissionStart{Seed: int64(i), Workload: "navigation"})
		if err != nil {
			t.Fatalf("Begin %d: %v", i, err)
		}
		recs[i], ids[i] = rec, rec.ID()
	}
	// One tick per mission per round: maximal interleaving. Mission i's
	// VDP signature is 0.1*(i+1); the doomed mission 0 writes 100s.
	for k := 0; k < ticks; k++ {
		for i, rec := range recs {
			vdp := 0.1 * float64(i+1)
			if i == 0 {
				vdp = 100
			}
			rec.Tick(Tick{T: float64(k), VDP: vdp, EnergyJ: float64(k)})
		}
	}
	for i := n - 1; i >= 1; i-- { // reverse completion order
		err := recs[i].Finish(MissionEnd{Success: i%2 == 1, Reason: "goal",
			TotalTime: 10, TotalEnergy: float64(i), Energy: map[string]float64{}})
		if err != nil {
			t.Fatalf("Finish %d: %v", i, err)
		}
	}
	recs[0].Abandon() // ticks hit the log, no summary ever does

	check := func(st *Store, stage string) {
		t.Helper()
		byID := map[string]MissionInfo{}
		for _, m := range st.List(Filter{}) {
			byID[m.Start.ID] = m
		}
		if len(byID) != n {
			t.Fatalf("%s: %d missions listed, want %d", stage, len(byID), n)
		}
		if m := byID[ids[0]]; m.Finished() {
			t.Errorf("%s: abandoned mission %s reads as finished", stage, ids[0])
		}
		for i := 1; i < n; i++ {
			m := byID[ids[i]]
			if !m.Finished() {
				t.Fatalf("%s: mission %s unfinished", stage, ids[i])
			}
			if m.End.Ticks != ticks {
				t.Errorf("%s: mission %s has %d ticks, want %d", stage, ids[i], m.End.Ticks, ticks)
			}
			md, err := st.ReadMission(ids[i])
			if err != nil {
				t.Fatalf("%s: ReadMission %s: %v", stage, ids[i], err)
			}
			want := 0.1 * float64(i+1)
			for _, tk := range md.Ticks {
				if tk.VDP != want {
					t.Fatalf("%s: mission %s readback polluted: VDP %v, want %v",
						stage, ids[i], tk.VDP, want)
				}
			}
		}
		fl, err := st.FleetStats(Filter{})
		if err != nil {
			t.Fatalf("%s: FleetStats: %v", stage, err)
		}
		if fl.Missions != n || fl.Finished != n-1 || fl.Unfinished != 1 {
			t.Errorf("%s: fleet counts %+v, want %d/%d/1", stage, fl, n, n-1)
		}
		if fl.Successes != 2 || fl.Failures != 1 {
			t.Errorf("%s: successes=%d failures=%d, want 2/1", stage, fl.Successes, fl.Failures)
		}
		if fl.Ticks != (n-1)*ticks {
			t.Errorf("%s: fleet ticks %d, want %d (finished only)", stage, fl.Ticks, (n-1)*ticks)
		}
		// The abandoned mission's 100s must not leak into the pooled
		// quantiles: every finished tick is <= 0.4.
		if fl.VDPP99 > 0.4+1e-9 || fl.VDPMean > 0.4 {
			t.Errorf("%s: pooled VDP polluted by unfinished ticks: p99=%v mean=%v",
				stage, fl.VDPP99, fl.VDPMean)
		}
		checkOracle(t, st, stage, false)
	}
	check(s, "live")

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ro, err := Open(path) // recovery rebuilds the index from the log
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ro.Close()
	check(ro, "reopened")

	dst := filepath.Join(filepath.Dir(path), "compacted.lgvstore")
	kept, err := ro.Compact(dst, Filter{})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if kept != n-1 {
		t.Fatalf("Compact kept %d, want %d", kept, n-1)
	}
	cs, err := Open(dst)
	if err != nil {
		t.Fatalf("open compacted: %v", err)
	}
	defer cs.Close()
	for _, m := range cs.List(Filter{}) {
		if !m.Finished() {
			t.Errorf("compacted store kept unfinished mission %s", m.Start.ID)
		}
	}
	if got := len(cs.List(Filter{})); got != n-1 {
		t.Errorf("compacted store holds %d missions, want %d", got, n-1)
	}
	checkOracle(t, cs, "compacted", false)
}

// TestRecorderCountsOnlyWrittenRecords: a tick whose body cannot be
// encoded (NaN has no JSON form) is never written, so it is neither
// counted nor in the mission's VDP quantiles; it counts as dropped, and
// the fleet view flags the hole.
func TestRecorderCountsOnlyWrittenRecords(t *testing.T) {
	s, err := Open(tmpStore(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	rec, err := s.Begin(MissionStart{Seed: 1})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	rec.Tick(Tick{T: 0, VDP: 0.1})
	rec.Tick(Tick{T: 0.2, VDP: 0.5, Direction: math.NaN()})
	rec.Tick(Tick{T: 0.4, VDP: 0.1})
	if err := rec.Finish(MissionEnd{Success: true, TotalTime: 1}); err == nil {
		t.Fatal("Finish did not report the encode failure")
	}
	md, err := s.ReadMission(rec.ID())
	if err != nil {
		t.Fatalf("ReadMission: %v", err)
	}
	if len(md.Ticks) != 2 || md.End.Ticks != 2 || md.End.Dropped != 1 || md.End.VDPP99 != 0.1 {
		t.Fatalf("stored %d ticks; summary ticks=%d dropped=%d p99=%v, want 2/2/1/0.1",
			len(md.Ticks), md.End.Ticks, md.End.Dropped, md.End.VDPP99)
	}
	fl, err := s.FleetStats(Filter{})
	if err != nil {
		t.Fatalf("FleetStats: %v", err)
	}
	if fl.Ticks != 2 || fl.RecordsDropped != 1 || fl.VDPP99 != 0.1 {
		t.Fatalf("fleet ticks=%d dropped=%d p99=%v, want 2/1/0.1", fl.Ticks, fl.RecordsDropped, fl.VDPP99)
	}
}
