package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// The query oracle: a reader of the raw file bytes that shares no code
// with the store's record reader, and the full-scan FleetStats that the
// VDP column replaced, built on it. FleetStats and ReadMission must
// match it byte for byte in JSON.

// rawRecord is one framed record as the oracle's parser sees it.
type rawRecord struct {
	off     int64 // frame start
	end     int64 // offset just past the record
	kind    Kind
	mission uint64
	body    []byte
}

// parseRaw walks data, a whole store file, and returns its records up to
// the first torn or corrupt one.
func parseRaw(data []byte) []rawRecord {
	var out []rawRecord
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		return nil
	}
	for off := int64(headerSize); off+frameSize <= int64(len(data)); {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameSize + plen
		if plen < 2 || end > int64(len(data)) {
			break
		}
		p := data[off+frameSize : end]
		if crc32.ChecksumIEEE(p) != sum {
			break
		}
		mission, n := binary.Uvarint(p[1:])
		if n <= 0 {
			break
		}
		out = append(out, rawRecord{off: off, end: end, kind: Kind(p[0]), mission: mission, body: p[1+n:]})
		off = end
	}
	return out
}

// rawRecords parses s's committed bytes.
func rawRecords(t testing.TB, s *Store) []rawRecord {
	t.Helper()
	size := s.Stats().Bytes
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatalf("read store file: %v", err)
	}
	return parseRaw(data[:size])
}

// fleetScan is FleetStats as it was before the VDP column: counts from
// the index, pooled VDPs from a full scan of the tick records in file
// order.
func fleetScan(s *Store, recs []rawRecord, f Filter) (Fleet, error) {
	all := s.List(Filter{Outcome: f.Outcome, Seed: f.Seed, HasSeed: f.HasSeed,
		FaultSpec: f.FaultSpec, Workload: f.Workload})
	var fl Fleet
	fl.Missions = len(all)
	want := make(map[uint64]bool, len(all))
	for _, m := range all {
		switch m.Outcome() {
		case "unfinished":
			fl.Unfinished++
			continue
		case "success":
			fl.Successes++
		default:
			fl.Failures++
		}
		want[m.Index] = true
		fl.Finished++
		end := m.End
		fl.Ticks += end.Ticks
		fl.Decisions += end.Decisions
		fl.RecordsDropped += end.Dropped
		fl.TotalEnergy += end.TotalEnergy
		fl.MeanMission += end.TotalTime
		rate := 0.0
		if end.TotalTime > 0 {
			rate = float64(end.Decisions) / (end.TotalTime / 60)
		}
		fl.FlipRates = append(fl.FlipRates, FlipPoint{ID: end.ID, Seed: m.Start.Seed, Rate: rate})
		fl.MeanFlipRate += rate
	}
	if fl.Finished > 0 {
		fl.SuccessRate = float64(fl.Successes) / float64(fl.Finished)
		fl.MeanEnergy = fl.TotalEnergy / float64(fl.Finished)
		fl.MeanMission /= float64(fl.Finished)
		fl.MeanFlipRate /= float64(fl.Finished)
	}
	var vdps []float64
	for _, r := range recs {
		if r.kind != KindTick || !want[r.mission] {
			continue
		}
		var t Tick
		if err := json.Unmarshal(r.body, &t); err != nil {
			return Fleet{}, err
		}
		vdps = append(vdps, t.VDP)
	}
	fl.VDPMean, fl.VDPP50, fl.VDPP95, fl.VDPP99 = vdpStats(vdps)
	return fl, nil
}

// readMissionRaw decodes mission id from the raw records the way
// ReadMission reads it: the last MissionStart carrying the ID, its
// records up to the mission's last MissionEnd (or the end of the
// committed bytes while it has none).
func readMissionRaw(recs []rawRecord, id string) (*MissionData, error) {
	var md *MissionData
	var from, to int64
	for _, r := range recs {
		switch {
		case r.kind == KindMissionStart:
			var ms MissionStart
			if err := json.Unmarshal(r.body, &ms); err != nil {
				return nil, err
			}
			if ms.ID == id {
				md = &MissionData{MissionInfo: MissionInfo{Index: r.mission, Start: ms}}
				from, to = r.off, -1
			}
		case r.kind == KindMissionEnd && md != nil && r.mission == md.Index:
			var me MissionEnd
			if err := json.Unmarshal(r.body, &me); err != nil {
				return nil, err
			}
			md.End, to = &me, r.end
		}
	}
	if md == nil {
		return nil, fmt.Errorf("no mission %q", id)
	}
	for _, r := range recs {
		if r.off < from || (to >= 0 && r.off >= to) || r.mission != md.Index {
			continue
		}
		var err error
		switch r.kind {
		case KindTick:
			var v Tick
			err = json.Unmarshal(r.body, &v)
			md.Ticks = append(md.Ticks, v)
		case KindDecision:
			var v Decision
			err = json.Unmarshal(r.body, &v)
			md.Decisions = append(md.Decisions, v)
		case KindFault:
			var v Fault
			err = json.Unmarshal(r.body, &v)
			md.Faults = append(md.Faults, v)
		case KindSpanRow:
			var v SpanRow
			err = json.Unmarshal(r.body, &v)
			md.Spans = append(md.Spans, v)
		}
		if err != nil {
			return nil, err
		}
	}
	return md, nil
}

// sameResult reports a mismatch between the store's answer and the
// oracle's: both must fail, or both succeed with identical JSON.
func sameResult(got any, gotErr error, want any, wantErr error) error {
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Errorf("error mismatch: store %v, oracle %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if g, w := render(got), render(want); g != w {
		return fmt.Errorf("store:  %s\noracle: %s", g, w)
	}
	return nil
}

// render is v's JSON. Fleet sums over damaged summaries can overflow to
// ±Inf or NaN, which JSON cannot hold; %+v prints those, and every
// other float, exactly.
func render(v any) string {
	if b, err := json.Marshal(v); err == nil {
		return string(b)
	}
	return fmt.Sprintf("%+v", v)
}

// oracleFilters covers every Filter field; Limit is one FleetStats
// ignores.
var oracleFilters = []Filter{
	{},
	{Outcome: "success"},
	{Outcome: "failure"},
	{Outcome: "unfinished"},
	{Seed: 2, HasSeed: true},
	{Seed: 0, HasSeed: true},
	{FaultSpec: "wap"},
	{Workload: "navigation"},
	{Workload: "coverage", Outcome: "success", FaultSpec: "server"},
	{Limit: 2},
}

// checkOracle compares FleetStats under every oracle filter, and
// ReadMission for every listed mission (finished ones only, when
// recorders may still be committing), with the oracle.
func checkOracle(t *testing.T, s *Store, stage string, finishedOnly bool) {
	t.Helper()
	recs := rawRecords(t, s)
	for _, f := range oracleFilters {
		got, gotErr := s.FleetStats(f)
		want, wantErr := fleetScan(s, recs, f)
		if err := sameResult(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("%s: FleetStats(%+v): %v", stage, f, err)
		}
	}
	for _, m := range s.List(Filter{}) {
		if finishedOnly && !m.Finished() {
			continue
		}
		got, gotErr := s.ReadMission(m.Start.ID)
		want, wantErr := readMissionRaw(recs, m.Start.ID)
		if err := sameResult(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("%s: ReadMission(%s): %v", stage, m.Start.ID, err)
		}
	}
}

// oracleVDP draws tick VDPs with ties and signed zeros, so that the
// pooled mean's float sum and the sort's placement of ±0 both depend
// on the order the sample is in.
func oracleVDP(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0.05
	}
	return rng.Float64() * 0.1
}

var (
	oracleWorkloads = []string{"navigation", "coverage", "exploration"}
	oracleFaults    = []string{"", "wap:10-20", "server:5-9;wap:1-2"}
)

func beginOracle(t *testing.T, s *Store, rng *rand.Rand) *Recorder {
	t.Helper()
	rec, err := s.Begin(MissionStart{Seed: rng.Int63n(4), Workload: oracleWorkloads[rng.Intn(3)],
		FaultSpec: oracleFaults[rng.Intn(3)]})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return rec
}

// recordOne sends one random record to rec.
func recordOne(rec *Recorder, rng *rand.Rand, k int) {
	switch rng.Intn(8) {
	case 0:
		rec.Decision(Decision{T: float64(k), Reason: "alg2", From: "lgv", To: "edge", Bandwidth: rng.Float64()})
	case 1:
		rec.Fault(Fault{Kind: "wap", T0: float64(k), T1: float64(k + 1)})
	case 2:
		rec.SpanRow(SpanRow{T: float64(k), Makespan: rng.Float64(), Compute: rng.Float64(),
			ComputeByHost: map[string]float64{"lgv": rng.Float64()}})
	default:
		rec.Tick(Tick{T: float64(k) * 0.2, VDP: oracleVDP(rng), EnergyJ: rng.Float64(),
			Bandwidth: 40 * rng.Float64(), Direction: rng.Float64() - 0.5, RemoteOn: rng.Intn(2) == 0})
	}
}

func finishOracle(t *testing.T, rec *Recorder, rng *rand.Rand) {
	t.Helper()
	err := rec.Finish(MissionEnd{Success: rng.Intn(3) > 0, Reason: "goal", TotalTime: 1 + 60*rng.Float64(),
		TotalEnergy: 100 * rng.Float64(), Energy: map[string]float64{"compute": 1}})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// writeRandom runs one random multi-writer history: up to six recorders
// begun at random points, records sent round the live ones at random
// (with yields, so flushers commit small interleaved batches), and each
// recorder finished or, one in six, abandoned.
func writeRandom(t *testing.T, s *Store, rng *rand.Rand, missions int) {
	t.Helper()
	var live []*Recorder
	begun := 0
	for k := 0; begun < missions || len(live) > 0; k++ {
		switch r := rng.Intn(100); {
		case begun < missions && (len(live) == 0 || (r < 5 && len(live) < 6)):
			live = append(live, beginOracle(t, s, rng))
			begun++
		case r < 8:
			i := rng.Intn(len(live))
			if rng.Intn(6) == 0 {
				live[i].Abandon()
			} else {
				finishOracle(t, live[i], rng)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			recordOne(live[rng.Intn(len(live))], rng, k)
			if rng.Intn(4) == 0 {
				runtime.Gosched()
			}
		}
	}
}

// TestStoreQueryOracle holds FleetStats and ReadMission to the full-scan
// oracle over random multi-writer interleavings with abandoned writers,
// a reopen with missions appended before and after the first fleet
// read, and Compact. TestStoreInterleavedWriters holds the reverse
// finish order to it.
func TestStoreQueryOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := tmpStore(t)
			s, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			writeRandom(t, s, rng, 4+rng.Intn(5))
			checkOracle(t, s, "live", false)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s, err = Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s.Close()
			writeRandom(t, s, rng, rng.Intn(3)) // before the first fleet read
			checkOracle(t, s, "reopened", false)
			writeRandom(t, s, rng, 1+rng.Intn(3)) // after it
			checkOracle(t, s, "appended", false)

			dst := filepath.Join(t.TempDir(), "compacted.lgvstore")
			if _, err := s.Compact(dst, Filter{}); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			c, err := Open(dst)
			if err != nil {
				t.Fatalf("open compacted: %v", err)
			}
			defer c.Close()
			checkOracle(t, c, "compacted", false)
		})
	}
}

// TestStoreQueryOracleConcurrent: recorders write from their own
// goroutines while fleet reads run, the first of them loading the
// recovered prefix. Once every writer is done, the answers match the
// oracle.
func TestStoreQueryOracleConcurrent(t *testing.T) {
	path := tmpStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRandom(t, s, rand.New(rand.NewSource(5)), 4)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		rng := rand.New(rand.NewSource(int64(10 + w)))
		recs := []*Recorder{beginOracle(t, s, rng), beginOracle(t, s, rng)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 150; k++ {
				recordOne(recs[k%2], rng, k)
			}
			for _, rec := range recs {
				if err := rec.Finish(MissionEnd{Success: true, TotalTime: 30,
					Energy: map[string]float64{}}); err != nil {
					t.Errorf("Finish: %v", err)
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.FleetStats(Filter{}); err != nil {
					t.Errorf("FleetStats: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	checkOracle(t, s, "concurrent", false)
}
