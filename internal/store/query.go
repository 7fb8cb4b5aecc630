package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// MissionInfo is one mission listing row, assembled purely from the
// in-file index (MissionStart + MissionEnd); no tick records are read.
type MissionInfo struct {
	Index uint64       `json:"index"`
	Start MissionStart `json:"start"`
	// End is nil while the mission is running (or if the process died
	// before Finish — the mission is still listed, just unfinished).
	End *MissionEnd `json:"end,omitempty"`
}

// Finished reports whether the mission has a MissionEnd record.
func (m MissionInfo) Finished() bool { return m.End != nil }

// Outcome classifies the mission: "success", "failure" or "unfinished".
func (m MissionInfo) Outcome() string {
	switch {
	case m.End == nil:
		return "unfinished"
	case m.End.Success:
		return "success"
	default:
		return "failure"
	}
}

// Filter selects missions for List and FleetStats. Zero value matches
// everything.
type Filter struct {
	// Outcome filters by MissionInfo.Outcome ("" matches all).
	Outcome string
	// Seed filters by mission seed when HasSeed is set (a pointer-free
	// "optional" so the zero Filter matches seed 0 missions too).
	Seed    int64
	HasSeed bool
	// FaultSpec matches the mission's fault spec as a substring
	// ("" matches all, including fault-free missions).
	FaultSpec string
	// Workload filters by workload name ("" matches all).
	Workload string
	// Limit caps the result count (0 = no cap). Missions are returned
	// in store order; with a limit, the most recent ones win.
	Limit int
}

func (f Filter) match(m MissionInfo) bool {
	if f.Outcome != "" && m.Outcome() != f.Outcome {
		return false
	}
	if f.HasSeed && m.Start.Seed != f.Seed {
		return false
	}
	if f.FaultSpec != "" && !strings.Contains(m.Start.FaultSpec, f.FaultSpec) {
		return false
	}
	if f.Workload != "" && m.Start.Workload != f.Workload {
		return false
	}
	return true
}

// List returns missions matching f in store order.
func (s *Store) List(f Filter) []MissionInfo {
	s.mu.Lock()
	out := make([]MissionInfo, 0, len(s.missions))
	for _, e := range s.missions {
		m := MissionInfo{Index: e.index, Start: e.start, End: e.end}
		if f.match(m) {
			out = append(out, m)
		}
	}
	s.mu.Unlock()
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Mission returns one mission's index row by ID.
func (s *Store) Mission(id string) (MissionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return MissionInfo{}, false
	}
	return MissionInfo{Index: e.index, Start: e.start, End: e.end}, true
}

// MissionData is one mission fully decoded: the index row plus every
// bulk record in write order.
type MissionData struct {
	MissionInfo
	Ticks     []Tick     `json:"ticks,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
	Faults    []Fault    `json:"faults,omitempty"`
	Spans     []SpanRow  `json:"spans,omitempty"`
}

// ReadMission decodes all of one mission's records. For an unfinished
// mission it reads up to the current committed end of file.
func (s *Store) ReadMission(id string) (*MissionData, error) {
	s.mu.Lock()
	e, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: no mission %q", id)
	}
	md := &MissionData{MissionInfo: MissionInfo{Index: e.index, Start: e.start, End: e.end}}
	from, to := e.startOff, s.size
	if e.end != nil {
		to = e.endOff
	}
	idx := e.index
	s.mu.Unlock()

	err := s.scanRange(from, to, func(kind Kind, mission uint64, body []byte) error {
		if mission != idx {
			return nil
		}
		switch kind {
		case KindTick:
			var t Tick
			if err := json.Unmarshal(body, &t); err != nil {
				return err
			}
			md.Ticks = append(md.Ticks, t)
		case KindDecision:
			var d Decision
			if err := json.Unmarshal(body, &d); err != nil {
				return err
			}
			md.Decisions = append(md.Decisions, d)
		case KindFault:
			var fw Fault
			if err := json.Unmarshal(body, &fw); err != nil {
				return err
			}
			md.Faults = append(md.Faults, fw)
		case KindSpanRow:
			var sr SpanRow
			if err := json.Unmarshal(body, &sr); err != nil {
				return err
			}
			md.Spans = append(md.Spans, sr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return md, nil
}

// Ticks decodes just one mission's tick series (the per-mission
// VDP/energy time series).
func (s *Store) Ticks(id string) ([]Tick, error) {
	md, err := s.ReadMission(id)
	if err != nil {
		return nil, err
	}
	return md.Ticks, nil
}

// scanRange replays the records in [from, to) through fn, in one
// buffered sequential read (scanRecords). Records are re-checksummed on
// read so a query never trusts bytes the recovery pass has not seen (to
// is always <= the committed size); a torn or corrupt record is an
// error.
func (s *Store) scanRange(from, to int64, fn func(kind Kind, mission uint64, body []byte) error) error {
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	if f == nil {
		return fmt.Errorf("store: closed")
	}
	if from < headerSize {
		from = headerSize
	}
	_, err := scanRecords(f, from, to, func(_ int64, payload []byte) error {
		kind, mission, body, err := splitPayload(payload)
		if err != nil {
			return err
		}
		return fn(kind, mission, body)
	})
	return err
}

// Fleet aggregates finished missions matching a filter across the whole
// store: outcome counts, pooled tick-VDP quantiles (computed over every
// matching tick record, not quantiles-of-quantiles), energy totals and
// per-mission decision flip rates in store order (the trend series).
type Fleet struct {
	Missions   int `json:"missions"`
	Finished   int `json:"finished"`
	Successes  int `json:"successes"`
	Failures   int `json:"failures"`
	Unfinished int `json:"unfinished"`

	Ticks     int `json:"ticks"`
	Decisions int `json:"decisions"`
	// RecordsDropped sums every finished mission's Recorder drop counter:
	// bulk records (ticks, spans, decisions) the bounded recording queue
	// discarded under backpressure, or that were never written because
	// their body failed to encode. Nonzero means the post-mortems under
	// this store have holes in their time series.
	RecordsDropped uint64 `json:"records_dropped"`

	TotalEnergy  float64 `json:"total_energy_j"`
	MeanEnergy   float64 `json:"mean_energy_j"`
	MeanMission  float64 `json:"mean_mission_s"`
	SuccessRate  float64 `json:"success_rate"`
	MeanFlipRate float64 `json:"mean_flip_rate"` // decisions per mission-minute

	VDPMean float64 `json:"vdp_mean"`
	VDPP50  float64 `json:"vdp_p50"`
	VDPP95  float64 `json:"vdp_p95"`
	VDPP99  float64 `json:"vdp_p99"`

	// FlipRates is the decision flip-rate trend, one point per finished
	// mission in store order.
	FlipRates []FlipPoint `json:"flip_rates,omitempty"`
}

// FlipPoint is one mission's decision flip rate (switches+failovers per
// simulated minute).
type FlipPoint struct {
	ID   string  `json:"id"`
	Seed int64   `json:"seed"`
	Rate float64 `json:"rate"`
}

// FleetStats aggregates missions matching f. Counts and flip rates come
// from the index; the pooled VDP quantiles come from the in-memory VDP
// column, filtered to the matching finished missions. The pooled sample
// holds the values a scan of the file would decode, in file order, so
// the mean's float sum and the quantiles are exactly the scan's. The
// first call after Open decodes the recovered tick records once.
func (s *Store) FleetStats(f Filter) (Fleet, error) {
	all := s.List(Filter{Outcome: f.Outcome, Seed: f.Seed, HasSeed: f.HasSeed,
		FaultSpec: f.FaultSpec, Workload: f.Workload})
	var fl Fleet
	fl.Missions = len(all)
	// want is indexed by mission index. Missions begun after the List
	// above fall past its end and are not wanted.
	var want []bool
	if len(all) > 0 {
		want = make([]bool, all[len(all)-1].Index+1)
	}
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
		// Only finished missions feed the pooled VDPs below: an
		// unfinished (still-writing or crashed) mission's partial ticks
		// would skew the fleet quantiles with data no summary vouches for.
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

	if err := s.loadRecovered(); err != nil {
		return Fleet{}, err
	}
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return Fleet{}, fmt.Errorf("store: closed")
	}
	// A scan stops at the first wanted tick that fails to decode.
	for _, te := range s.colErrs {
		if te.mission < uint64(len(want)) && want[te.mission] {
			s.mu.Unlock()
			return Fleet{}, te.err
		}
	}
	// fl.Ticks sums the stored summaries' counts; a damaged store can
	// make it negative or huge, so it only sizes the sample.
	vdps := make([]float64, 0, min(max(fl.Ticks, 0), len(s.colVDP)))
	for i, m := range s.colMission {
		if int(m) < len(want) && want[m] {
			vdps = append(vdps, s.colVDP[i])
		}
	}
	s.mu.Unlock()
	fl.VDPMean, fl.VDPP50, fl.VDPP95, fl.VDPP99 = vdpStats(vdps)
	return fl, nil
}

// loadRecovered puts the VDPs of the tick records recovered on open
// into the column, once. Ticks of missions unfinished at open are
// skipped: no recorder exists for them, so they never finish and no
// fleet read wants them. A failed load leaves the column as it was, and
// the next call retries.
func (s *Store) loadRecovered() error {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	s.mu.Lock()
	end := s.unloaded
	if end == 0 {
		s.mu.Unlock()
		return nil
	}
	finished := make([]bool, len(s.missions)+1)
	for _, e := range s.missions {
		finished[e.index] = e.end != nil
	}
	s.mu.Unlock()

	var (
		missions []uint32
		vdps     []float64
		errs     []tickErr
	)
	err := s.scanRange(headerSize, end, func(kind Kind, mission uint64, body []byte) error {
		if kind != KindTick || !finished[mission] {
			return nil
		}
		var t Tick
		if err := json.Unmarshal(body, &t); err != nil {
			// Only a mission's first failure can be the one a scan
			// stops at; skip the rest of its ticks.
			errs = append(errs, tickErr{mission, err})
			finished[mission] = false
			return nil
		}
		missions = append(missions, uint32(mission))
		vdps = append(vdps, t.VDP)
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.colMission = append(missions, s.colMission...)
	s.colVDP = append(vdps, s.colVDP...)
	s.colErrs = errs
	s.unloaded = 0
	s.mu.Unlock()
	return nil
}

// Compact copies every finished mission matching f into a fresh store
// at dstPath, dropping unfinished missions, dropped-record gaps and any
// recovered-over garbage, and renumbering mission indexes densely. The
// source store is untouched.
func (s *Store) Compact(dstPath string, f Filter) (kept int, err error) {
	if dstPath == s.path {
		return 0, fmt.Errorf("store: compact target must differ from source")
	}
	dst, err := Open(dstPath)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}()
	for _, m := range s.List(f) {
		if m.End == nil {
			continue
		}
		md, err := s.ReadMission(m.Start.ID)
		if err != nil {
			return kept, err
		}
		rec, err := dst.Begin(m.Start)
		if err != nil {
			return kept, err
		}
		// Replay in record-kind order with lossless blocking sends;
		// per-kind write order is preserved, which is all the query
		// layer relies on.
		rec.replay(md)
		if err := rec.Finish(m.End.WithoutBookkeeping()); err != nil {
			return kept, err
		}
		kept++
	}
	return kept, nil
}

// Quantile exposes the store's nearest-rank quantile (used by tests and
// the bench layer so aggregates stay consistent everywhere). Sorts a
// copy; v is untouched.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return quantile(c, q)
}
