// Package serve is the mission control plane: a scheduler that
// multiplexes many concurrent headless missions inside one process,
// plus an HTTP/JSON API (api.go) layered onto the obs inspector.
//
// One mission used to mean one blocking core.Run call. The scheduler
// instead drives core.Mission handles step-by-step: admitted missions
// wait in a bounded FIFO queue, at most MaxRunning are materialized at
// a time, and a small fixed set of executor goroutines advances the
// running set round-robin in slices of SliceSteps physics steps. The
// fairness bound is structural — after a mission's slice it re-enters
// the run ring behind every other running mission, so between two
// consecutive slices of any mission at most MaxRunning-1 other slices
// run (plus executor-interleaving slack). Queued missions admit in
// FIFO order; over-deadline missions (queue timeout or an explicit
// per-mission deadline) are evicted, not run.
//
// Isolation: every mission carries its own seeded rng streams and
// virtual clock (internal/core), records through its own
// store.Recorder batching into the shared mission log, and runs with
// the shared Telemetry detached — the registry carries scheduler-level
// metrics, not per-mission timelines. Kernel work still funnels
// through the shared internal/pool workers, whose positional
// assignment keeps every mission's result byte-identical to a solo
// core.Run of the same config (asserted by the simtest `sched-fair`
// invariant).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lgvoffload/internal/core"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/store"
)

// State is a mission's lifecycle state in the scheduler.
type State string

const (
	// StateQueued: admitted, waiting for a running slot.
	StateQueued State = "queued"
	// StateRunning: materialized and being stepped (or awaiting its next
	// slice). A running mission with a pending cancel reports
	// StateCanceling until an executor honors the flag.
	StateRunning State = "running"
	// StateCanceling: cancel requested, not yet honored by an executor.
	StateCanceling State = "canceling"
	// StateDone: ran to its natural end (see Status.Success for outcome).
	StateDone State = "done"
	// StateCanceled: stopped by an operator cancel (DELETE or shutdown
	// without drain).
	StateCanceled State = "canceled"
	// StateEvicted: removed by the scheduler itself — queue timeout,
	// per-mission deadline, or shutdown while still queued.
	StateEvicted State = "evicted"
	// StateFailed: the spec built but the mission could not start
	// (engine rejected the config, store Begin failed).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateCanceled, StateEvicted, StateFailed:
		return true
	}
	return false
}

// Errors the scheduler API returns; the HTTP layer maps them to status
// codes (api.go).
var (
	ErrClosed      = errors.New("serve: scheduler is shutting down")
	ErrQueueFull   = errors.New("serve: admission queue is full")
	ErrUnknown     = errors.New("serve: unknown mission")
	ErrNotFinished = errors.New("serve: mission has not finished")
	ErrFinished    = errors.New("serve: mission already finished")
	ErrGone        = errors.New("serve: result no longer retained")
)

// Builder turns a raw scenario spec (the POST /missions body) into a
// runnable mission config plus its store index row. It must be pure:
// the scheduler calls it once at admission to validate the spec and
// once more at dispatch to materialize it (queued missions hold only
// the spec bytes, not a built world).
type Builder func(spec []byte) (core.MissionConfig, store.MissionStart, error)

// Config configures a Scheduler. The zero value of every field is
// usable; Build is only required when missions are admitted through
// Submit (the HTTP path).
type Config struct {
	// Build parses scenario specs for Submit.
	Build Builder
	// MaxRunning bounds concurrently-materialized missions (default 4).
	MaxRunning int
	// MaxQueued bounds the admission queue (default 1024); a full queue
	// rejects new missions with ErrQueueFull.
	MaxQueued int
	// SliceSteps is how many physics steps one scheduling slice advances
	// a mission before it rotates to the back of the ring (default 256 —
	// 12.8 s of virtual time at the 0.05 s default step).
	SliceSteps int
	// Workers is the executor goroutine count (default 2, clamped to
	// MaxRunning).
	Workers int
	// QueueTimeout evicts missions still queued after this long
	// (0 = never). Eviction is lazy: checked at dispatch and on status
	// sweeps, not by a timer.
	QueueTimeout time.Duration
	// RetainResults bounds finished *core.Result values kept in memory
	// (default 256). Older results drop to their summaries; fetching one
	// returns ErrGone. Status rows are always retained.
	RetainResults int
	// Store, when non-nil, persists every dispatched mission into the
	// shared mission log via a per-mission batching Recorder.
	Store *store.Store
	// Telemetry, when non-nil, receives scheduler metrics
	// (obs.MServe...). Missions themselves run telemetry-detached.
	Telemetry *obs.Telemetry
	// Live, when non-nil, receives mission_start/mission_end lifecycle
	// frames for /live subscribers.
	Live *obs.LiveHub
	// Now overrides the wall clock (tests). Default time.Now.
	Now func() time.Time
}

// mission is one scheduled mission's bookkeeping row.
type mission struct {
	id   string
	spec []byte
	meta store.MissionStart

	cfg    core.MissionConfig
	hasCfg bool // cfg pre-built (SubmitConfig path)

	admitted   time.Time
	deadline   time.Time // zero = none
	admitSeq   uint64
	dispatched time.Time

	// Guarded by Scheduler.mu.
	state        State
	reason       string // cancel/evict/fail detail
	cancelReason string

	// Owned by the executor holding the mission (handed off via runq).
	m   *core.Mission
	rec *store.Recorder

	lastSlice uint64 // global slice seq of this mission's previous slice
	maxGap    uint64 // worst slices-by-others between consecutive slices
	sliced    bool

	cancel atomic.Bool
	virtT  atomic.Uint64 // float64 bits of the mission's virtual time

	res     *core.Result
	summary *store.MissionEnd
	done    chan struct{}
}

func (m *mission) setVirtT(t float64) { m.virtT.Store(math.Float64bits(t)) }
func (m *mission) virtTime() float64  { return math.Float64frombits(m.virtT.Load()) }

// Scheduler multiplexes missions per the package doc. Construct with
// New, stop with Shutdown.
type Scheduler struct {
	cfg Config
	now func() time.Time

	runq chan *mission
	wg   sync.WaitGroup // executors
	swg  sync.WaitGroup // in-flight start() materializations

	mu        sync.Mutex
	idle      *sync.Cond // broadcast when running+starting reaches zero
	queue     []*mission
	missions  map[string]*mission
	order     []string // admission order
	doneOrder []string // finish order, for result retention
	running   int
	starting  int
	nextID    int64
	accepting bool
	closed    bool

	sliceSeq      uint64
	maxGap        uint64
	dispatchOrder []string

	admitted, rejected, evicted, canceled, failed uint64
	doneOK, doneFail                              uint64
}

// New builds and starts a scheduler.
func New(cfg Config) *Scheduler {
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 4
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 1024
	}
	if cfg.SliceSteps <= 0 {
		cfg.SliceSteps = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Workers > cfg.MaxRunning {
		cfg.Workers = cfg.MaxRunning
	}
	if cfg.RetainResults <= 0 {
		cfg.RetainResults = 256
	}
	s := &Scheduler{
		cfg:       cfg,
		now:       cfg.Now,
		runq:      make(chan *mission, cfg.MaxRunning),
		missions:  make(map[string]*mission),
		nextID:    1,
		accepting: true,
	}
	if s.now == nil {
		s.now = time.Now
	}
	if cfg.Store != nil {
		// Start numbering above whatever the store already holds so a
		// daemon restarted on an existing log never collides with its own
		// earlier "j<N>" mission IDs.
		s.nextID = int64(cfg.Store.Stats().Missions) + 1
	}
	s.idle = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Submit admits a mission from a raw scenario spec. The spec is built
// once immediately — a malformed spec is rejected here (the HTTP 400
// path) and never queued — and again at dispatch, so the queue holds
// bytes, not worlds. Returns the assigned mission ID.
func (s *Scheduler) Submit(spec []byte, deadline time.Time) (string, error) {
	if s.cfg.Build == nil {
		return "", fmt.Errorf("serve: no spec builder configured")
	}
	// Build once now so malformed specs are rejected at admission and the
	// queued mission's status already carries its metadata; the built
	// world is discarded and rebuilt at dispatch so the queue holds only
	// bytes.
	_, meta, err := s.cfg.Build(spec)
	if err != nil {
		return "", fmt.Errorf("serve: bad scenario spec: %w", err)
	}
	m := &mission{spec: append([]byte(nil), spec...), meta: meta, deadline: deadline}
	return s.admit(m)
}

// SubmitConfig admits a pre-built mission config directly (no Builder
// involved — the programmatic path the simtest sched-fair invariant and
// soak tests use). The config is held as-is until dispatch; meta.ID is
// overwritten with the scheduler's mission ID.
func (s *Scheduler) SubmitConfig(cfg core.MissionConfig, meta store.MissionStart) (string, error) {
	m := &mission{cfg: cfg, hasCfg: true, meta: meta}
	return s.admit(m)
}

func (s *Scheduler) admit(m *mission) (string, error) {
	s.mu.Lock()
	if !s.accepting {
		s.rejected++
		s.mu.Unlock()
		s.tel().Count(obs.MServeRejected, "closed", 1)
		return "", ErrClosed
	}
	if len(s.queue) >= s.cfg.MaxQueued {
		s.rejected++
		s.mu.Unlock()
		s.tel().Count(obs.MServeRejected, "full", 1)
		return "", ErrQueueFull
	}
	m.id = fmt.Sprintf("j%d", s.nextID)
	s.nextID++
	m.state = StateQueued
	m.admitted = s.now()
	m.admitSeq = s.admitted
	m.done = make(chan struct{})
	s.admitted++
	s.queue = append(s.queue, m)
	s.missions[m.id] = m
	s.order = append(s.order, m.id)
	s.dispatchLocked()
	queued, running := len(s.queue), s.running+s.starting
	s.mu.Unlock()

	s.tel().Count(obs.MServeAdmitted, "", 1)
	s.gauges(queued, running)
	return m.id, nil
}

// dispatchLocked promotes queued missions into free running slots,
// evicting over-deadline queue entries on the way. Caller holds mu.
func (s *Scheduler) dispatchLocked() {
	for s.running+s.starting < s.cfg.MaxRunning && len(s.queue) > 0 {
		m := s.queue[0]
		s.queue = s.queue[1:]
		if s.queueExpiredLocked(m) {
			s.evictLocked(m, "queue timeout")
			continue
		}
		m.state = StateRunning
		m.dispatched = s.now()
		s.starting++
		s.dispatchOrder = append(s.dispatchOrder, m.id)
		s.swg.Add(1)
		go s.start(m)
	}
}

func (s *Scheduler) queueExpiredLocked(m *mission) bool {
	now := s.now()
	if s.cfg.QueueTimeout > 0 && now.Sub(m.admitted) > s.cfg.QueueTimeout {
		return true
	}
	return !m.deadline.IsZero() && now.After(m.deadline)
}

// evictLocked finalizes a still-queued mission without running it.
func (s *Scheduler) evictLocked(m *mission, why string) {
	m.state = StateEvicted
	m.reason = why
	s.evicted++
	close(m.done)
	s.tel().Count(obs.MServeEvicted, "queue", 1)
	s.publishEnd(m.id, StateEvicted, why, false)
}

// start materializes a dispatched mission: build the config (HTTP
// path), open its store recorder, construct the engine, and hand it to
// the executors. Runs off the scheduler lock — map/world construction
// is real work.
func (s *Scheduler) start(m *mission) {
	defer s.swg.Done()
	cfg, meta := m.cfg, m.meta
	if !m.hasCfg {
		var err error
		cfg, meta, err = s.cfg.Build(m.spec)
		if err != nil {
			s.failMission(m, fmt.Errorf("build: %w", err))
			return
		}
	}
	// Per-mission isolation: the shared telemetry/live hooks stay with
	// the scheduler; each mission's rng/clock are already isolated by
	// core (seeded streams, virtual time).
	cfg.Telemetry = nil
	if s.cfg.Store != nil {
		meta.ID = m.id
		meta.Unix = s.now().Unix()
		rec, err := s.cfg.Store.Begin(meta)
		if err != nil {
			s.failMission(m, fmt.Errorf("store begin: %w", err))
			return
		}
		cfg.Store = rec
		m.rec = rec
	}
	cm, err := core.NewMission(cfg)
	if err != nil {
		if m.rec != nil {
			m.rec.Abandon()
			m.rec = nil
		}
		s.failMission(m, err)
		return
	}
	m.setVirtT(0)

	s.mu.Lock()
	m.cfg, m.meta, m.m = cfg, meta, cm
	s.starting--
	s.running++
	running := s.running + s.starting
	s.mu.Unlock()
	s.tel().Observe(obs.MServeAdmitWaitSeconds, "", m.dispatched.Sub(m.admitted).Seconds())
	s.gauges(-1, running)
	if s.cfg.Live != nil {
		frame, _ := json.Marshal(map[string]any{
			"id": m.id, "label": meta.Label, "seed": meta.Seed, "workload": meta.Workload,
		})
		s.cfg.Live.Publish("mission_start", frame)
	}
	s.runq <- m
}

// failMission finalizes a mission that never got an engine.
func (s *Scheduler) failMission(m *mission, err error) {
	s.mu.Lock()
	m.state = StateFailed
	m.reason = err.Error()
	s.starting--
	s.failed++
	close(m.done)
	reason := m.reason
	s.finishCommonLocked(m)
	s.mu.Unlock()
	s.tel().Count(obs.MServeFinished, "failed", 1)
	s.publishEnd(m.id, StateFailed, reason, false)
}

// executor is one stepping worker: take a mission, advance one slice,
// rotate it to the back of the ring or finalize it.
func (s *Scheduler) executor() {
	defer s.wg.Done()
	for m := range s.runq {
		if term, why := s.slice(m); term != "" {
			s.finish(m, term, why)
		} else {
			// Capacity MaxRunning guarantees room: at most running
			// missions exist and this one holds a slot.
			s.runq <- m
		}
	}
}

// slice advances m by up to SliceSteps physics steps. It returns the
// terminal state the mission reached ("" if it is still live); the
// caller commits the transition — slice itself never mutates m.state,
// so status readers never observe a terminal mission whose summary is
// still being written.
func (s *Scheduler) slice(m *mission) (State, string) {
	s.mu.Lock()
	s.sliceSeq++
	seq := s.sliceSeq
	if m.sliced {
		if gap := seq - m.lastSlice - 1; gap > m.maxGap {
			m.maxGap = gap
			if gap > s.maxGap {
				s.maxGap = gap
			}
		}
	}
	m.sliced = true
	m.lastSlice = seq
	s.mu.Unlock()

	if m.cancel.Load() {
		s.mu.Lock()
		why := m.cancelReason
		s.mu.Unlock()
		if why == "" {
			why = "canceled"
		}
		m.m.Cancel(why)
		m.res = m.m.Result()
		return StateCanceled, why
	}
	if !m.deadline.IsZero() && s.now().After(m.deadline) {
		m.m.Cancel("deadline exceeded")
		m.res = m.m.Result()
		s.tel().Count(obs.MServeEvicted, "deadline", 1)
		return StateEvicted, "deadline exceeded"
	}
	for i := 0; i < s.cfg.SliceSteps; i++ {
		if m.m.Step() {
			m.res = m.m.Result()
			m.setVirtT(m.m.Time())
			return StateDone, ""
		}
	}
	m.setVirtT(m.m.Time())
	return "", ""
}

// finish commits a terminal mission: flush its recorder, then — under
// one lock — set the final state and summary, retire the result into
// the retention window, free the running slot, and pull the next queued
// mission in.
func (s *Scheduler) finish(m *mission, state State, why string) {
	sum := core.StoreSummary(m.res)
	var recErr error
	if m.rec != nil {
		// Recorder.Finish drains the batching queue and stamps
		// bookkeeping (tick counts, VDP quantiles, drops) into the log.
		recErr = m.rec.Finish(sum)
	}

	s.mu.Lock()
	m.state = state
	if why != "" {
		m.reason = why
	}
	if recErr != nil && m.reason == "" {
		m.reason = "store finish: " + recErr.Error()
	}
	m.summary = &sum
	s.running--
	switch state {
	case StateDone:
		if m.res.Success {
			s.doneOK++
		} else {
			s.doneFail++
		}
	case StateCanceled:
		s.canceled++
	case StateEvicted:
		s.evicted++
	}
	close(m.done)
	reason := m.reason
	s.finishCommonLocked(m)
	s.dispatchLocked()
	queued, running := len(s.queue), s.running+s.starting
	s.mu.Unlock()

	switch state {
	case StateDone:
		outcome := "failure"
		if m.res.Success {
			outcome = "success"
		}
		s.tel().Count(obs.MServeFinished, outcome, 1)
	case StateCanceled:
		s.tel().Count(obs.MServeFinished, "canceled", 1)
	case StateEvicted:
		s.tel().Count(obs.MServeFinished, "evicted", 1)
	}
	s.gauges(queued, running)
	s.publishEnd(m.id, state, reason, sum.Success)
}

// finishCommonLocked releases the mission's engine, config and
// Recorder, applies result retention and wakes Shutdown when the
// running set drains. Caller holds mu, and any Recorder has finished.
func (s *Scheduler) finishCommonLocked(m *mission) {
	// Status rows live as long as the daemon; the engine and the
	// Recorder's queue (about 1.2 MiB), held again by cfg.Store, must not.
	m.m, m.rec, m.cfg = nil, nil, core.MissionConfig{}
	s.doneOrder = append(s.doneOrder, m.id)
	// Retention: drop the oldest full Results beyond the cap; summaries
	// and status rows stay, so memory is bounded by the engine states of
	// MaxRunning missions + RetainResults result structs.
	for over := len(s.doneOrder) - s.cfg.RetainResults; over > 0; over-- {
		old := s.missions[s.doneOrder[0]]
		s.doneOrder = s.doneOrder[1:]
		if old != nil {
			old.res = nil
		}
	}
	if s.running+s.starting == 0 {
		s.idle.Broadcast()
	}
}

// publishEnd broadcasts a lifecycle frame. It takes values rather than
// reading the mission row so callers may hold (or not hold) s.mu —
// LiveHub has its own locking and never calls back into the scheduler.
func (s *Scheduler) publishEnd(id string, state State, reason string, success bool) {
	if s.cfg.Live == nil {
		return
	}
	frame, _ := json.Marshal(map[string]any{
		"id": id, "state": state, "reason": reason, "success": success,
	})
	s.cfg.Live.Publish("mission_end", frame)
}

// Cancel requests cancellation. A queued mission cancels immediately; a
// running one is flagged and stops at its next slice boundary
// (StateCanceling until then). Canceling a finished mission returns
// ErrFinished, an unknown ID ErrUnknown.
func (s *Scheduler) Cancel(id, reason string) (State, error) {
	s.mu.Lock()
	m, ok := s.missions[id]
	if !ok {
		s.mu.Unlock()
		return "", ErrUnknown
	}
	if m.state.Terminal() {
		st := m.state
		s.mu.Unlock()
		return st, ErrFinished
	}
	if m.state == StateQueued {
		for i, qm := range s.queue {
			if qm == m {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		m.state = StateCanceled
		m.reason = reason
		if m.reason == "" {
			m.reason = "canceled"
		}
		s.canceled++
		close(m.done)
		why := m.reason
		s.finishCommonLocked(m)
		s.mu.Unlock()
		s.tel().Count(obs.MServeFinished, "canceled", 1)
		s.publishEnd(m.id, StateCanceled, why, false)
		return StateCanceled, nil
	}
	m.cancelReason = reason
	m.cancel.Store(true)
	s.mu.Unlock()
	return StateCanceling, nil
}

// Status is one mission's externally-visible state.
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`

	Label    string `json:"label,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Workload string `json:"workload,omitempty"`

	QueuePos     int     `json:"queue_pos,omitempty"` // 1-based while queued
	T            float64 `json:"t"`                   // virtual seconds advanced
	MaxSimTime   float64 `json:"max_sim_time,omitempty"`
	AdmittedUnix int64   `json:"admitted_unix,omitempty"`

	Success *bool             `json:"success,omitempty"` // set once done
	Summary *store.MissionEnd `json:"summary,omitempty"`
	MaxGap  uint64            `json:"max_slice_gap,omitempty"`
}

// Status returns a mission's current status.
func (s *Scheduler) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.missions[id]
	if !ok {
		return Status{}, ErrUnknown
	}
	return s.statusLocked(m), nil
}

func (s *Scheduler) statusLocked(m *mission) Status {
	st := Status{
		ID: m.id, State: m.state, Reason: m.reason,
		Label: m.meta.Label, Seed: m.meta.Seed, Workload: m.meta.Workload,
		MaxSimTime:   m.meta.MaxSimTime,
		AdmittedUnix: m.admitted.Unix(),
		MaxGap:       m.maxGap,
	}
	if m.state == StateRunning && m.cancel.Load() {
		st.State = StateCanceling
	}
	if m.state == StateQueued {
		for i, qm := range s.queue {
			if qm == m {
				st.QueuePos = i + 1
				break
			}
		}
	} else {
		st.T = m.virtTime()
	}
	if m.state == StateDone && m.res != nil {
		ok := m.res.Success
		st.Success = &ok
	}
	if m.state.Terminal() {
		st.Summary = m.summary
	}
	return st
}

// Statuses lists every known mission in admission order.
func (s *Scheduler) Statuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.missions[id]))
	}
	return out
}

// Result returns a finished mission's full engine result. ErrNotFinished
// while the mission is live, ErrGone if retention dropped it or it never
// ran (evicted/canceled in queue, failed).
func (s *Scheduler) Result(id string) (*core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.missions[id]
	if !ok {
		return nil, ErrUnknown
	}
	if !m.state.Terminal() {
		return nil, ErrNotFinished
	}
	if m.res == nil {
		return nil, ErrGone
	}
	return m.res, nil
}

// Wait blocks until the mission reaches a terminal state and returns it.
func (s *Scheduler) Wait(id string) (State, error) {
	s.mu.Lock()
	m, ok := s.missions[id]
	s.mu.Unlock()
	if !ok {
		return "", ErrUnknown
	}
	<-m.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.state, nil
}

// SweepExpired lazily evicts queued missions past their deadline (the
// dispatch path does this too; health/status handlers call it so a
// stalled queue still sheds). Returns how many were evicted.
func (s *Scheduler) SweepExpired() int {
	s.mu.Lock()
	kept := s.queue[:0]
	var evicted []*mission
	for _, m := range s.queue {
		if s.queueExpiredLocked(m) {
			evicted = append(evicted, m)
		} else {
			kept = append(kept, m)
		}
	}
	s.queue = kept
	for _, m := range evicted {
		s.evictLocked(m, "queue timeout")
	}
	n := len(evicted)
	queued, running := len(s.queue), s.running+s.starting
	s.mu.Unlock()
	if n > 0 {
		s.gauges(queued, running)
	}
	return n
}

// Stats is the scheduler-level health snapshot (also /healthz's body).
type Stats struct {
	Accepting bool `json:"accepting"`
	Queued    int  `json:"queued"`
	Running   int  `json:"running"`
	// Starting counts dispatched missions still materializing (building
	// worlds, opening recorders); they hold running slots.
	Starting int `json:"starting,omitempty"`

	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Done     uint64 `json:"done"`
	Failed   uint64 `json:"failed_missions,omitempty"`
	Canceled uint64 `json:"canceled,omitempty"`
	Evicted  uint64 `json:"evicted,omitempty"`

	MaxRunning int `json:"max_running"`
	MaxQueued  int `json:"max_queued"`

	// Slices and MaxSliceGap expose the round-robin fairness bound: the
	// worst observed number of other-mission slices between two
	// consecutive slices of any one mission.
	Slices      uint64 `json:"slices"`
	MaxSliceGap uint64 `json:"max_slice_gap"`
}

// Stats returns the scheduler snapshot.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Accepting:   s.accepting,
		Queued:      len(s.queue),
		Running:     s.running,
		Starting:    s.starting,
		Admitted:    s.admitted,
		Rejected:    s.rejected,
		Done:        s.doneOK + s.doneFail,
		Failed:      s.failed,
		Canceled:    s.canceled,
		Evicted:     s.evicted,
		MaxRunning:  s.cfg.MaxRunning,
		MaxQueued:   s.cfg.MaxQueued,
		Slices:      s.sliceSeq,
		MaxSliceGap: s.maxGap,
	}
}

// DispatchOrder returns mission IDs in the order they left the queue
// (the sched-fair invariant asserts it matches admission order).
func (s *Scheduler) DispatchOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.dispatchOrder...)
}

// Shutdown stops the scheduler gracefully: new admissions are rejected,
// queued missions are evicted, and — when drain is true — running
// missions finish naturally (bounded by timeout, then force-canceled).
// With drain false running missions are canceled immediately. The store
// is flushed before returning. Idempotent.
func (s *Scheduler) Shutdown(drain bool, timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.accepting = false
	if !drain {
		// Immediate stop: shed the queue and flag every running mission.
		// A drain instead lets the queue keep dispatching until empty.
		for _, m := range s.queue {
			s.evictLocked(m, "shutdown")
		}
		s.queue = nil
		s.cancelRunningLocked("shutdown")
	}
	s.mu.Unlock()

	timedOut := !s.waitIdle(timeout)
	if timedOut {
		// Drain took too long: shed what never started, force-cancel the
		// rest, and give the executors a moment to honor the flags (a
		// slice boundary is never far).
		s.mu.Lock()
		for _, m := range s.queue {
			s.evictLocked(m, "shutdown timeout")
		}
		s.queue = nil
		s.cancelRunningLocked("shutdown timeout")
		s.mu.Unlock()
		s.waitIdle(5 * time.Second)
	}
	s.swg.Wait()
	close(s.runq)
	s.wg.Wait()

	if s.cfg.Store != nil {
		if err := s.cfg.Store.Sync(); err != nil {
			return err
		}
	}
	if timedOut {
		return fmt.Errorf("serve: shutdown drain exceeded %s", timeout)
	}
	return nil
}

// CancelAll evicts every queued mission and flags every running one
// for cancellation. Its main use is aborting an in-progress draining
// Shutdown (which is idempotent, so a second Shutdown call can't).
func (s *Scheduler) CancelAll(reason string) {
	s.mu.Lock()
	for _, m := range s.queue {
		s.evictLocked(m, reason)
	}
	s.queue = nil
	s.cancelRunningLocked(reason)
	s.mu.Unlock()
}

func (s *Scheduler) cancelRunningLocked(reason string) {
	for _, m := range s.missions {
		if m.state == StateRunning {
			m.cancelReason = reason
			m.cancel.Store(true)
		}
	}
}

// waitIdle blocks until the queue is empty and no mission is running
// or starting, or the timeout passes. Returns true when idle.
func (s *Scheduler) waitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
	})
	defer wake.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 || s.running+s.starting > 0 {
		if time.Now().After(deadline) {
			return false
		}
		s.idle.Wait()
	}
	return true
}

func (s *Scheduler) tel() *obs.Telemetry { return s.cfg.Telemetry }

// gauges updates the queued/running gauges; pass queued < 0 to leave
// the queued gauge untouched.
func (s *Scheduler) gauges(queued, running int) {
	if queued >= 0 {
		s.tel().SetGauge(obs.MServeQueued, "", float64(queued))
	}
	s.tel().SetGauge(obs.MServeRunning, "", float64(running))
}
