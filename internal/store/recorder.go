package store

import (
	"encoding/json"
	"math"
	"sort"
	"sync/atomic"
)

// recQueueCap bounds the Recorder's in-flight queue. At the engine's
// 5 Hz control rate this is minutes of backlog; if the flusher still
// falls behind (e.g. a stalled disk) records are dropped and counted
// rather than ever blocking the mission engine.
const recQueueCap = 4096

// recItem is one queued record. A flat union keeps the channel send
// allocation-free: the engine hot path copies a value, nothing escapes.
type recItem struct {
	kind  Kind
	tick  Tick
	dec   Decision
	fault Fault
	span  SpanRow
}

// Recorder persists one mission's records asynchronously. All methods
// are safe on a nil receiver (no-ops), mirroring the obs/spans
// discipline, so callers thread a possibly-nil *Recorder everywhere
// without branching. The write side never blocks: a full queue drops
// the record and bumps Dropped.
//
// Recorder methods other than Dropped must be called from one
// goroutine (the mission engine); the flusher goroutine owns the
// bookkeeping below.
type Recorder struct {
	s *Store
	e *missionEntry

	ch      chan recItem
	done    chan struct{}
	dropped atomic.Uint64

	// Flusher-owned (synchronized by the done channel).
	ticks, decisions, faults, spanRows int
	vdps                               []float64
	flushErr                           error

	finished bool
}

func newRecorder(s *Store, e *missionEntry) *Recorder {
	r := &Recorder{
		s:    s,
		e:    e,
		ch:   make(chan recItem, recQueueCap),
		done: make(chan struct{}),
	}
	go r.flush()
	return r
}

// ID returns the store-assigned mission ID ("" on a nil recorder).
func (r *Recorder) ID() string {
	if r == nil {
		return ""
	}
	return r.e.start.ID
}

// Tick records one per-tick telemetry snapshot.
func (r *Recorder) Tick(t Tick) {
	if r == nil {
		return
	}
	r.send(recItem{kind: KindTick, tick: t})
}

// Decision records one adaptation decision.
func (r *Recorder) Decision(d Decision) {
	if r == nil {
		return
	}
	r.send(recItem{kind: KindDecision, dec: d})
}

// Fault records one injected fault window.
func (r *Recorder) Fault(f Fault) {
	if r == nil {
		return
	}
	r.send(recItem{kind: KindFault, fault: f})
}

// SpanRow records one critical-path tick decomposition.
func (r *Recorder) SpanRow(sr SpanRow) {
	if r == nil {
		return
	}
	r.send(recItem{kind: KindSpanRow, span: sr})
}

func (r *Recorder) send(it recItem) {
	select {
	case r.ch <- it:
	default:
		r.dropped.Add(1)
	}
}

// replay enqueues a decoded mission's records with blocking sends —
// compaction must be lossless, so the drop-on-full hot-path policy does
// not apply here.
func (r *Recorder) replay(md *MissionData) {
	for _, t := range md.Ticks {
		r.ch <- recItem{kind: KindTick, tick: t}
	}
	for _, d := range md.Decisions {
		r.ch <- recItem{kind: KindDecision, dec: d}
	}
	for _, f := range md.Faults {
		r.ch <- recItem{kind: KindFault, fault: f}
	}
	for _, sr := range md.Spans {
		r.ch <- recItem{kind: KindSpanRow, span: sr}
	}
}

// Dropped returns how many records were lost so far: discarded by the
// bounded queue, or never written because their body failed to encode.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// flush is the recorder's single writer goroutine: it drains the queue,
// frames records into one buffer and commits them in batches, keeping
// the per-record cost (JSON encode + CRC) off the engine goroutine. A
// record counts once its body encodes; one that fails to encode is
// never written and counts as dropped.
func (r *Recorder) flush() {
	defer close(r.done)
	var framed []byte
	var batch int64
	var vdps []float64 // the batch's tick VDPs, in framing order
	commit := func() {
		if batch == 0 {
			return
		}
		if _, err := r.s.appendBatch(framed, batch, r.e.index, vdps); err != nil && r.flushErr == nil {
			r.flushErr = err
		}
		framed = framed[:0]
		vdps = vdps[:0]
		batch = 0
	}
	for it := range r.ch {
		var (
			v     any
			count *int
		)
		switch it.kind {
		case KindTick:
			v, count = &it.tick, &r.ticks
		case KindDecision:
			v, count = &it.dec, &r.decisions
		case KindFault:
			v, count = &it.fault, &r.faults
		case KindSpanRow:
			v, count = &it.span, &r.spanRows
		default:
			continue
		}
		body, err := json.Marshal(v)
		if err != nil {
			if r.flushErr == nil {
				r.flushErr = err
			}
			r.dropped.Add(1)
			continue
		}
		*count++
		if it.kind == KindTick {
			r.vdps = append(r.vdps, it.tick.VDP)
			vdps = append(vdps, it.tick.VDP)
		}
		payload := appendPayload(nil, it.kind, r.e.index, body)
		framed = appendFrame(framed, payload)
		batch++
		// Commit when the queue is momentarily empty (latency: live
		// readers see ticks promptly) or the batch has grown large.
		if len(r.ch) == 0 || len(framed) >= 1<<20 {
			commit()
		}
	}
	commit()
}

// Finish drains the queue, writes the MissionEnd record (filling the
// recorder's bookkeeping: record counts, per-mission VDP quantiles and
// the drop counter) and syncs the store. The summary argument carries
// the producer's final-Result fields; bookkeeping fields are
// overwritten. Nil-safe; returns the first flush or write error.
func (r *Recorder) Finish(end MissionEnd) error {
	if r == nil {
		return nil
	}
	if r.finished {
		return r.flushErr
	}
	r.finished = true
	close(r.ch)
	<-r.done

	end.Ticks = r.ticks
	end.Decisions = r.decisions
	end.Faults = r.faults
	end.SpanRows = r.spanRows
	end.Dropped = r.dropped.Load()
	end.VDPMean, end.VDPP50, end.VDPP95, end.VDPP99 = vdpStats(r.vdps)

	if err := r.s.finishMission(r.e, end); err != nil {
		return err
	}
	return r.flushErr
}

// Abandon stops the recorder without writing a MissionEnd: the mission
// stays listed as unfinished (the crash outcome, reached voluntarily).
// Nil-safe.
func (r *Recorder) Abandon() {
	if r == nil || r.finished {
		return
	}
	r.finished = true
	close(r.ch)
	<-r.done
}

// vdpStats computes the mean and p50/p95/p99 of a tick-VDP series.
// Sorts in place.
func vdpStats(v []float64) (mean, p50, p95, p99 float64) {
	if len(v) == 0 {
		return 0, 0, 0, 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	sort.Float64s(v)
	return sum / float64(len(v)), quantile(v, 0.50), quantile(v, 0.95), quantile(v, 0.99)
}

// quantile reads quantile q from an ascending-sorted series using the
// nearest-rank method (rank = ceil(q·n)).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
