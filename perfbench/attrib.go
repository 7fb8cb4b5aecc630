package main

import (
	"time"

	"lgvoffload/internal/core"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
)

// The traced run splits each mission Step's host time by layer. A
// Telemetry tee stamps host time at every engine event; the harness also
// stamps the Step boundaries and the CmdTap, which the engine calls
// after the multiplexer has picked this step's motor command. The gap
// between two consecutive stamps goes to the module whose call sits
// between them, following the event order of internal/core:
//
//	Step start
//	  probe echo ............ netsim   (Algorithm 2 heartbeat, both links)
//	  scan transfer/drop .... sensor   (laser sense, odometry, uplink send)
//	  node_exec localization  amcl     (includes sensing on a local tick)
//	  node_exec slam ........ slam     (includes sensing on a local tick)
//	  node_exec costmap_gen . costmap  (includes the SLAM map refresh)
//	  node_exec path_planning planner  (one stamp per plan)
//	  node_exec exploration . explore  (frontier search)
//	  node_exec coverage .... coverage
//	  node_exec path_tracking tracker
//	  node_exec velocity_mux  muxer
//	  cmd_vel transfer/drop . netsim   (downlink send)
//	  tick .................. core     (pacing, velocity cap, energy)
//	  alg2/switch/... ....... core tick tail
//	CmdTap .................. core tick tail: store, flight and SLO
//	                          recording, Algorithms 1/2, mux select
//	Step end ................ core step tail: physics, meters, link
//	                          position, termination check
//
// On a step without a control tick the gap up to CmdTap is plain core.
// Handoff and fault events fire inside a link send, so they are not
// stamps: their time stays with the send.

// layer indexes the buckets a traced step's host time is attributed to.
type layer int

const (
	lSensor layer = iota
	lAMCL
	lSLAM
	lCostmap
	lPlanner
	lCoverage
	lExplore
	lTracker
	lMuxer
	lNetsim
	lCore     // engine bookkeeping outside the two tails below
	lCoreTick // tick event → CmdTap
	lCoreStep // CmdTap → Step return
	lUnattributed
	numLayers
)

// tableLayers are the rows of the wall-clock Table II; the three core
// buckets report as one "core" row.
var tableLayers = []struct {
	name    string
	buckets []layer
}{
	{"sensor", []layer{lSensor}},
	{"amcl", []layer{lAMCL}},
	{"slam", []layer{lSLAM}},
	{"costmap", []layer{lCostmap}},
	{"planner", []layer{lPlanner}},
	{"coverage", []layer{lCoverage}},
	{"explore", []layer{lExplore}},
	{"tracker", []layer{lTracker}},
	{"muxer", []layer{lMuxer}},
	{"netsim", []layer{lNetsim}},
	{"core", []layer{lCore, lCoreTick, lCoreStep}},
}

// mark is what a stamp records: the event that ended a gap.
type mark uint8

const (
	mStepStart mark = iota
	mStepEnd
	mCmdTap
	mProbe
	mUplink
	mDownlink
	mTick
	mCoreEvent
	mAMCL
	mSLAM
	mCostmap
	mPlanner
	mCoverage
	mExplore
	mTracker
	mMuxer
	mUnknown
	mIgnore
)

var nodeMarks = map[string]mark{
	core.NodeLocalization: mAMCL,
	core.NodeSLAM:         mSLAM,
	core.NodeCostmap:      mCostmap,
	core.NodePlanner:      mPlanner,
	core.NodeCoverage:     mCoverage,
	core.NodeExploration:  mExplore,
	core.NodeTracking:     mTracker,
	core.NodeMux:          mMuxer,
}

// classify maps one telemetry event to its stamp.
func classify(ev obs.Event) mark {
	switch ev.Kind {
	case obs.KindNodeExec:
		if m, ok := nodeMarks[ev.Node]; ok {
			return m
		}
		return mUnknown
	case obs.KindTransfer, obs.KindDrop:
		switch ev.Node { // the topic
		case "scan":
			return mUplink
		case "cmd_vel":
			return mDownlink
		case "probe":
			return mProbe
		}
		return mUnknown
	case obs.KindProbe:
		return mProbe
	case obs.KindTick:
		return mTick
	case obs.KindHandoff, obs.KindFault:
		return mIgnore
	}
	return mCoreEvent
}

type stamp struct {
	m mark
	t int64 // ns since the tracer's base
}

// layerTimes accumulates attributed host time and the work counts the
// per-layer ratios divide by.
type layerTimes struct {
	ns                                         [numLayers]int64
	steps, ticks, slamUpdates, plans, explores int
}

// add attributes one Step's stamps, which run from mStepStart to
// mStepEnd.
func (lt *layerTimes) add(marks []stamp) {
	lt.steps++
	ticked := false
	for i := 1; i < len(marks); i++ {
		l := lUnattributed
		switch marks[i].m {
		case mProbe, mDownlink:
			l = lNetsim
		case mUplink:
			l = lSensor
		case mAMCL:
			l = lAMCL
		case mSLAM:
			l = lSLAM
			lt.slamUpdates++
		case mCostmap:
			l = lCostmap
		case mPlanner:
			l = lPlanner
			lt.plans++
		case mCoverage:
			l = lCoverage
		case mExplore:
			l = lExplore
			lt.explores++
		case mTracker:
			l = lTracker
		case mMuxer:
			l = lMuxer
		case mTick:
			l = lCore
			ticked = true
			lt.ticks++
		case mCoreEvent, mCmdTap:
			l = lCore
			if ticked {
				l = lCoreTick
			}
		case mStepEnd:
			l = lCoreStep
		}
		lt.ns[l] += marks[i].t - marks[i-1].t
	}
}

// stamped is the total traced host time; attributed excludes the
// unattributed bucket.
func (lt *layerTimes) stamped() int64 {
	var s int64
	for _, v := range lt.ns {
		s += v
	}
	return s
}

func (lt *layerTimes) attributed() int64 { return lt.stamped() - lt.ns[lUnattributed] }

// share returns the named Table II row's share of attributed time, %.
func (lt *layerTimes) share(buckets []layer) float64 {
	var s int64
	for _, b := range buckets {
		s += lt.ns[b]
	}
	return pct(float64(s), float64(lt.attributed()))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func per(total int64, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / float64(unit)
}

// report adds the per-layer metrics the stamps support.
func (lt *layerTimes) report(v values) {
	ms, us := time.Millisecond, time.Microsecond
	v["tracker.ms_per_tick"] = per(lt.ns[lTracker], lt.ticks, ms)
	v["costmap.ms_per_tick"] = per(lt.ns[lCostmap], lt.ticks, ms)
	v["amcl.ms_per_tick"] = per(lt.ns[lAMCL], lt.ticks, ms)
	v["sensor.ms_per_tick"] = per(lt.ns[lSensor], lt.ticks, ms)
	v["slam.ms_per_update"] = per(lt.ns[lSLAM], lt.slamUpdates, ms)
	v["slam.updates_per_tick"] = ratio(lt.slamUpdates, lt.ticks)
	v["planner.ms_per_plan"] = per(lt.ns[lPlanner], lt.plans, ms)
	v["planner.plans"] = float64(lt.plans)
	v["explore.ms_per_call"] = per(lt.ns[lExplore], lt.explores, ms)
	v["netsim.us_per_tick"] = per(lt.ns[lNetsim], lt.ticks, us)
	v["core.tick_tail_us"] = per(lt.ns[lCoreTick], lt.ticks, us)
	v["core.step_tail_us"] = per(lt.ns[lCoreStep], lt.steps, us)
	for _, row := range tableLayers {
		v[row.name+".share_pct"] = lt.share(row.buckets)
	}
	v["trace.unattributed_pct"] = pct(float64(lt.ns[lUnattributed]), float64(lt.stamped()))
}

// stepTracer stamps one mission's steps. It is an obs.Sink (teed into
// the mission's Telemetry) and supplies the CmdTap; all stamps come from
// the goroutine stepping the mission.
type stepTracer struct {
	base  time.Time
	marks []stamp
	lt    layerTimes
}

func newStepTracer() *stepTracer {
	return &stepTracer{base: time.Now(), marks: make([]stamp, 0, 64)}
}

func (s *stepTracer) stamp(m mark) {
	s.marks = append(s.marks, stamp{m, int64(time.Since(s.base))})
}

func (s *stepTracer) Count(name, label string, delta float64) {}
func (s *stepTracer) SetGauge(name, label string, v float64)  {}
func (s *stepTracer) Observe(name, label string, v float64)   {}

func (s *stepTracer) Emit(ev obs.Event) {
	if m := classify(ev); m != mIgnore {
		s.stamp(m)
	}
}

func (s *stepTracer) cmdTap(now float64, cmd geom.Twist, stalled bool) { s.stamp(mCmdTap) }

// step advances m by one physics step and attributes its host time.
func (s *stepTracer) step(m *core.Mission) bool {
	s.marks = s.marks[:0]
	s.stamp(mStepStart)
	done := m.Step()
	s.stamp(mStepEnd)
	s.lt.add(s.marks)
	return done
}
