package core

import (
	"math"

	"lgvoffload/internal/coverage"
	"lgvoffload/internal/explore"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/msg"
	"lgvoffload/internal/mw"
	"lgvoffload/internal/netsim"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/slam"
	"lgvoffload/internal/spans"
	"lgvoffload/internal/tracker"
	"lgvoffload/internal/wire"
)

// probeBytes is the size of the Algorithm 2 heartbeat probe, and
// cmdBytes the velocity command payload (the paper's 48 B example).
const (
	probeBytes = 64
	cmdBytes   = 48
)

// controlTick runs one pass of the Fig. 2 pipeline at virtual time now,
// schedules the resulting velocity command, accounts work/energy, and —
// in Adaptive mode — applies Algorithms 1 and 2.
func (e *engine) controlTick(now float64) {
	cfg := e.cfg

	// Per-tick critical-path split for the flight recorder; zeroed here
	// so ticks that exit early (dropped uplink) report an empty split.
	e.lastCompute, e.lastQueue, e.lastTranspt = 0, 0, 0

	// --- Causal trace for this tick. ---------------------------------------
	// Both ids are 0 when tracing is off; every span call below then
	// no-ops without allocating, mirroring the nil-Telemetry contract.
	// The root span is recorded last, once the command delivery time —
	// the end of the VDP makespan — is known; its id is reserved now so
	// children can reference it.
	tr := e.tr
	tickTrace := tr.NewTrace()
	tickRoot := tr.NextID()

	// VDP segment collection for the trace layout. Fixed-size arrays:
	// the hot path must not allocate whether or not tracing is on.
	type vdpSeg struct {
		node string
		host mw.HostID
		dur  float64
	}
	var localSegs, remoteSegs [3]vdpSeg
	nLocal, nRemote := 0, 0

	// --- Sense. -----------------------------------------------------------
	scan := e.laser.Sense(cfg.Map, e.w.Robot.Pose, now)
	odomEst := e.odo.Update(e.w.Robot.Pose)
	delta := e.prevOdom.Delta(odomEst)
	e.prevOdom = odomEst

	// --- Remote involvement and the sensor uplink. ------------------------
	vdpRemote := e.placement.Of(NodeCostmap) != HostLGV || e.placement.Of(NodeTracking) != HostLGV
	slamRemote := e.slm != nil && e.placement.Of(NodeSLAM) != HostLGV
	anyRemote := vdpRemote || slamRemote

	var upLat, upQueue float64
	upDropped := false
	if anyRemote {
		scanFrame := wire.EncodedSize(msg.FromSensorInto(&e.scanMsg, scan, e.seq)) + 60 // + odom piggyback
		e.seq++
		arrive, drop, qd := e.link.SendDirDetail(now, scanFrame, netsim.DirUp)
		e.msgsSent++
		e.bytesUp += float64(scanFrame)
		e.meter.AddTransmit(float64(scanFrame))
		if drop {
			e.msgsDropped++
			upDropped = true
			e.tel.Drop(now, "scan", "uplink")
			tr.Add(tickTrace, tickRoot, "uplink_drop", string(HostLGV), "net",
				spans.Mark, now, now)
		} else {
			upLat = arrive - now
			upQueue = qd
			e.tel.Transfer(now, arrive, "scan", string(e.placement.Remote), scanFrame)
			// Kernel-buffer queueing and the air/WAN hop as distinct net
			// spans. A SLAM-only uplink is causally in the tick but off
			// the command path, so it degrades to Aux.
			upQ, upT := spans.Queue, spans.Transport
			if !vdpRemote {
				upQ, upT = spans.Aux, spans.Aux
			}
			if qd > 0 {
				tr.Add(tickTrace, tickRoot, "uplink_queue", string(HostLGV), "net",
					upQ, now, now+qd)
			}
			tr.Add(tickTrace, tickRoot, "uplink", string(e.placement.Remote), "net",
				upT, now+qd, arrive)
		}
	}

	// --- Localization. -----------------------------------------------------
	localWork := hostsim.Work{} // cycles executed on the LGV this tick
	switch cfg.Workload {
	case NavigationWithMap, CoverageWithMap:
		st := e.loc.Update(delta, scan)
		w := AMCLWork(st.BeamOps)
		e.counter.Account(NodeLocalization, w)
		localWork = localWork.Add(w) // localization is T2: stays on the LGV
		e.pose = e.loc.Estimate()
		if e.tel != nil || tickTrace != 0 { // exec time is computed for observability only
			tLoc := e.platforms[HostLGV].ExecTime(w, 1)
			e.tel.NodeExec(NodeLocalization, string(HostLGV), now, tLoc, 1)
			tr.Add(tickTrace, tickRoot, NodeLocalization, string(HostLGV),
				NodeLocalization, spans.Aux, now, now+tLoc)
		}
	case ExplorationNoMap:
		e.pose = e.stepSLAM(now, delta, scan, slamRemote, upDropped, &localWork, tickTrace, tickRoot)
	}

	// --- A dropped uplink starves the remote VDP: no command this tick. ----
	if vdpRemote && upDropped {
		e.noteMiss(now)
		e.nextControl = now + ControlPeriod
		// Zero-makespan root: the tick produced no command, so it has no
		// critical path; the analyzer skips it.
		tr.Record(spans.Span{Trace: tickTrace, ID: tickRoot, Name: "tick",
			Host: string(HostLGV), Kind: spans.Tick, Start: now, End: now})
		e.finishTick(now, localWork, 0)
		return
	}

	// --- CostmapGen. --------------------------------------------------------
	if cfg.Workload == ExplorationNoMap {
		// A new SLAM map refreshes the static layer before obstacle
		// marking; Update then rebuilds the master grid from both layers.
		// staticAt starts at 0, so the layer stays free until the first
		// update.
		if n := e.slm.Updates(); n != e.staticAt {
			e.cm.LoadStatic(e.slm.Map())
			e.staticAt = n
		}
	}
	cmStats := e.cm.Update(e.pose, scan)
	cmWork := CostmapWork(cmStats.Total())
	e.counter.Account(NodeCostmap, cmWork)
	cmHost := e.placement.Of(NodeCostmap)
	tCost := e.platforms[cmHost].ExecTime(cmWork, 1)
	e.prof.RecordProc(NodeCostmap, tCost)
	e.tel.NodeExec(NodeCostmap, string(cmHost), now, tCost, 1)
	if cmHost == HostLGV {
		localWork = localWork.Add(cmWork)
		localSegs[nLocal] = vdpSeg{NodeCostmap, cmHost, tCost}
		nLocal++
	} else {
		remoteSegs[nRemote] = vdpSeg{NodeCostmap, cmHost, tCost}
		nRemote++
	}

	// --- Goal selection and global planning. -------------------------------
	e.updateGoalAndPath(now, &localWork)

	// --- Path Tracking. -----------------------------------------------------
	// Latency compensation: the command will apply one VDP makespan from
	// now, so track from the pose the robot will have reached by then
	// (standard practice; without it a slow local pipeline oscillates).
	tkHost := e.placement.Of(NodeTracking)
	lookahead := e.prof.VDP(e.placement).Total()
	if lookahead > 1.0 {
		lookahead = 1.0
	}
	trackPose := e.w.Robot.Vel.Integrate(e.pose, lookahead)
	in := tracker.Input{
		Pose: trackPose, Vel: e.w.Robot.Vel, Path: e.path,
		Costmap: e.cm, MaxVCap: e.vmax,
	}
	threads := 1
	if tkHost != HostLGV && e.threadsNow > 1 {
		threads = e.threadsNow
	}
	// Execution threads may be overridden independently of the modeled
	// (billed) thread count: pooled kernels are positionally partitioned,
	// so any KernelThreads × KernelPartition choice must not perturb the
	// mission — the determinism invariant depends on exactly that.
	execThreads := threads
	if cfg.KernelThreads > 0 {
		execThreads = cfg.KernelThreads
	}
	var cmd geom.Twist
	var out tracker.Output
	var err error
	if e.havePth {
		if execThreads > 1 {
			out, err = e.tk.PlanParallel(in, execThreads, cfg.KernelPartition)
		} else {
			out, err = e.tk.Plan(in)
		}
		if err != nil {
			cmd = e.tk.RecoveryCmd(trackPose, e.path)
		} else {
			cmd = out.Cmd
		}
	}
	tkWork := TrackingWork(out.Ops)
	e.counter.Account(NodeTracking, tkWork)
	tTrack := e.platforms[tkHost].ExecTime(tkWork, threads)
	e.prof.RecordProc(NodeTracking, tTrack)
	e.tel.NodeExec(NodeTracking, string(tkHost), now, tTrack, threads)
	if tkHost == HostLGV {
		localWork = localWork.Add(tkWork)
		localSegs[nLocal] = vdpSeg{NodeTracking, tkHost, tTrack}
		nLocal++
	} else {
		remoteSegs[nRemote] = vdpSeg{NodeTracking, tkHost, tTrack}
		nRemote++
	}

	// --- Velocity Multiplexer (always on the LGV: it owns the motors). -----
	muxWork := MuxWork()
	e.counter.Account(NodeMux, muxWork)
	tMux := e.platforms[HostLGV].ExecTime(muxWork, 1)
	e.prof.RecordProc(NodeMux, tMux)
	e.tel.NodeExec(NodeMux, string(HostLGV), now, tMux, 1)
	localWork = localWork.Add(muxWork)
	localSegs[nLocal] = vdpSeg{NodeMux, HostLGV, tMux}
	nLocal++

	// --- Deliver the command along the VDP. --------------------------------
	robotProc := tMux
	remoteProc := 0.0
	if cmHost == HostLGV {
		robotProc += tCost
	} else {
		remoteProc += tCost
	}
	if tkHost == HostLGV {
		robotProc += tTrack
	} else {
		remoteProc += tTrack
	}

	var downLat, downQueue float64
	delivered := false
	tickEnd := now
	if vdpRemote {
		// The velocity command rides the wireless link back down.
		readyAt := now + upLat + remoteProc
		arrive, drop, dqd := e.link.SendDirDetail(readyAt, cmdBytes, netsim.DirDown)
		e.msgsSent++
		if drop {
			e.msgsDropped++
			e.tel.Drop(readyAt, "cmd_vel", "downlink")
			e.noteMiss(now)
			tr.Add(tickTrace, tickRoot, "downlink_drop", string(HostLGV), "net",
				spans.Mark, readyAt, readyAt)
			tickEnd = readyAt // the makespan ends where the command was lost
		} else {
			downLat = arrive - readyAt
			downQueue = dqd
			e.prof.RecordRTT(upLat + downLat)
			e.tel.Transfer(readyAt, arrive, "cmd_vel", string(HostLGV), cmdBytes)
			e.pendingCmds = append(e.pendingCmds,
				pendingCmd{at: arrive + robotProc, cmd: cmd, trace: tickTrace, parent: tickRoot})
			e.safety.RemoteHit()
			if dqd > 0 {
				tr.Add(tickTrace, tickRoot, "downlink_queue", string(e.placement.Remote), "net",
					spans.Queue, readyAt, readyAt+dqd)
			}
			tr.Add(tickTrace, tickRoot, "downlink", string(HostLGV), "net",
				spans.Transport, readyAt+dqd, arrive)
			delivered = true
			tickEnd = arrive + robotProc
		}
		if tickTrace != 0 {
			// Remote VDP compute runs between uplink arrival and the
			// downlink send; robot-side compute after command arrival.
			cursor := now + upLat
			for i := 0; i < nRemote; i++ {
				sg := remoteSegs[i]
				tr.Add(tickTrace, tickRoot, sg.node, string(sg.host), sg.node,
					spans.Compute, cursor, cursor+sg.dur)
				cursor += sg.dur
			}
			if delivered {
				cursor = tickEnd - robotProc
				for i := 0; i < nLocal; i++ {
					sg := localSegs[i]
					tr.Add(tickTrace, tickRoot, sg.node, string(sg.host), sg.node,
						spans.Compute, cursor, cursor+sg.dur)
					cursor += sg.dur
				}
			}
		}
	} else {
		e.pendingCmds = append(e.pendingCmds,
			pendingCmd{at: now + robotProc, cmd: cmd, trace: tickTrace, parent: tickRoot})
		delivered = true
		tickEnd = now + robotProc
		if tickTrace != 0 {
			cursor := now
			for i := 0; i < nLocal; i++ {
				sg := localSegs[i]
				tr.Add(tickTrace, tickRoot, sg.node, string(sg.host), sg.node,
					spans.Compute, cursor, cursor+sg.dur)
				cursor += sg.dur
			}
		}
	}
	// Root span: [tick start, command delivery] — the VDP makespan. Its
	// compute/queue/transport children sum to it by construction.
	tr.Record(spans.Span{Trace: tickTrace, ID: tickRoot, Name: "tick",
		Host: string(HostLGV), Kind: spans.Tick, Start: now, End: tickEnd})

	if delivered {
		e.lastCompute = robotProc + remoteProc
		if vdpRemote {
			e.lastQueue = upQueue + downQueue
			e.lastTranspt = (upLat - upQueue) + (downLat - downQueue)
		}
	}

	// Surface the same decomposition through the obs registry so p50/p95
	// per segment show up in snapshots and the post-mortem.
	if e.tel != nil && delivered {
		e.tel.Observe(obs.MCritComputeSeconds, string(HostLGV), robotProc)
		if remoteProc > 0 {
			e.tel.Observe(obs.MCritComputeSeconds, string(e.placement.Remote), remoteProc)
		}
		if vdpRemote {
			e.tel.Observe(obs.MCritQueueSeconds, "up", upQueue)
			e.tel.Observe(obs.MCritTransportSeconds, "up", upLat-upQueue)
			e.tel.Observe(obs.MCritQueueSeconds, "down", downQueue)
			e.tel.Observe(obs.MCritTransportSeconds, "down", downLat-downQueue)
		}
	}

	// --- Pacing: a busy on-board pipeline delays the next tick; an -------
	// --- offloaded pipeline keeps the 5 Hz rate (the server pipelines). --
	e.nextControl = now + math.Max(ControlPeriod, robotProc)

	// --- Velocity cap from the profiled VDP makespan (Eq. 2c). -------------
	e.vmax = e.velocityCap(e.prof.VDP(e.placement).Total())
	e.vmaxSum += e.vmax
	e.vmaxCount++

	// Server resource accounting (§VIII-E): while any node runs remotely,
	// the deployment reserves `threads` server cores for this robot — the
	// quantity shedding reduces ("save the financial cost and resource
	// usage on the cloud").
	if vdpRemote || remoteProc > 0 {
		e.coreSeconds += float64(threads) * (e.nextControl - now)
	}
	e.adjustParallelism(now)

	e.lastCmWork, e.lastTkWork = cmWork, tkWork
	e.finishTick(now, localWork, upLat+remoteProc+downLat)
}

// adjustParallelism implements the §VIII-E adaptivity analysis: track how
// much of the Eq. 2c velocity cap the robot actually realizes; when the
// environment (obstacles, turns) keeps the real velocity well under the
// cap, extra paid threads buy nothing, so shed them — and restore them
// when the robot runs free again.
func (e *engine) adjustParallelism(now float64) {
	const alpha = 0.05
	if e.vmax > 1e-6 {
		ratio := math.Abs(e.w.Robot.Vel.V) / e.vmax
		if ratio > 1 {
			ratio = 1
		}
		e.velRatioEMA += alpha * (ratio - e.velRatioEMA)
	}
	if !e.cfg.ShedParallelism || now < e.nextAdjust {
		return
	}
	e.nextAdjust = now + 5
	maxThreads := e.cfg.Deployment.Threads
	switch {
	case e.velRatioEMA < 0.7 && e.threadsNow > 1:
		e.threadsNow /= 2
		e.threadAdj++
	case e.velRatioEMA > 0.9 && e.threadsNow < maxThreads:
		e.threadsNow *= 2
		if e.threadsNow > maxThreads {
			e.threadsNow = maxThreads
		}
		e.threadAdj++
	}
}

// stepSLAM advances the SLAM node respecting its own processing budget:
// a busy (slow, local) SLAM skips scans and the robot dead-reckons on
// odometry meanwhile — exactly the stale-pose failure mode the paper's
// cloud acceleration addresses.
func (e *engine) stepSLAM(now float64, delta geom.Pose, scan *sensor.Scan, remote, upDropped bool, localWork *hostsim.Work, tickTrace, tickRoot uint64) geom.Pose {
	if now < e.slamBusyUntil || (remote && upDropped) {
		e.pendingSlamDelta = e.pendingSlamDelta.Compose(delta)
		return e.pose.Compose(delta) // dead-reckon while SLAM is unavailable
	}
	fullDelta := e.pendingSlamDelta.Compose(delta)
	e.pendingSlamDelta = geom.Pose{}

	threads := 1
	if remote && e.threadsNow > 1 {
		threads = e.threadsNow
	}
	execThreads := threads
	if e.cfg.KernelThreads > 0 {
		execThreads = e.cfg.KernelThreads
	}
	var st slam.UpdateStats
	if execThreads > 1 {
		st = e.slm.UpdateParallel(fullDelta, scan, execThreads, e.cfg.KernelPartition)
	} else {
		st = e.slm.Update(fullDelta, scan)
	}
	w := SlamWork(st.MatchOps, st.IntegrateOps, st.WeightOps, st.CopyOps)
	e.counter.Account(NodeSLAM, w)
	host := e.placement.Of(NodeSLAM)
	exec := e.platforms[host].ExecTime(w, threads)
	e.prof.RecordProc(NodeSLAM, exec)
	e.tel.NodeExec(NodeSLAM, string(host), now, exec, threads)
	e.tr.Add(tickTrace, tickRoot, NodeSLAM, string(host), NodeSLAM,
		spans.Aux, now, now+exec)
	if host == HostLGV {
		*localWork = localWork.Add(w)
		e.slamBusyUntil = now + exec
	} else {
		e.slamBusyUntil = now + exec // server-side latency also gates scan intake
	}
	return e.slm.BestPose()
}

// updateGoalAndPath refreshes the exploration goal and the global path.
// Exploration goals the planner cannot route to — frontiers in sensor
// shadows — are blacklisted so the mission never wedges on one, and a
// goal the robot makes no progress toward for a while is abandoned too.
func (e *engine) updateGoalAndPath(now float64, localWork *hostsim.Work) {
	cfg := e.cfg
	if cfg.Workload == CoverageWithMap {
		// The sweep window slides every tick; no periodic replanning.
		e.updateCoverage(now, localWork)
		return
	}
	if now < e.nextReplan && e.havePth && !e.stuckOnGoal(now) {
		return
	}
	e.nextReplan = now + replanPeriod

	if cfg.Workload == NavigationWithMap {
		e.planTo(now, e.route[0], localWork)
		return
	}
	if e.slm.Updates() == 0 {
		return
	}

	m := e.slm.Map()
	cands, res := explore.Candidates(m, e.pose.Pos, e.exCfg)
	w := ExploreWork(res.Ops)
	e.counter.Account(NodeExploration, w)
	*localWork = localWork.Add(w) // exploration is T2: stays local
	if e.tel != nil {             // exec time is computed for telemetry only
		e.tel.NodeExec(NodeExploration, string(HostLGV), now,
			e.platforms[HostLGV].ExecTime(w, 1), 1)
	}

	tried := 0
	for _, g := range cands {
		if e.isBlacklisted(g) {
			continue
		}
		if tried >= 3 {
			break // bound per-tick planning work
		}
		tried++
		if e.planTo(now, g, localWork) {
			if g != e.exGoal || !e.haveEx {
				e.exGoal, e.haveEx = g, true
				e.goalSince, e.goalStartPos = now, e.w.Robot.Pose.Pos
			}
			return
		}
		e.blacklist(g)
	}
	// Nothing plannable right now: stop chasing a goal; frontier churn on
	// the next SLAM updates usually opens a route.
	e.haveEx = false
}

// updateCoverage plans the boustrophedon sweep once, then advances the
// sliding path window the tracker follows. The window spans from the
// previous waypoint to a few waypoints ahead so the carrot cannot alias
// onto an adjacent sweep lane 25 cm away.
func (e *engine) updateCoverage(now float64, localWork *hostsim.Work) {
	if len(e.covPath) == 0 {
		path, st, err := coverage.Plan(e.cm, e.pose.Pos, coverage.DefaultConfig())
		w := CoverageWork(st.Ops)
		e.counter.Account(NodeCoverage, w)
		*localWork = localWork.Add(w) // coverage planning is T2: stays local
		tPlan := e.platforms[HostLGV].ExecTime(w, 1)
		e.prof.RecordProc(NodeCoverage, tPlan)
		e.tel.NodeExec(NodeCoverage, string(HostLGV), now, tPlan, 1)
		if err != nil {
			return
		}
		e.covPath = path
		e.covIdx = 1
		e.covLastPos = e.w.Robot.Pose.Pos
		e.covVisited = append(e.covVisited, e.covLastPos)
	}
	// Sample the trajectory for the Covered metric.
	if pos := e.w.Robot.Pose.Pos; pos.Dist(e.covLastPos) > 0.1 {
		e.covVisited = append(e.covVisited, pos)
		e.covLastPos = pos
	}
	// Advance past reached waypoints. The tolerance stays below the lane
	// spacing so it cannot skip to an adjacent lane, but above the wall
	// inflation band where the local planner slows to a crawl.
	for e.covIdx < len(e.covPath) && e.pose.Pos.Dist(e.covPath[e.covIdx]) < 0.3 {
		e.covIdx++
	}
	if e.covIdx >= len(e.covPath) {
		e.havePth = false
		return
	}
	// Track exactly the active segment: a wider window would let the
	// carrot alias onto an adjacent sweep lane only one tool-width away.
	e.path = e.covPath[e.covIdx-1 : e.covIdx+1]
	e.havePth = true
}

// planTo plans a global path to the goal, accounting the planner's work.
func (e *engine) planTo(now float64, goal geom.Vec2, localWork *hostsim.Work) bool {
	res, err := e.gp.Plan(e.cm, e.pose.Pos, goal)
	w := PlanWork(res.Expanded)
	e.counter.Account(NodePlanner, w)
	*localWork = localWork.Add(w) // planner is T2: stays local
	tPlan := e.platforms[HostLGV].ExecTime(w, 1)
	e.prof.RecordProc(NodePlanner, tPlan)
	e.tel.NodeExec(NodePlanner, string(HostLGV), now, tPlan, 1)
	if err == nil && len(res.Path) >= 2 {
		e.path = res.Path
		e.havePth = true
		return true
	}
	return false
}

// stuckOnGoal reports whether the robot has made no progress toward the
// current exploration goal for a full stuck window; the goal is then
// blacklisted and goal selection reruns.
func (e *engine) stuckOnGoal(now float64) bool {
	const window, minProgress = 12.0, 0.15
	if e.cfg.Workload != ExplorationNoMap || !e.haveEx {
		return false
	}
	if now-e.goalSince < window {
		return false
	}
	if e.w.Robot.Pose.Pos.Dist(e.goalStartPos) >= minProgress {
		e.goalSince, e.goalStartPos = now, e.w.Robot.Pose.Pos
		return false
	}
	e.blacklist(e.exGoal)
	e.haveEx = false
	return true
}

func (e *engine) isBlacklisted(g geom.Vec2) bool {
	const r2 = 0.35 * 0.35
	for _, b := range e.exBlacklist {
		if b.DistSq(g) < r2 {
			return true
		}
	}
	return false
}

func (e *engine) blacklist(g geom.Vec2) {
	if !e.isBlacklisted(g) {
		e.exBlacklist = append(e.exBlacklist, g)
	}
}

// sendProbe runs the heartbeat: a small probe uplink echoed by the
// server. Echo arrivals feed the bandwidth, latency and RTT meters that
// Algorithm 2, Algorithm 1 and the latency-baseline ablation read. The
// probe runs at a fixed rate from the main loop — decoupled from the
// pipeline's pacing, so a slow on-board pipeline cannot masquerade as a
// failing network.
func (e *engine) sendProbe(now float64) {
	e.prof.RecordDirection(e.link.Direction())
	upArrive, upDrop := e.link.SendDir(now, probeBytes, netsim.DirUp)
	e.meter.AddTransmit(probeBytes)
	if upDrop {
		e.tel.Drop(now, "probe", "uplink")
		return
	}
	downArrive, downDrop := e.link.SendDir(upArrive, probeBytes, netsim.DirDown)
	if downDrop {
		e.tel.Drop(upArrive, "probe", "downlink")
		return
	}
	e.prof.RecordPacket(downArrive, downArrive-now)
	e.prof.RecordRTT(downArrive - now)
	e.tel.Probe(now, downArrive-now)
}

// finishTick accounts local computation energy, then hands the tick to
// observeTick, which feeds the per-tick consumers, runs the adaptive
// controller and records the trace point.
func (e *engine) finishTick(now float64, localWork hostsim.Work, pipelineLat float64) {
	// Energy for cycles retired on board, capped at the Pi's capacity
	// over the tick interval.
	pi := e.platforms[HostLGV]
	interval := math.Max(e.nextControl-now, ControlPeriod)
	budget := pi.Speed() * 1e9 * float64(pi.Cores) * interval
	e.meter.AddCycles(math.Min(localWork.Total(), budget))

	e.tel.TickSpan(now, e.nextControl, pipelineLat)
	e.observeTick(now, pipelineLat)
}

// noteMiss records one missed remote VDP tick (scan lost uplink or
// command lost downlink) and trips the failover once the consecutive-miss
// limit is reached. It runs before finishTick's adapt pass so the pull
// home is attributed to the failover path, not the Algorithm 2 gate.
func (e *engine) noteMiss(now float64) {
	if e.cfg.Deployment.Mode != Adaptive {
		return
	}
	e.safety.Miss()
	if e.safety.ShouldFailover() {
		e.failover(now)
	}
}

// failover pulls every remote node home and re-executes locally: the
// cloud VDP has stalled for FailoverMisses consecutive ticks, which
// Algorithm 2 alone cannot see when the watchdog-stopped robot's signal
// direction has decayed to zero. A hold-down window then vetoes going
// remote again so one failover is not immediately reversed.
func (e *engine) failover(now float64) {
	misses := e.safety.Misses()
	e.safety.TripFailover(now)

	nodes := make([]string, 0, len(e.placement.Host))
	for n := range e.placement.Host {
		nodes = append(nodes, n)
	}
	desired := NewPlacement(nodes)
	desired.Remote = e.placement.Remote
	desired.Threads = e.placement.Threads
	if placementEqual(desired, e.placement) {
		return
	}

	bw := e.prof.Bandwidth(now)
	dir := e.prof.Direction()
	from, to := remoteSetDesc(e.placement), remoteSetDesc(desired)
	e.placement = desired
	e.switches++
	e.pauseUntil = now + 0.3
	e.lastRemoteOK = false
	e.decisions = append(e.decisions, AdaptDecision{
		T: now, Reason: "failover",
		Bandwidth: bw, Direction: dir, RemoteOK: false,
		From: from, To: to,
	})
	e.recordDecision(e.decisions[len(e.decisions)-1])
	e.tel.Failover(now, misses, from+" -> "+to)
	e.tel.Switch(now, bw, dir, 0, false, from+" -> "+to)
	e.flightDump("failover", from+" -> "+to, now)
	e.tr.Add(e.tr.NewTrace(), 0, "failover", string(HostLGV), "safety",
		spans.Mark, now, now)
}

// adapt applies Algorithm 2 (network gating) and Algorithm 1 (node
// selection) and performs migrations with their state-transfer cost.
func (e *engine) adapt(now float64) {
	// Warm-up: the bandwidth window must fill before its rate means
	// anything, else the first tick's rate of 1 msg/s would trip the
	// controller spuriously.
	if now < 2*e.prof.bw.Window {
		return
	}
	// Register roaming handoffs with the safety controller, then freeze
	// adaptation while a handoff hold is active: the re-association dip
	// and the reset direction estimate are transients that must not flap
	// placement. Failover (noteMiss → failover) bypasses adapt entirely,
	// so a link that dies across a handoff still pulls home on schedule.
	if ht := e.link.HandoffTimes(); len(ht) > e.handoffSeen {
		for _, t := range ht[e.handoffSeen:] {
			e.safety.NoteHandoff(t)
		}
		e.handoffSeen = len(ht)
	}
	if e.safety.HandoffHoldActive(now) {
		return
	}
	bw := e.prof.Bandwidth(now)
	dir := e.prof.Direction()
	remoteOK := e.netctl.Update(bw, dir)
	if remoteOK && e.safety.HoldActive(now) {
		// Post-failover hold-down: the bandwidth estimate may still be
		// optimistic right after a pull home; hysteresis wins.
		remoteOK = false
	}
	if remoteOK != e.lastRemoteOK {
		e.tel.Alg2(now, bw, dir, remoteOK)
		e.lastRemoteOK = remoteOK
	}

	var desired Placement
	var localVDP, cloudVDP float64
	reason := "alg2-gate"
	if !remoteOK {
		nodes := make([]string, 0, len(e.placement.Host))
		for n := range e.placement.Host {
			nodes = append(nodes, n)
		}
		desired = NewPlacement(nodes)
		desired.Remote = e.placement.Remote
		desired.Threads = e.placement.Threads
	} else {
		classes := Classify(e.counter)
		if len(classes) == 0 {
			return
		}
		localVDP, cloudVDP = e.estimateVDPs()
		desired = e.strategy.Decide(classes, localVDP, cloudVDP)
		reason = "alg1-" + e.strategy.Goal.String()
	}

	if placementEqual(desired, e.placement) {
		return
	}
	// Migration: ship the mutable node state (costmap snapshot and, for
	// exploration, the SLAM maps) and pause the pipeline briefly.
	w, h := e.cm.Dims()
	stateBytes := float64(w * h)
	if e.slm != nil {
		stateBytes += float64(e.cfg.Map.Width * e.cfg.Map.Height)
	}
	goingRemote := len(desired.RemoteNodes()) > len(e.placement.RemoteNodes())
	if goingRemote {
		// Uplink costs energy; downlink (coming home) is free for the LGV.
		e.meter.AddTransmit(stateBytes)
		e.bytesUp += stateBytes
	}
	from, to := remoteSetDesc(e.placement), remoteSetDesc(desired)
	e.placement = desired
	e.switches++
	e.pauseUntil = now + 0.3
	e.decisions = append(e.decisions, AdaptDecision{
		T: now, Reason: reason,
		Bandwidth: bw, Direction: dir, RemoteOK: remoteOK,
		LocalVDP: localVDP, CloudVDP: cloudVDP,
		From: from, To: to, StateBytes: stateBytes,
	})
	e.recordDecision(e.decisions[len(e.decisions)-1])
	e.tel.Switch(now, bw, dir, stateBytes,
		len(desired.RemoteNodes()) > 0, from+" -> "+to)
}

// estimateVDPs returns the Algorithm 1 inputs: the VDP makespan if all
// VDP nodes ran locally, and if T3 ran on the remote server (including
// the profiled round-trip time).
func (e *engine) estimateVDPs() (localVDP, cloudVDP float64) {
	pi := e.platforms[HostLGV]
	srv := e.platforms[e.strategy.Remote]
	cm := e.lastCmWork
	tk := e.lastTkWork
	// Prefer profiled times over model values where available; on a cold
	// profiler a silent 0 would bias the comparison, so fall back to the
	// platform model (mux) or a pessimistic full control period (RTT).
	muxTime := pi.ExecTime(MuxWork(), 1)
	if t, ok := e.prof.ProcTimeOK(NodeMux); ok {
		muxTime = t
	}
	rtt, ok := e.prof.RTTOK()
	if !ok {
		rtt = ControlPeriod
	}
	localVDP = pi.ExecTime(cm, 1) + pi.ExecTime(tk, 1) + muxTime
	cloudVDP = srv.ExecTime(cm, 1) + srv.ExecTime(tk, e.strategy.Threads) +
		muxTime + rtt
	return localVDP, cloudVDP
}

func placementEqual(a, b Placement) bool {
	if len(a.Host) != len(b.Host) {
		return false
	}
	for k, v := range a.Host {
		if b.Host[k] != v {
			return false
		}
	}
	return true
}
