// Package tracker implements the Path Tracking node: a Dynamic Window /
// Trajectory Rollout local planner. It samples velocity commands inside
// the robot's dynamic window, forward-simulates one trajectory per
// sample, scores each against the global path, the goal, obstacle
// proximity and speed, discards infeasible trajectories, and emits the
// velocity of the best-scoring one.
//
// The paper identifies Path Tracking as both an Energy-Critical Node and
// the heart of the Velocity-Dependent Path, and accelerates it in the
// cloud by parallelizing the scoring loop over a thread pool (Fig. 5).
// PlanParallel is that algorithm: the M trajectories are partitioned
// into N blocks, each scored by a worker, and the arg-min is reduced
// deterministically.
package tracker

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lgvoffload/internal/costmap"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/pool"
)

// Config parameterizes the tracker.
type Config struct {
	MaxV, MinV float64 // linear velocity limits, m/s
	MaxW       float64 // angular velocity limit, rad/s
	AccV, AccW float64 // acceleration limits for the dynamic window
	VSamples   int     // linear velocity samples
	WSamples   int     // angular velocity samples
	SimTime    float64 // forward simulation horizon, s
	SimDt      float64 // forward simulation step, s
	Period     float64 // control period (window extent), s

	GoalWeight     float64
	PathWeight     float64
	ObstacleWeight float64
	SpeedWeight    float64

	CarrotDist float64 // how far along the path the local goal sits, m
}

// DefaultConfig returns gains tuned for the Turtlebot3.
func DefaultConfig() Config {
	return Config{
		MaxV: 0.22, MinV: 0.0, MaxW: 2.0,
		AccV: 2.5, AccW: 3.2,
		VSamples: 10, WSamples: 20,
		SimTime: 1.2, SimDt: 0.1, Period: 0.2,
		GoalWeight: 1.0, PathWeight: 0.6, ObstacleWeight: 0.02, SpeedWeight: 0.3,
		CarrotDist: 0.8,
	}
}

// NumTrajectories returns M, the number of simulated trajectories.
func (c Config) NumTrajectories() int { return c.VSamples * c.WSamples }

// Input is one tracking invocation.
type Input struct {
	Pose    geom.Pose
	Vel     geom.Twist
	Path    []geom.Vec2      // global path from the planner
	Costmap *costmap.Costmap // current costmap
	MaxVCap float64          // dynamic cap from Eq. 2c (0 = no cap)
}

// Output is the tracking decision.
type Output struct {
	Cmd       geom.Twist // best velocity command
	Score     float64    // its cost (lower is better)
	Evaluated int        // trajectories simulated
	Discarded int        // trajectories discarded as infeasible
	Ops       int        // simulation steps executed (work measure)
}

// ErrAllBlocked means every sampled trajectory collides; the caller
// should stop and rotate toward the path (recovery behaviour).
var ErrAllBlocked = errors.New("tracker: all trajectories infeasible")

// Tracker holds the configuration plus the persistent-pool plumbing
// that lets the steady-state planning loop run allocation-free: one
// pre-built worker closure, reusable per-worker result slots, the
// heading and footprint tables, and the current invocation's parameters
// staged in a struct field. plan guards that staging area with a mutex,
// so a Tracker is safe to call from multiple goroutines (invocations
// serialize).
type Tracker struct {
	cfg   Config
	steps int // rollout steps per trajectory

	mu      sync.Mutex
	pl      *pool.Pool
	runFn   func(w int)
	results []workerResult
	// headings[wi*steps+s] is the sine and cosine of the heading that
	// step s of every rollout with W sample wi starts from. A rollout's
	// headings depend only on its angular velocity, so plan fills the
	// table once per invocation and the workers only read it.
	headings []sinCos
	// ws[wi] is W sample wi's angular velocity in the invocation's
	// dynamic window; fillHeadings fills it beside the heading table.
	ws []float64
	// fp folds the footprint window of every center cell the rollouts
	// can reach. plan fills it from the invocation's costmap before the
	// workers run, into a buffer it keeps, and the workers only read it.
	fp  costmap.FootprintTable
	cur struct {
		in         Input
		carrot     geom.Vec2
		vLo, vHi   float64 // the dynamic window's linear velocity bounds
		m, threads int
		part       Partition
	}
}

type sinCos struct{ sin, cos float64 }

// New returns a tracker.
func New(cfg Config) *Tracker {
	if cfg.VSamples < 1 || cfg.WSamples < 1 {
		panic(fmt.Sprintf("tracker: bad sample counts %dx%d", cfg.VSamples, cfg.WSamples))
	}
	steps := max(int(cfg.SimTime/cfg.SimDt), 0)
	t := &Tracker{cfg: cfg, steps: steps, pl: pool.Shared(),
		headings: make([]sinCos, cfg.WSamples*steps), ws: make([]float64, cfg.WSamples)}
	t.runFn = func(w int) { t.results[w] = t.scoreSpan(w) }
	return t
}

// Config returns the tracker configuration.
func (t *Tracker) Config() Config { return t.cfg }

// maxV returns the linear velocity limit under the dynamic cap.
func (t *Tracker) maxV(vcap float64) float64 {
	if vcap > 0 && vcap < t.cfg.MaxV {
		return vcap
	}
	return t.cfg.MaxV
}

// speeds returns the dynamic window's linear velocity bounds around the
// current velocity curV, under the limit maxV.
func (t *Tracker) speeds(curV, maxV float64) (vLo, vHi float64) {
	c := t.cfg
	vLo = math.Max(c.MinV, curV-c.AccV*c.Period)
	vHi = math.Min(maxV, curV+c.AccV*c.Period)
	if vHi < vLo {
		vHi = vLo
	}
	return vLo, vHi
}

// candidate enumerates sample i's velocity pair inside the invocation's
// dynamic window, which plan stages once (cur.vLo, cur.vHi and ws).
func (t *Tracker) candidate(i int) geom.Twist {
	c := t.cfg
	vi, wi := i/c.WSamples, i%c.WSamples
	v := t.cur.vLo
	if c.VSamples > 1 {
		v = t.cur.vLo + (t.cur.vHi-t.cur.vLo)*float64(vi)/float64(c.VSamples-1)
	}
	return geom.Twist{V: v, W: t.ws[wi]}
}

// angular returns W sample wi's angular velocity inside the dynamic
// window around the current angular velocity curW.
func (t *Tracker) angular(wi int, curW float64) float64 {
	c := t.cfg
	wLo := math.Max(-c.MaxW, curW-c.AccW*c.Period)
	if c.WSamples == 1 {
		return wLo
	}
	wHi := math.Min(c.MaxW, curW+c.AccW*c.Period)
	return wLo + (wHi-wLo)*float64(wi)/float64(c.WSamples-1)
}

// fillHeadings computes the W samples' angular velocities around the
// current angular velocity curW, and the heading table for rollouts
// starting at heading theta: each W sample's headings follow its arc
// from theta, one Sincos per step.
func (t *Tracker) fillHeadings(theta, curW float64) {
	for wi := range t.ws {
		t.ws[wi] = t.angular(wi, curW)
		arc := geom.Twist{W: t.ws[wi]}.Arc(t.cfg.SimDt)
		th := theta
		row := t.headings[wi*t.steps:][:t.steps]
		for s := range row {
			row[s].sin, row[s].cos = math.Sincos(th)
			th = arc.Heading(th)
		}
	}
}

// carrot returns the local goal: the path point CarrotDist beyond the
// closest point on the path to the robot.
func (t *Tracker) carrot(pose geom.Pose, path []geom.Vec2) geom.Vec2 {
	if len(path) == 0 {
		return pose.Pos
	}
	if len(path) == 1 {
		return path[0]
	}
	// Find the closest segment.
	bestD, bestI, bestPt := math.Inf(1), 0, path[0]
	for i := 0; i+1 < len(path); i++ {
		seg := geom.Segment{A: path[i], B: path[i+1]}
		pt := seg.ClosestPoint(pose.Pos)
		if d := pt.DistSq(pose.Pos); d < bestD {
			bestD, bestI, bestPt = d, i, pt
		}
	}
	// Walk CarrotDist forward from the closest point.
	remain := t.cfg.CarrotDist
	cur := bestPt
	for i := bestI; i+1 < len(path); i++ {
		end := path[i+1]
		d := cur.Dist(end)
		if d >= remain {
			return cur.Lerp(end, remain/d)
		}
		remain -= d
		cur = end
	}
	return path[len(path)-1]
}

// scoreOne simulates and scores candidate i. It returns the cost
// (+Inf if infeasible) and the number of simulation steps executed.
// Each step moves the position along the candidate's arc from the
// heading table's sine and cosine, which is Arc.Apply without its
// Sincos.
func (t *Tracker) scoreOne(i int, in Input, carrot geom.Vec2) (cost float64, steps int) {
	c := t.cfg
	tw := t.candidate(i)
	arc := tw.Arc(c.SimDt)
	pos := in.Pose.Pos
	worstCell := uint8(0)
	wi := i % c.WSamples
	for _, h := range t.headings[wi*t.steps:][:t.steps] {
		pos = arc.Move(pos, h.sin, h.cos)
		steps++
		fc := t.fp.Cost(pos)
		if fc >= costmap.InscribedCost {
			return math.Inf(1), steps // collision or inside inscribed zone
		}
		if fc > worstCell {
			worstCell = fc
		}
	}
	goalDist := pos.Dist(carrot)
	pathDist := distToPath(pos, in.Path)
	return c.GoalWeight*goalDist +
		c.PathWeight*pathDist +
		c.ObstacleWeight*float64(worstCell) -
		c.SpeedWeight*tw.V, steps
}

// distToPath returns the distance from p to the nearest path segment:
// the minimum of every segment's Segment.Dist, to the bit. It calls
// Hypot only for a segment whose squared distance is within a relative
// 2⁻⁴⁰ of the smallest square so far. A square and a Hypot each carry a
// few ulps of relative error, so a segment further out than that is
// further by Hypot too than the segment that set the smallest square.
// While the smallest square is below 2⁻⁹⁰⁰, where a square can lose
// its bits to underflow, every segment takes Hypot; where squares
// overflow, the bound is +Inf and takes every segment too. A NaN square
// means a NaN coordinate, whose Hypot is NaN or +Inf and so never the
// minimum.
func distToPath(p geom.Vec2, path []geom.Vec2) float64 {
	if len(path) == 0 {
		return 0
	}
	if len(path) == 1 {
		return p.Dist(path[0])
	}
	minSq, best := math.Inf(1), math.Inf(1)
	for i := 0; i+1 < len(path); i++ {
		pt := (geom.Segment{A: path[i], B: path[i+1]}).ClosestPoint(p)
		sq := p.DistSq(pt)
		if sq < minSq {
			minSq = sq
		}
		if sq <= minSq*(1+0x1p-40) || minSq < 0x1p-900 {
			if d := p.Dist(pt); d < best {
				best = d
			}
		}
	}
	return best
}

// Plan scores all trajectories serially and returns the best command.
func (t *Tracker) Plan(in Input) (Output, error) {
	return t.plan(in, 1, Block)
}

// Partition selects how PlanParallel splits trajectories over workers.
// It is the shared pool.Partition scheme: Block gives each worker a
// contiguous chunk (the paper's Fig. 5), Interleaved strides (ablation).
type Partition = pool.Partition

const (
	Block       = pool.Block
	Interleaved = pool.Interleaved
)

// PlanParallel scores trajectories with a pool of `threads` workers,
// implementing the paper's parallel path tracking (Fig. 5). The result
// is identical to Plan regardless of thread count or partitioning.
func (t *Tracker) PlanParallel(in Input, threads int, part Partition) (Output, error) {
	return t.plan(in, threads, part)
}

type workerResult struct {
	bestIdx  int
	bestCost float64
	steps    int
	discard  int
	eval     int
}

func (t *Tracker) plan(in Input, threads int, part Partition) (Output, error) {
	if in.Costmap == nil {
		return Output{}, errors.New("tracker: nil costmap")
	}
	m := t.cfg.NumTrajectories()
	if threads < 1 {
		threads = 1
	}
	if threads > m {
		threads = m
	}
	// Stage this invocation and fan out on the persistent pool. The
	// mutex makes the staged fields (cur, results) safe when callers
	// overlap; workers see them via the one pre-built closure.
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.results) < threads {
		t.results = make([]workerResult, threads)
	}
	t.results = t.results[:threads]
	t.cur.in, t.cur.carrot = in, t.carrot(in.Pose, in.Path)
	t.cur.m, t.cur.threads, t.cur.part = m, threads, part
	t.fillHeadings(in.Pose.Theta, in.Vel.W)
	t.cur.vLo, t.cur.vHi = t.speeds(in.Vel.V, t.maxV(in.MaxVCap))
	// A rollout moves at most its speed times its horizon from the pose.
	t.fp.Fill(in.Costmap, in.Pose.Pos, max(math.Abs(t.cur.vLo), math.Abs(t.cur.vHi))*float64(t.steps)*t.cfg.SimDt)
	t.pl.Run(threads, t.runFn)
	// Drop references to the caller's path and costmap; the footprint
	// table keeps its costmap until the next plan.
	t.cur.in = Input{}

	out := Output{Score: math.Inf(1)}
	bestIdx := -1
	for _, r := range t.results {
		out.Ops += r.steps
		out.Evaluated += r.eval
		out.Discarded += r.discard
		if r.bestIdx < 0 {
			continue
		}
		if r.bestCost < out.Score || (r.bestCost == out.Score && r.bestIdx < bestIdx) {
			out.Score, bestIdx = r.bestCost, r.bestIdx
		}
	}
	if bestIdx < 0 {
		return out, ErrAllBlocked
	}
	out.Cmd = t.candidate(bestIdx)
	return out, nil
}

// scoreSpan simulates and scores worker w's trajectory span, reducing to
// the span's arg-min. Assignment is positional (Partition.Bounds), so the
// final reduction over workers is deterministic for any thread count.
func (t *Tracker) scoreSpan(w int) workerResult {
	r := workerResult{bestIdx: -1, bestCost: math.Inf(1)}
	start, end, step := t.cur.part.Bounds(t.cur.m, t.cur.threads, w)
	for i := start; i < end; i += step {
		cost, steps := t.scoreOne(i, t.cur.in, t.cur.carrot)
		r.steps += steps
		r.eval++
		if math.IsInf(cost, 1) {
			r.discard++
			continue
		}
		if cost < r.bestCost || (cost == r.bestCost && i < r.bestIdx) {
			r.bestCost, r.bestIdx = cost, i
		}
	}
	return r
}

// RecoveryCmd returns the in-place rotation used when all trajectories
// are blocked: rotate toward the carrot point.
func (t *Tracker) RecoveryCmd(pose geom.Pose, path []geom.Vec2) geom.Twist {
	target := t.carrot(pose, path)
	bearing := geom.AngleDiff(target.Sub(pose.Pos).Angle(), pose.Theta)
	w := geom.Clamp(bearing*2, -t.cfg.MaxW, t.cfg.MaxW)
	if math.Abs(w) < 0.3 {
		if w >= 0 {
			w = 0.3
		} else {
			w = -0.3
		}
	}
	return geom.Twist{V: 0, W: w}
}
