// Package slam implements the Localization(SLAM) node for the unknown-map
// workload: a Rao-Blackwellized particle filter in the style of GMapping
// (Grisetti et al.), the algorithm the paper offloads and accelerates.
// Each particle carries a pose hypothesis and its own occupancy grid map;
// an update applies the odometry motion model, refines each particle's
// pose by hill-climbing scan matching against its map (the scanMatch
// function that consumes 98% of SLAM time in the paper's measurement),
// reweights and normalizes (updateTreeWeights), resamples when the
// effective sample size collapses, and integrates the scan into each
// surviving particle's map.
//
// UpdateParallel is the paper's Fig. 6 algorithm: a pool of N workers
// each scan-matches M/N particles. The workers are persistent (see
// internal/pool) — pinned goroutines reused across control ticks rather
// than spawned per update — and work is assigned positionally, so the
// parallel filter produces byte-identical results to the serial one for
// any thread count (all randomness is drawn serially before the parallel
// section).
package slam

import (
	"math"
	"math/rand"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/pool"
	"lgvoffload/internal/sensor"
)

// Config parameterizes the filter.
type Config struct {
	NumParticles int

	// Map geometry for every particle's occupancy grid.
	MapW, MapH int
	Resolution float64
	Origin     geom.Vec2

	// Motion model noise (stddev per meter / radian of commanded motion).
	TransNoise float64
	RotNoise   float64

	// Scan matching.
	MatchIters   int     // hill-climbing refinement rounds
	SearchStep   float64 // initial translational step, m
	AngularStep  float64 // initial rotational step, rad
	BeamSkip     int     // match every k-th beam
	LikelihoodK  float64 // weight gain applied to match scores
	ResampleNeff float64 // resample when Neff/N drops below this
}

// DefaultConfig returns a configuration for the given map geometry with
// the paper's default particle count (30, the gmapping default).
func DefaultConfig(w, h int, res float64, origin geom.Vec2) Config {
	return Config{
		NumParticles: 30,
		MapW:         w, MapH: h, Resolution: res, Origin: origin,
		TransNoise: 0.05, RotNoise: 0.05,
		MatchIters: 5, SearchStep: 0.05, AngularStep: 0.03,
		BeamSkip: 4, LikelihoodK: 0.5, ResampleNeff: 0.5,
	}
}

// Particle is one pose-and-map hypothesis.
type Particle struct {
	Pose      geom.Pose
	LogWeight float64
	Map       *grid.LogOdds
}

// UpdateStats reports the work done by one filter update, in abstract
// operations that the engine converts to cycles.
type UpdateStats struct {
	MatchOps     int // beam probes during scan matching (parallel section)
	IntegrateOps int // map cells updated (parallel section)
	WeightOps    int // per-particle normalization/resampling work (serial)
	// CopyOps is map-copy work: tile-table entries shared when resampling
	// clones a duplicate, plus cells actually duplicated when a write
	// copy-on-writes a shared tile. With COW maps this is O(dirty tiles),
	// not O(M · map) as the pre-COW deep copies were.
	CopyOps   int
	Resampled bool
}

// SLAM is the filter state. Not safe for concurrent use; the parallel
// update borrows workers from the shared persistent pool internally.
type SLAM struct {
	cfg       Config
	rng       *rand.Rand
	particles []*Particle
	neff      float64
	started   bool
	updates   int

	// The best particle's ternary map, rebuilt in place by Map at most
	// once per update: particle maps and weights change only in update,
	// so the map built at update count ternAt is exact until the next.
	// Before any update every cell is untouched, so New fills it with
	// Unknown at ternAt 0.
	tern   *grid.Map
	ternAt int

	// Steady-state machinery: the persistent worker pool, the one
	// closure handed to it every tick, and scratch reused across calls
	// so an update allocates nothing beyond COW tile copies.
	pl      *pool.Pool
	runFn   func(w int)
	results []UpdateStats
	ws      []float64   // normalize scratch
	linW    []float64   // linear normalized weights (exp(LogWeight), kept in sync)
	rsW     []float64   // resample weights scratch
	rsUsed  []bool      // resample first-use marks
	rsNext  []*Particle // resample ping-pong particle buffer
	rsFree  []*Particle // released shells reused for duplicates

	// Scan-match scratch: the per-scan trig table (filled serially once
	// per update, read by all workers) and per-particle staging for the
	// span-batched base-score pass. Workers write only their own
	// particles' slots, so the slices are shared race-free.
	tab    sensor.Table
	baseSc []float64 // base match score per particle
	pSin   []float64 // sin/cos of each particle's heading, cached per tick
	pCos   []float64
	cur    struct { // per-update parameters read by pool workers
		m, threads int
		part       Partition
		first      bool
	}
}

// New builds the filter with all particles at the origin pose.
func New(cfg Config, rng *rand.Rand) *SLAM {
	if cfg.NumParticles < 1 {
		cfg.NumParticles = 1
	}
	if cfg.BeamSkip < 1 {
		cfg.BeamSkip = 1
	}
	s := &SLAM{cfg: cfg, rng: rng, neff: float64(cfg.NumParticles),
		tern: grid.NewMap(cfg.MapW, cfg.MapH, cfg.Resolution, cfg.Origin, grid.Unknown)}
	for i := 0; i < cfg.NumParticles; i++ {
		s.particles = append(s.particles, &Particle{
			Map: grid.NewLogOdds(cfg.MapW, cfg.MapH, cfg.Resolution, cfg.Origin),
		})
	}
	s.linW = make([]float64, cfg.NumParticles)
	for i := range s.linW {
		s.linW[i] = 1 // exp(LogWeight) with all log weights zero
	}
	s.baseSc = make([]float64, cfg.NumParticles)
	s.pSin = make([]float64, cfg.NumParticles)
	s.pCos = make([]float64, cfg.NumParticles)
	s.pl = pool.Shared()
	s.runFn = func(w int) { s.results[w] = s.processSpan(w) }
	// Pre-seed the duplicate shells: every resample drops exactly as many
	// particles as it duplicates, so rsFree holds a steady M-1 shells and
	// resampling never allocates — not even the first time.
	proto := s.particles[0].Map
	for i := 1; i < cfg.NumParticles; i++ {
		s.rsFree = append(s.rsFree, &Particle{Map: proto.NewShell()})
	}
	return s
}

// SetInitialPose places all particles at the given pose (the mission
// engine uses the start pose so the SLAM frame matches the world frame).
func (s *SLAM) SetInitialPose(p geom.Pose) {
	for _, pt := range s.particles {
		pt.Pose = p
	}
}

// NumParticles returns M.
func (s *SLAM) NumParticles() int { return len(s.particles) }

// Neff returns the effective sample size after the last update.
func (s *SLAM) Neff() float64 { return s.neff }

// Update runs one filter step serially.
func (s *SLAM) Update(odomDelta geom.Pose, scan *sensor.Scan) UpdateStats {
	return s.update(odomDelta, scan, 1, Block)
}

// Partition selects how particles are split across workers. It is the
// shared pool.Partition scheme: Block assigns each worker a contiguous
// range of particles (Fig. 6), Interleaved strides them (ablation).
type Partition = pool.Partition

const (
	Block       = pool.Block
	Interleaved = pool.Interleaved
)

// UpdateParallel runs one filter step with the scanMatch and map
// integration of the M particles spread over `threads` workers.
func (s *SLAM) UpdateParallel(odomDelta geom.Pose, scan *sensor.Scan, threads int, part Partition) UpdateStats {
	return s.update(odomDelta, scan, threads, part)
}

func (s *SLAM) update(odomDelta geom.Pose, scan *sensor.Scan, threads int, part Partition) UpdateStats {
	var st UpdateStats
	m := len(s.particles)
	if threads < 1 {
		threads = 1
	}
	if threads > m {
		threads = m
	}

	// 1. Motion update with noise, drawn serially for determinism.
	trans := odomDelta.Pos.Norm()
	rot := math.Abs(odomDelta.Theta)
	for _, pt := range s.particles {
		noisy := odomDelta
		noisy.Pos.X += s.rng.NormFloat64() * (s.cfg.TransNoise*trans + 0.001)
		noisy.Pos.Y += s.rng.NormFloat64() * (s.cfg.TransNoise*trans + 0.001)
		noisy.Theta = geom.NormalizeAngle(noisy.Theta +
			s.rng.NormFloat64()*(s.cfg.RotNoise*rot+0.001))
		pt.Pose = pt.Pose.Compose(noisy)
	}

	// 2+5. Scan match and integrate, parallel over particles (Fig. 6),
	// on the persistent pool. The per-scan trig table is filled serially
	// here, then read by every worker; parameters travel through s.cur
	// and per-worker results land in s.results, so the steady state
	// reuses one pre-built closure and allocates nothing.
	s.tab.Fill(scan)
	if cap(s.results) < threads {
		s.results = make([]UpdateStats, threads)
	}
	s.results = s.results[:threads]
	s.cur.m, s.cur.threads, s.cur.part = m, threads, part
	s.cur.first = !s.started
	s.pl.Run(threads, s.runFn)
	for _, r := range s.results {
		st.MatchOps += r.MatchOps
		st.IntegrateOps += r.IntegrateOps
		st.CopyOps += r.CopyOps
	}
	s.started = true
	s.updates++

	// 3. updateTreeWeights: normalize and compute Neff (serial).
	st.WeightOps += s.normalize()

	// 4. Resample when the effective sample size collapses (serial).
	if s.neff < s.cfg.ResampleNeff*float64(m) {
		copied := s.resample()
		st.WeightOps += m
		st.CopyOps += copied
		st.Resampled = true
	}
	return st
}

// processSpan runs scan matching and map integration for worker w's
// particle span. Work is assigned positionally via Partition.Bounds, so
// results are independent of goroutine scheduling. The base score of
// every particle in the span is computed in a single traversal of the
// scan (the multi-particle batch), then each particle hill-climbs from
// it; COW isolation makes the match-then-integrate reordering safe —
// reads of one particle's map are never affected by writes to another's.
// COW tile copies triggered by integration are drained into CopyOps per
// particle.
func (s *SLAM) processSpan(w int) UpdateStats {
	var r UpdateStats
	start, end, step := s.cur.part.Bounds(s.cur.m, s.cur.threads, w)
	if !s.cur.first {
		r.MatchOps += s.matchScoreSpan(start, end, step)
		for i := start; i < end; i += step {
			pt := s.particles[i]
			score, ops := s.hillClimb(pt, s.baseSc[i])
			r.MatchOps += ops
			pt.LogWeight += s.cfg.LikelihoodK * score
		}
	}
	for i := start; i < end; i += step {
		pt := s.particles[i]
		r.IntegrateOps += s.integrate(pt)
		r.CopyOps += pt.Map.TakeCopied()
	}
	return r
}

// matchScoreSpan computes the at-pose match score of every particle in
// the span against one traversal of the scan, staging results in
// s.baseSc (and each particle's heading trig in s.pSin/s.pCos). Scores
// accumulate in beam order per particle, so the result is bit-equal to
// scoring each particle independently. Returns beam probes performed.
func (s *SLAM) matchScoreSpan(start, end, step int) int {
	tab := &s.tab
	for i := start; i < end; i += step {
		s.pSin[i], s.pCos[i] = math.Sincos(s.particles[i].Pose.Theta)
		s.baseSc[i] = 0
	}
	ops := 0
	for b := 0; b < tab.N(); b += s.cfg.BeamSkip {
		if !tab.Hit[b] {
			continue
		}
		lx, ly := tab.LX[b], tab.LY[b]
		for i := start; i < end; i += step {
			pt := s.particles[i]
			m := pt.Map
			ep := geom.Vec2{
				X: pt.Pose.Pos.X + (s.pCos[i]*lx - s.pSin[i]*ly),
				Y: pt.Pose.Pos.Y + (s.pSin[i]*lx + s.pCos[i]*ly),
			}
			cell := m.WorldToCell(ep)
			ops++
			if !m.InBounds(cell) {
				s.baseSc[i] -= 0.1
				continue
			}
			// grid.Score is the shared logistic LUT in 2p−1 form: +1 for
			// certain occupied, −1 for certain free, exactly 0 for
			// untouched — the "unexplored is neutral" rule without a
			// branch.
			s.baseSc[i] += grid.Score(m.AtQ(cell))
		}
	}
	return ops
}

// hillClimb refines the particle pose to maximize the match score of the
// (subsampled) scan against the particle's own map, starting from the
// already-computed at-pose score. Each round scores all six candidate
// moves in one traversal of the scan and takes the best (steepest
// ascent); when no move improves, the step sizes halve. Returns the
// final score and the number of beam probes performed.
func (s *SLAM) hillClimb(pt *Particle, base float64) (score float64, ops int) {
	best := base
	step := s.cfg.SearchStep
	astep := s.cfg.AngularStep
	var cands [6]geom.Pose
	var sin6, cos6, scores [6]float64
	for it := 0; it < s.cfg.MatchIters; it++ {
		p := pt.Pose
		sinT, cosT := math.Sincos(p.Theta)
		thp := geom.NormalizeAngle(p.Theta + astep)
		thm := geom.NormalizeAngle(p.Theta - astep)
		cands = [6]geom.Pose{
			{Pos: geom.V(p.Pos.X+step, p.Pos.Y), Theta: p.Theta},
			{Pos: geom.V(p.Pos.X-step, p.Pos.Y), Theta: p.Theta},
			{Pos: geom.V(p.Pos.X, p.Pos.Y+step), Theta: p.Theta},
			{Pos: geom.V(p.Pos.X, p.Pos.Y-step), Theta: p.Theta},
			{Pos: p.Pos, Theta: thp},
			{Pos: p.Pos, Theta: thm},
		}
		sin6[0], cos6[0] = sinT, cosT
		sin6[1], cos6[1] = sinT, cosT
		sin6[2], cos6[2] = sinT, cosT
		sin6[3], cos6[3] = sinT, cosT
		sin6[4], cos6[4] = math.Sincos(thp)
		sin6[5], cos6[5] = math.Sincos(thm)
		ops += s.matchScoreBatch(pt.Map, &cands, &sin6, &cos6, &scores)
		improved := false
		for k := range cands {
			if scores[k] > best {
				best, pt.Pose, improved = scores[k], cands[k], true
			}
		}
		if !improved {
			step /= 2
			astep /= 2
		}
	}
	return best, ops
}

// matchScoreBatch scores all six candidate poses of one particle against
// a single traversal of the scan: per hit beam, the shared robot-frame
// endpoint is rotated by each candidate's cached heading trig and probed
// against the map through the fixed-point score LUT. Per-candidate
// accumulation stays in beam order, so each score is bit-equal to an
// independent pass.
func (s *SLAM) matchScoreBatch(m *grid.LogOdds, cands *[6]geom.Pose, sin6, cos6 *[6]float64, out *[6]float64) int {
	tab := &s.tab
	for k := range out {
		out[k] = 0
	}
	ops := 0
	for b := 0; b < tab.N(); b += s.cfg.BeamSkip {
		if !tab.Hit[b] {
			continue
		}
		lx, ly := tab.LX[b], tab.LY[b]
		for k := 0; k < 6; k++ {
			end := geom.Vec2{
				X: cands[k].Pos.X + (cos6[k]*lx - sin6[k]*ly),
				Y: cands[k].Pos.Y + (sin6[k]*lx + cos6[k]*ly),
			}
			cell := m.WorldToCell(end)
			if !m.InBounds(cell) {
				out[k] -= 0.1
				continue
			}
			out[k] += grid.Score(m.AtQ(cell))
		}
		ops += 6
	}
	return ops
}

// integrate folds the scan into the particle's map via the per-scan trig
// table (one Sincos for the particle heading, two FMAs per beam),
// returning cells touched.
func (s *SLAM) integrate(pt *Particle) int {
	tab := &s.tab
	sinT, cosT := math.Sincos(pt.Pose.Theta)
	pos := pt.Pose.Pos
	ops := 0
	for i := 0; i < tab.N(); i++ {
		ops += pt.Map.IntegrateBeamTo(pos, tab.Endpoint(pos, sinT, cosT, i), tab.Hit[i])
	}
	return ops
}

// normalize rescales log weights and computes Neff. The linear
// normalized weights are staged in s.linW, so the resampling and
// pose-mean paths reuse them instead of re-deriving math.Exp from the
// stored log weights. Returns ops.
func (s *SLAM) normalize() int {
	maxLW := math.Inf(-1)
	for _, pt := range s.particles {
		if pt.LogWeight > maxLW {
			maxLW = pt.LogWeight
		}
	}
	sum := 0.0
	if cap(s.ws) < len(s.particles) {
		s.ws = make([]float64, len(s.particles))
	}
	ws := s.ws[:len(s.particles)]
	for i, pt := range s.particles {
		ws[i] = math.Exp(pt.LogWeight - maxLW)
		sum += ws[i]
	}
	neffDen := 0.0
	for i, pt := range s.particles {
		w := math.Max(ws[i]/sum, 1e-300) // floor keeps resample totals nonzero
		neffDen += w * w
		s.linW[i] = w
		// Store normalized log weight to avoid drift.
		pt.LogWeight = math.Log(w)
	}
	if neffDen > 0 {
		s.neff = 1 / neffDen
	} else {
		s.neff = float64(len(s.particles))
	}
	return 3 * len(s.particles)
}

// resample performs systematic resampling. Duplicated particles get a
// copy-on-write clone of the source map — O(tiles) pointer copies now,
// cell copies deferred to the tiles a future update actually writes.
// Returns the op count for the clone work (tile-table entries shared).
func (s *SLAM) resample() int {
	m := len(s.particles)
	if cap(s.rsW) < m {
		s.rsW = make([]float64, m)
		s.rsUsed = make([]bool, m)
	}
	weights, used := s.rsW[:m], s.rsUsed[:m]
	total := 0.0
	for i := range s.particles {
		// The linear weights were already computed by normalize; reuse
		// them instead of exponentiating the stored log weights again.
		weights[i] = s.linW[i]
		total += weights[i]
		used[i] = false
	}
	ops := 0
	if cap(s.rsNext) < m {
		s.rsNext = make([]*Particle, 0, m)
	}
	next := s.rsNext[:0]
	u := s.rng.Float64() * total / float64(m)
	cum := 0.0
	idx := 0
	for i := 0; i < m; i++ {
		target := u + float64(i)*total/float64(m)
		for cum+weights[idx] < target && idx < m-1 {
			cum += weights[idx]
			idx++
		}
		src := s.particles[idx]
		if used[idx] {
			// COW clone for duplicates: shares every tile with src. Shells
			// dropped by earlier resamples are reused so the steady state
			// allocates neither particles nor tile tables.
			var cp *Particle
			if n := len(s.rsFree); n > 0 {
				cp, s.rsFree[n-1] = s.rsFree[n-1], nil
				s.rsFree = s.rsFree[:n-1]
				src.Map.CloneInto(cp.Map)
				cp.Pose, cp.LogWeight = src.Pose, 0
			} else {
				cp = &Particle{Pose: src.Pose, Map: src.Map.Clone()}
			}
			ops += src.Map.TileCount()
			next = append(next, cp)
		} else {
			used[idx] = true
			src.LogWeight = 0
			next = append(next, src)
		}
	}
	for i, pt := range next {
		pt.LogWeight = 0
		s.linW[i] = 1
	}
	// Dropped particles (never selected) release their maps — tiles they
	// owned exclusively return to the free list for upcoming COW copies —
	// and their shells queue up for the next resample's duplicates.
	for i, pt := range s.particles {
		if !used[i] {
			pt.Map.Release()
			s.rsFree = append(s.rsFree, pt)
		}
	}
	// Ping-pong the particle slices: the old backing array becomes the
	// next resample's scratch, cleared so dropped particles' maps are
	// released to the GC rather than pinned by stale pointers.
	old := s.particles
	s.particles = next
	for i := range old {
		old[i] = nil
	}
	s.rsNext = old[:0]
	return ops
}

// bestIndex returns the particle with the highest weight.
func (s *SLAM) bestIndex() int {
	best, bi := math.Inf(-1), 0
	for i, pt := range s.particles {
		if pt.LogWeight > best {
			best, bi = pt.LogWeight, i
		}
	}
	return bi
}

// BestPose returns the pose estimate of the highest-weight particle.
func (s *SLAM) BestPose() geom.Pose { return s.particles[s.bestIndex()].Pose }

// MeanPose returns the weighted mean pose (linear part; circular mean for
// heading). Weights come from the linear slice maintained by
// normalize/resample — no math.Exp per particle.
func (s *SLAM) MeanPose() geom.Pose {
	var x, y, sinSum, cosSum, wsum float64
	for i, pt := range s.particles {
		w := s.linW[i]
		x += w * pt.Pose.Pos.X
		y += w * pt.Pose.Pos.Y
		sinSum += w * math.Sin(pt.Pose.Theta)
		cosSum += w * math.Cos(pt.Pose.Theta)
		wsum += w
	}
	if wsum == 0 {
		return s.BestPose()
	}
	return geom.P(x/wsum, y/wsum, math.Atan2(sinSum, cosSum))
}

// Map returns the best particle's map thresholded into a ternary
// occupancy grid. The map is a buffer the filter owns and rebuilds at
// most once per update: it is read-only, and valid until the next
// Update or UpdateParallel.
func (s *SLAM) Map() *grid.Map {
	if s.ternAt != s.updates {
		s.particles[s.bestIndex()].Map.ToMap(s.tern, 0.25, 0.65)
		s.ternAt = s.updates
	}
	return s.tern
}

// Updates returns the number of filter updates performed.
func (s *SLAM) Updates() int { return s.updates }
