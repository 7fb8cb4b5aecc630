package slam

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lgvoffload/internal/geom"
	"lgvoffload/internal/grid"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/world"
)

// driveAndMap runs a short scripted mission and returns the filter plus
// the true final pose.
func driveAndMap(t testing.TB, cfg Config, threads int, part Partition, seed int64) (*SLAM, geom.Pose) {
	m := world.EmptyRoomMap(6, 6, 0.05)
	w := world.New(m, world.Turtlebot3(), geom.P(1.5, 1.5, 0))
	laser := sensor.NewLaser(90, 3.5, 0.01, rand.New(rand.NewSource(seed)))
	odo := sensor.NewOdometer(rand.New(rand.NewSource(seed + 1)))
	s := New(cfg, rand.New(rand.NewSource(seed+2)))
	s.SetInitialPose(w.Robot.Pose)

	prevOdom := odo.Update(w.Robot.Pose)
	// Drive an L: forward, then turn, then forward.
	script := []struct {
		v, wv float64
		steps int
	}{
		{0.2, 0, 40},
		{0.1, 0.8, 20},
		{0.2, 0, 40},
	}
	for _, leg := range script {
		w.SetCommand(geom.Twist{V: leg.v, W: leg.wv})
		for i := 0; i < leg.steps; i++ {
			w.Step(0.1)
			est := odo.Update(w.Robot.Pose)
			delta := prevOdom.Delta(est)
			prevOdom = est
			scan := laser.Sense(m, w.Robot.Pose, w.Time)
			if threads <= 1 {
				s.Update(delta, scan)
			} else {
				s.UpdateParallel(delta, scan, threads, part)
			}
		}
	}
	return s, w.Robot.Pose
}

func smallCfg() Config {
	cfg := DefaultConfig(120, 120, 0.05, geom.V(0, 0))
	cfg.NumParticles = 12
	return cfg
}

func TestSLAMTracksPose(t *testing.T) {
	s, truth := driveAndMap(t, smallCfg(), 1, Block, 7)
	est := s.BestPose()
	if err := est.Pos.Dist(truth.Pos); err > 0.35 {
		t.Errorf("pose error %.3f m (est %v, truth %v)", err, est, truth)
	}
	if d := math.Abs(geom.AngleDiff(est.Theta, truth.Theta)); d > 0.3 {
		t.Errorf("heading error %.3f rad", d)
	}
}

func TestSLAMBeatsRawOdometryOverLongRun(t *testing.T) {
	// The point of scan matching: pose error stays bounded while pure
	// odometry drifts. Compare against a no-correction filter by checking
	// the absolute error is small after a long drive.
	cfg := smallCfg()
	s, truth := driveAndMap(t, cfg, 1, Block, 21)
	if err := s.BestPose().Pos.Dist(truth.Pos); err > 0.4 {
		t.Errorf("long-run pose error %.3f m", err)
	}
}

func TestSLAMBuildsMap(t *testing.T) {
	s, _ := driveAndMap(t, smallCfg(), 1, Block, 7)
	m := s.Map()
	occ := m.CountState(grid.Occupied)
	free := m.CountState(grid.Free)
	if occ < 50 {
		t.Errorf("mapped only %d occupied cells", occ)
	}
	if free < 1000 {
		t.Errorf("mapped only %d free cells", free)
	}
}

func TestParallelIdenticalToSerial(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 8} {
		for _, part := range []Partition{Block, Interleaved} {
			a, _ := driveAndMap(t, smallCfg(), 1, Block, 99)
			b, _ := driveAndMap(t, smallCfg(), threads, part, 99)
			if a.BestPose() != b.BestPose() {
				t.Errorf("threads=%d part=%v: poses diverge %v vs %v",
					threads, part, a.BestPose(), b.BestPose())
			}
			am, bm := a.Map(), b.Map()
			for i := range am.Cells {
				if am.Cells[i] != bm.Cells[i] {
					t.Fatalf("threads=%d part=%v: maps diverge at %d", threads, part, i)
				}
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := smallCfg()
	m := world.EmptyRoomMap(6, 6, 0.05)
	laser := sensor.NewLaser(90, 3.5, 0, rand.New(rand.NewSource(1)))
	s := New(cfg, rand.New(rand.NewSource(2)))
	s.SetInitialPose(geom.P(3, 3, 0))
	scan := laser.Sense(m, geom.P(3, 3, 0), 0)

	// First update: no matching (no reference map yet), only integration.
	st := s.Update(geom.Pose{}, scan)
	if st.MatchOps != 0 {
		t.Errorf("first update matched: %+v", st)
	}
	if st.IntegrateOps == 0 {
		t.Error("no integration on first update")
	}
	// Second update matches.
	st = s.Update(geom.Pose{}, scan)
	if st.MatchOps == 0 {
		t.Error("second update should scan-match")
	}
	if s.Updates() != 2 {
		t.Errorf("updates = %d", s.Updates())
	}
}

func TestMatchOpsScaleWithParticles(t *testing.T) {
	run := func(n int) int {
		cfg := smallCfg()
		cfg.NumParticles = n
		m := world.EmptyRoomMap(6, 6, 0.05)
		laser := sensor.NewLaser(90, 3.5, 0, rand.New(rand.NewSource(1)))
		s := New(cfg, rand.New(rand.NewSource(2)))
		s.SetInitialPose(geom.P(3, 3, 0))
		scan := laser.Sense(m, geom.P(3, 3, 0), 0)
		s.Update(geom.Pose{}, scan)
		st := s.Update(geom.Pose{}, scan)
		return st.MatchOps
	}
	ops10, ops30 := run(10), run(30)
	ratio := float64(ops30) / float64(ops10)
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("match ops should scale ~linearly with particles: %d vs %d (ratio %.2f)",
			ops10, ops30, ratio)
	}
}

func TestResamplingTriggers(t *testing.T) {
	cfg := smallCfg()
	cfg.ResampleNeff = 2.0 // always resample after normalize
	m := world.EmptyRoomMap(6, 6, 0.05)
	laser := sensor.NewLaser(90, 3.5, 0.01, rand.New(rand.NewSource(3)))
	s := New(cfg, rand.New(rand.NewSource(4)))
	s.SetInitialPose(geom.P(3, 3, 0))
	s.Update(geom.Pose{}, laser.Sense(m, geom.P(3, 3, 0), 0))
	st := s.Update(geom.Pose{}, laser.Sense(m, geom.P(3, 3, 0), 1))
	if !st.Resampled {
		t.Error("resampling should have triggered")
	}
	if s.NumParticles() != cfg.NumParticles {
		t.Errorf("particle count changed: %d", s.NumParticles())
	}
}

func TestNeffBounds(t *testing.T) {
	s, _ := driveAndMap(t, smallCfg(), 1, Block, 11)
	n := s.Neff()
	if n < 1 || n > float64(s.NumParticles())+1e-9 {
		t.Errorf("Neff = %v out of [1, %d]", n, s.NumParticles())
	}
}

func TestMeanPoseNearBestPose(t *testing.T) {
	s, _ := driveAndMap(t, smallCfg(), 1, Block, 13)
	if d := s.MeanPose().Pos.Dist(s.BestPose().Pos); d > 0.5 {
		t.Errorf("mean pose %.3f m from best pose", d)
	}
}

func TestDegenerateConfigs(t *testing.T) {
	cfg := smallCfg()
	cfg.NumParticles = 0
	cfg.BeamSkip = 0
	s := New(cfg, rand.New(rand.NewSource(1)))
	if s.NumParticles() != 1 {
		t.Errorf("particles clamped to %d", s.NumParticles())
	}
	// One particle, no beams to skip: still functional.
	m := world.EmptyRoomMap(6, 6, 0.05)
	laser := sensor.NewLaser(10, 3.5, 0, rand.New(rand.NewSource(1)))
	s.SetInitialPose(geom.P(3, 3, 0))
	s.Update(geom.Pose{}, laser.Sense(m, geom.P(3, 3, 0), 0))
	s.Update(geom.P(0.01, 0, 0), laser.Sense(m, geom.P(3.01, 3, 0), 0.1))
}

// refMatchScore scores one pose against one map independently, in beam
// order — the unbatched reference the batched paths must equal bit for
// bit (same accumulation order, same probe expression).
func refMatchScore(s *SLAM, m *grid.LogOdds, pose geom.Pose) float64 {
	tab := &s.tab
	sinT, cosT := math.Sincos(pose.Theta)
	sc := 0.0
	for b := 0; b < tab.N(); b += s.cfg.BeamSkip {
		if !tab.Hit[b] {
			continue
		}
		cell := m.WorldToCell(tab.Endpoint(pose.Pos, sinT, cosT, b))
		if !m.InBounds(cell) {
			sc -= 0.1
			continue
		}
		sc += grid.Score(m.AtQ(cell))
	}
	return sc
}

// TestBatchedScoringBitEqualToIndependent pins the batching contract:
// scoring many particles (or many candidate poses of one particle)
// against a single traversal of the scan yields exactly the score an
// independent per-pose pass produces.
func TestBatchedScoringBitEqualToIndependent(t *testing.T) {
	s, _ := driveAndMap(t, smallCfg(), 1, Block, 31)
	m := world.EmptyRoomMap(6, 6, 0.05)
	laser := sensor.NewLaser(90, 3.5, 0.01, rand.New(rand.NewSource(32)))
	scan := laser.Sense(m, s.BestPose(), 0)
	s.tab.Fill(scan)

	// Span batch: all particles in one traversal.
	s.matchScoreSpan(0, len(s.particles), 1)
	for i, pt := range s.particles {
		if want := refMatchScore(s, pt.Map, pt.Pose); s.baseSc[i] != want {
			t.Errorf("particle %d: span score %v != independent %v", i, s.baseSc[i], want)
		}
	}

	// Candidate batch: six poses of one particle in one traversal.
	pt := s.particles[0]
	p := pt.Pose
	cands := [6]geom.Pose{
		{Pos: geom.V(p.Pos.X+0.05, p.Pos.Y), Theta: p.Theta},
		{Pos: geom.V(p.Pos.X-0.05, p.Pos.Y), Theta: p.Theta},
		{Pos: geom.V(p.Pos.X, p.Pos.Y+0.05), Theta: p.Theta},
		{Pos: geom.V(p.Pos.X, p.Pos.Y-0.05), Theta: p.Theta},
		{Pos: p.Pos, Theta: geom.NormalizeAngle(p.Theta + 0.03)},
		{Pos: p.Pos, Theta: geom.NormalizeAngle(p.Theta - 0.03)},
	}
	var sin6, cos6, scores [6]float64
	for k := range cands {
		sin6[k], cos6[k] = math.Sincos(cands[k].Theta)
	}
	s.matchScoreBatch(pt.Map, &cands, &sin6, &cos6, &scores)
	for k := range cands {
		if want := refMatchScore(s, pt.Map, cands[k]); scores[k] != want {
			t.Errorf("candidate %d: batch score %v != independent %v", k, scores[k], want)
		}
	}
}

// TestMapMemoMatchesBestParticle pins the per-update map memo. A fresh
// filter's map is all unknown and the map after its first update shows
// that update. After every later update, serial and parallel, with
// resampling on, Map equals a fresh threshold of the best particle's
// grid, and a second call with no update between returns the same
// contents.
func TestMapMemoMatchesBestParticle(t *testing.T) {
	for _, threads := range []int{1, 3} {
		m := world.EmptyRoomMap(6, 6, 0.05)
		w := world.New(m, world.Turtlebot3(), geom.P(1.5, 1.5, 0))
		laser := sensor.NewLaser(90, 3.5, 0.01, rand.New(rand.NewSource(41)))
		odo := sensor.NewOdometer(rand.New(rand.NewSource(42)))
		s := New(smallCfg(), rand.New(rand.NewSource(43)))
		s.SetInitialPose(w.Robot.Pose)
		if got := s.Map(); got.CountState(grid.Unknown) != len(got.Cells) {
			t.Fatalf("threads=%d: map before any update is not all unknown", threads)
		}
		prevOdom := odo.Update(w.Robot.Pose)
		w.SetCommand(geom.Twist{V: 0.2, W: 0.4})
		resampled := 0
		for i := 0; i < 40; i++ {
			w.Step(0.1)
			est := odo.Update(w.Robot.Pose)
			delta := prevOdom.Delta(est)
			prevOdom = est
			scan := laser.Sense(m, w.Robot.Pose, w.Time)
			var st UpdateStats
			if threads == 1 {
				st = s.Update(delta, scan)
			} else {
				st = s.UpdateParallel(delta, scan, threads, Interleaved)
			}
			if st.Resampled {
				resampled++
			}
			got := s.Map()
			if i == 0 && got.CountState(grid.Occupied) == 0 {
				t.Fatalf("threads=%d: map after the first update does not show it", threads)
			}
			want := grid.NewMap(got.Width, got.Height, got.Resolution, got.Origin, grid.Unknown)
			s.particles[s.bestIndex()].Map.ToMap(want, 0.25, 0.65)
			if !slices.Equal(got.Cells, want.Cells) {
				t.Fatalf("threads=%d update %d: Map differs from the best particle's grid", threads, i)
			}
			if again := s.Map(); !slices.Equal(again.Cells, want.Cells) {
				t.Fatalf("threads=%d update %d: second Map call changed the contents", threads, i)
			}
		}
		if resampled == 0 {
			t.Fatalf("threads=%d: no update resampled", threads)
		}
	}
}
