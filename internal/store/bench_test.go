package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The store-layer benchmarks run on a store shaped like the serve-batch
// prefill of the repository benchmark (perfbench/servebatch.go): 300
// finished missions of 200 ticks and one decision each, recorded one
// after another, about 11.5 MB.
const (
	benchMissions = 300
	benchTicks    = 200
)

// benchPrefill holds the prefilled store's bytes, built once per process.
var benchPrefill struct {
	once sync.Once
	data []byte
	err  error
}

// recordPrefillMission records one prefill-shaped mission.
func recordPrefillMission(s *Store, rng *rand.Rand, i int) error {
	kinds := []string{"navigation", "coverage", "exploration"}
	rec, err := s.Begin(MissionStart{Unix: int64(i), Label: "prefill", Seed: int64(i),
		Workload: kinds[i%len(kinds)], Deploy: "adaptive", Goal: "mct", Threads: 4, MaxSimTime: 60})
	if err != nil {
		return err
	}
	energy := 0.0
	for k := 0; k < benchTicks; k++ {
		energy += 0.5 + rng.Float64()
		rec.Tick(Tick{T: 0.2 * float64(k), VDP: 0.02 + 0.08*rng.Float64(), EnergyJ: energy,
			Bandwidth: 5 * rng.Float64(), Direction: 2*rng.Float64() - 1, Signal: rng.Float64(),
			MaxVel: 0.5, RealVel: 0.5 * rng.Float64(), RemoteOn: rng.Intn(2) == 0})
	}
	rec.Decision(Decision{T: 10, Reason: "alg1-mct", Bandwidth: 4, Direction: 0.5,
		RemoteOK: true, From: "local", To: "edge"})
	return rec.Finish(MissionEnd{Success: rng.Float64() < 0.8, Reason: "goal reached",
		TotalTime: 0.2 * benchTicks, TotalEnergy: energy,
		Energy: map[string]float64{"compute": energy / 2, "motor": energy / 2}})
}

func buildPrefill() ([]byte, error) {
	dir, err := os.MkdirTemp("", "store-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fleet.lgvstore")
	s, err := Open(path)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= benchMissions && err == nil; i++ {
		err = recordPrefillMission(s, rng, i)
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// prefillPath writes the prefilled store into a fresh file of b's and
// returns its path.
func prefillPath(b *testing.B) string {
	b.Helper()
	benchPrefill.once.Do(func() { benchPrefill.data, benchPrefill.err = buildPrefill() })
	if benchPrefill.err != nil {
		b.Fatalf("prefill: %v", benchPrefill.err)
	}
	path := filepath.Join(b.TempDir(), "fleet.lgvstore")
	if err := os.WriteFile(path, benchPrefill.data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

func openBench(b *testing.B, path string) *Store {
	b.Helper()
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreOpen times Open, crash recovery included, and Close.
func BenchmarkStoreOpen(b *testing.B) {
	path := prefillPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := openBench(b, path).Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetStats times a warm fleet read: every call after the
// first on an open store.
func BenchmarkFleetStats(b *testing.B) {
	s := openBench(b, prefillPath(b))
	defer s.Close()
	if _, err := s.FleetStats(Filter{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FleetStats(Filter{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetStatsFirst times the first fleet read after Open.
func BenchmarkFleetStatsFirst(b *testing.B) {
	path := prefillPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := openBench(b, path)
		b.StartTimer()
		if _, err := s.FleetStats(Filter{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkReadMission times decoding one stored 200-tick mission.
func BenchmarkReadMission(b *testing.B) {
	s := openBench(b, prefillPath(b))
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadMission("m150"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderAppend times recording one prefill-shaped mission,
// Begin to Finish: 200 ticks and a decision through the Recorder, the
// flusher's encode and batched writes, and the closing sync.
func BenchmarkRecorderAppend(b *testing.B) {
	s := openBench(b, filepath.Join(b.TempDir(), "rec.lgvstore"))
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := recordPrefillMission(s, rng, i); err != nil {
			b.Fatal(err)
		}
	}
}
