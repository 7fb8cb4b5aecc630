//go:build !race

package lgvoffload

// Steady-state allocation bounds for the pooled hot paths. These run via
// `make bench` (no race detector: -race instruments allocations and
// would both distort the counts and fail the bounds), while `make check`
// excludes them through the build tag above.

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"lgvoffload/internal/costmap"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/msg"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/sensor"
	"lgvoffload/internal/slam"
	"lgvoffload/internal/spans"
	"lgvoffload/internal/store"
	"lgvoffload/internal/trace"
	"lgvoffload/internal/tracker"
	"lgvoffload/internal/wire"
	"lgvoffload/internal/world"
)

// TestAllocTrackerPlanSteadyState: after warm-up, a parallel plan on the
// persistent pool reuses its closure, result slots and staging struct —
// no per-tick allocations.
func TestAllocTrackerPlanSteadyState(t *testing.T) {
	m := world.LabMap()
	ccfg := costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin)
	cm := costmap.New(ccfg)
	cm.SetStatic(m)
	tcfg := tracker.DefaultConfig()
	tcfg.WSamples = 40
	tcfg.VSamples = 25
	tk := tracker.New(tcfg)
	in := tracker.Input{
		Pose: geom.P(1, 1, 0), Vel: geom.Twist{V: 0.1},
		Path:    []geom.Vec2{geom.V(1, 1), geom.V(5, 1)},
		Costmap: cm,
	}
	for i := 0; i < 3; i++ { // warm the pool and the result slots
		if _, err := tk.PlanParallel(in, 4, tracker.Block); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tk.PlanParallel(in, 4, tracker.Block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("PlanParallel steady state allocates %.1f/op, want <= 2", allocs)
	}
}

// TestAllocTrackerPlanSerial: a warm serial plan on the lab map reuses
// its result slot and its heading and footprint tables, and allocates
// nothing. That holds too after a plan whose speed limit (a mission's
// v_ceil) is NaN, infinite or ±1e308 has sized the footprint table to
// the whole map.
func TestAllocTrackerPlanSerial(t *testing.T) {
	m := world.LabMap()
	cm := costmap.New(costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin))
	cm.SetStatic(m)
	for _, maxV := range []float64{tracker.DefaultConfig().MaxV, math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308} {
		tcfg := tracker.DefaultConfig()
		tcfg.VSamples, tcfg.WSamples, tcfg.MaxV = 25, 40, maxV
		tk := tracker.New(tcfg)
		in := tracker.Input{
			Pose: geom.P(1, 1, 0), Vel: geom.Twist{V: 0.1},
			Path:    []geom.Vec2{geom.V(1, 1), geom.V(5, 1)},
			Costmap: cm,
		}
		tk.Plan(in) // size the result slot and the footprint table
		allocs := testing.AllocsPerRun(20, func() { tk.Plan(in) })
		if allocs > 0 {
			t.Errorf("MaxV %v: warm Plan allocates %.1f/op, want 0", maxV, allocs)
		}
	}
}

// TestAllocSLAMUpdateSteadyState: with resampling disabled (no clones)
// and the tile working set warmed, a parallel update allocates nothing —
// scratch, results and the worker closure are all reused.
func TestAllocSLAMUpdateSteadyState(t *testing.T) {
	ds := trace.LabDataset(11, 4)
	cfg := slam.DefaultConfig(ds.Map.Width, ds.Map.Height, ds.Map.Resolution, ds.Map.Origin)
	cfg.NumParticles = 8
	cfg.ResampleNeff = 0 // isolate the update path from COW clone traffic
	s := slam.New(cfg, rand.New(rand.NewSource(7)))
	s.SetInitialPose(ds.Start)
	e := ds.Entries[0]
	still := geom.Pose{}
	for i := 0; i < 3; i++ { // allocate the beam's tiles once
		s.UpdateParallel(still, e.Scan, 4, slam.Block)
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.UpdateParallel(still, e.Scan, 4, slam.Block)
	})
	if allocs > 2 {
		t.Errorf("UpdateParallel steady state allocates %.1f/op, want <= 2", allocs)
	}
}

// TestAllocWireEncodeSteadyState: the pooled encoder plane encodes a
// scan-sized frame and reports frame sizes without allocating.
func TestAllocWireEncodeSteadyState(t *testing.T) {
	scan := &msg.Scan{
		AngleMin: -3.14, AngleInc: 0.0174, MaxRange: 3.5,
		Ranges: make([]float64, 360),
	}
	wire.EncodedSize(scan) // warm the pool with a scan-sized buffer
	allocs := testing.AllocsPerRun(100, func() {
		e := wire.GetEncoder()
		wire.EncodeFrameTo(e, scan)
		wire.PutEncoder(e)
	})
	if allocs > 0 {
		t.Errorf("pooled encode allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		_ = wire.EncodedSize(scan)
	})
	if allocs > 0 {
		t.Errorf("EncodedSize allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocStoreRecorderDisabled: with recording disabled (the default
// nil *store.Recorder in MissionConfig.Store), the engine's per-tick
// record hooks must cost nothing — every Recorder method is a nil-safe
// no-op and the flat recItem union never escapes.
func TestAllocStoreRecorderDisabled(t *testing.T) {
	var rec *store.Recorder
	tick := store.Tick{T: 1, VDP: 0.04, EnergyJ: 12, Bandwidth: 80, MaxVel: 0.3}
	dec := store.Decision{T: 1, Reason: "alg1", From: "lgv", To: "edge"}
	sr := store.SpanRow{T: 1, Makespan: 0.04, Compute: 0.03}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Tick(tick)
		rec.Decision(dec)
		rec.SpanRow(sr)
		rec.Fault(store.Fault{Kind: "wap", T0: 1, T1: 2})
		_ = rec.Dropped()
		_ = rec.ID()
	})
	if allocs > 0 {
		t.Errorf("disabled recorder allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocStoreFleetStatsWarm: once the first fleet read after Open has
// decoded the stored ticks, FleetStats pools from the store's in-memory
// VDP column. Its allocations do not grow with the ticks per mission and
// stay within 20 per call, on a reopened store with a live mission
// recorded beside the recovered ones.
func TestAllocStoreFleetStatsWarm(t *testing.T) {
	record := func(st *store.Store, seed int64, ticks int) {
		rec, err := st.Begin(store.MissionStart{Seed: seed, Workload: "navigation"})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < ticks; k++ {
			rec.Tick(store.Tick{T: 0.2 * float64(k), VDP: 0.02 + 0.001*float64((k*7+int(seed))%50)})
		}
		if err := rec.Finish(store.MissionEnd{Success: true, TotalTime: 0.2 * float64(ticks)}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(ticks int) float64 {
		path := filepath.Join(t.TempDir(), "fleet.lgvstore")
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 30; i++ {
			record(st, i, ticks)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = store.Open(path); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		record(st, 99, ticks)
		if _, err := st.FleetStats(store.Filter{}); err != nil { // the first read decodes
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := st.FleetStats(store.Filter{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(50), allocs(200)
	if short != long || long > 20 {
		t.Errorf("warm FleetStats allocates %.1f/op at 50 ticks per mission and %.1f/op at 200, want equal and <= 20",
			short, long)
	}
}

// TestAllocFlightSLODisabled: the default observability plane (nil
// flight recorder, nil SLO engine — what every mission without -flightrec
// or -slo runs with) must cost nothing per tick.
func TestAllocFlightSLODisabled(t *testing.T) {
	var fr *obs.FlightRecorder
	var slo *obs.SLOEngine
	frame := obs.FlightFrame{T: 1, VDP: 0.04, EnergyJ: 12, Staleness: 0.2}
	allocs := testing.AllocsPerRun(100, func() {
		fr.Record(frame)
		_ = fr.Dump("x", "", 1)
		_ = slo.Observe(frame)
		_ = slo.Health()
	})
	if allocs > 0 {
		t.Errorf("disabled flight/SLO path allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocFlightSLOEnabledSteadyState: with the recorder attached to a
// telemetry timeline, the full default rule set enabled and the rolling
// window warm, one tick's observability work (ring write + timeline
// event + four rule evaluations) stays within the 2 allocs/tick budget.
// In practice it is zero: the frame ring and the timeline are
// preallocated, the SLO window grows once, and the p99 sort reuses its
// scratch buffer.
func TestAllocFlightSLOEnabledSteadyState(t *testing.T) {
	tel := obs.NewTelemetry(0)
	fr := obs.NewFlightRecorder(obs.FlightConfig{})
	fr.Attach(tel)
	slo := obs.NewSLOEngine(obs.DefaultSLORules())
	tt := 0.0
	tick := func() {
		tt += 0.2
		f := obs.FlightFrame{T: tt, VDP: 0.04, EnergyJ: 10 * tt, Sent: int(tt * 5), Staleness: 0.2}
		fr.Record(f)
		tel.Emit(obs.Event{Kind: obs.KindTick, T0: tt, Value: tt})
		// Healthy steady state: no rule fires, Observe returns nil.
		if b := slo.Observe(f); b != nil {
			t.Fatalf("steady-state frame raised breaches: %+v", b)
		}
	}
	// Warm every rolling window past its longest rule window (30 s).
	for i := 0; i < 200; i++ {
		tick()
	}
	allocs := testing.AllocsPerRun(100, tick)
	if allocs > 2 {
		t.Errorf("enabled flight/SLO steady state allocates %.1f/tick, want <= 2", allocs)
	}
}

// TestAllocTimelineTracerEnabledSteadyState: the enabled event timeline
// and span tracer write into rings allocated up front, so appending an
// event or recording a span allocates nothing, before and after the
// rings wrap.
func TestAllocTimelineTracerEnabledSteadyState(t *testing.T) {
	tl := obs.NewTimeline(64)
	tr := spans.NewTracer(64)
	trace := tr.NewTrace()
	i := 0.0
	step := func() {
		i++
		tl.Append(obs.Event{Kind: obs.KindTick, T0: i, T1: i + 0.2})
		tr.Add(trace, 0, "tick", "lgv", "velocity_mux", spans.Compute, i, i+0.1)
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("enabled timeline append + span add allocates %.1f/op, want 0", allocs)
	}
	if tl.Evicted() == 0 || tr.Dropped() == 0 {
		t.Fatal("rings never wrapped; the bound is untested")
	}
}

// TestAllocSLAMMapSteadyState: the filter builds its ternary map into a
// buffer it owns, at most once per update. With the tile working set
// warm, Map with no update since the last call allocates nothing, and an
// update followed by Map stays within the update's budget.
func TestAllocSLAMMapSteadyState(t *testing.T) {
	ds := trace.LabDataset(11, 4)
	cfg := slam.DefaultConfig(ds.Map.Width, ds.Map.Height, ds.Map.Resolution, ds.Map.Origin)
	cfg.NumParticles = 8
	cfg.ResampleNeff = 0 // isolate the update path from COW clone traffic
	s := slam.New(cfg, rand.New(rand.NewSource(7)))
	s.SetInitialPose(ds.Start)
	e := ds.Entries[0]
	still := geom.Pose{}
	for i := 0; i < 3; i++ { // allocate the beam's tiles once
		s.UpdateParallel(still, e.Scan, 4, slam.Block)
		s.Map()
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Map() }); allocs != 0 {
		t.Errorf("Map with no update since the last call allocates %.1f/op, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.UpdateParallel(still, e.Scan, 4, slam.Block)
		s.Map()
	})
	if allocs > 2 {
		t.Errorf("UpdateParallel + Map steady state allocates %.1f/op, want <= 2", allocs)
	}
}

// TestAllocCostmapUpdateSteadyState: after a warm-up Update on the lab
// map, a full update (clearing, marking, recombining and re-inflating)
// allocates nothing: rebuild reuses its source list.
func TestAllocCostmapUpdateSteadyState(t *testing.T) {
	m := world.LabMap()
	cm := costmap.New(costmap.DefaultConfig(m.Width, m.Height, m.Resolution, m.Origin))
	cm.SetStatic(m)
	pose := geom.P(1, 1, 0)
	scan := sensor.NewLDS01(0.01, rand.New(rand.NewSource(1))).Sense(m, pose, 0)
	cm.Update(pose, scan) // grow the source list once
	if allocs := testing.AllocsPerRun(20, func() { cm.Update(pose, scan) }); allocs != 0 {
		t.Errorf("Update steady state allocates %.1f/op, want 0", allocs)
	}
}
