package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lgvoffload/internal/core"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/spans"
	"lgvoffload/internal/store"
	"lgvoffload/internal/world"
)

const (
	// setupSamples is how many set-ups a run times on their own, each
	// from a freshly collected heap, before measuring. The set-up
	// allocates the sinks' rings, so timed behind a mission's garbage
	// it depended on where the collector was: on nav-observed its median
	// spread 46% between runs.
	setupSamples = 32
	// navTraced and exploreTraced are how many missions of the seed's
	// order a traced run stamps; a fixed count keeps the traced run's
	// counters exactly repeatable per seed.
	navTraced     = 4
	exploreTraced = 3
	// missionReadInterval paces the mission workloads' operator. Its reads
	// are light, so it reads often: some 200 reads a pass put ten beyond
	// the p95 tail.
	missionReadInterval = 25 * time.Millisecond
)

// labMap is the Fig. 13 world. Missions only read it, so one copy serves
// every mission of a run.
var labMap = world.LabMap()

// navConfig is the Fig. 13 navigation mission: lab map, start (0.6,0.6),
// goal (11,5), adaptive edge deployment minimizing completion time.
func navConfig(seed int64) core.MissionConfig {
	return core.MissionConfig{
		Workload: core.NavigationWithMap, Map: labMap,
		Start: geom.P(0.6, 0.6, 0), Goal: geom.V(11, 5), WAP: geom.V(6, 3),
		Deployment: core.DeployAdaptive(core.HostEdge, 8, core.GoalMCT),
		Seed:       seed, MaxSimTime: 900,
	}
}

// exploreConfig is the Fig. 13 exploration mission: the same lab mapped
// from scratch by 30-particle SLAM.
func exploreConfig(seed int64) core.MissionConfig {
	return core.MissionConfig{
		Workload: core.ExplorationNoMap, Map: labMap,
		Start: geom.P(0.6, 0.6, 0), WAP: geom.V(6, 3),
		Deployment: core.DeployAdaptive(core.HostEdge, 8, core.GoalMCT),
		Seed:       seed, MaxSimTime: 1800, SlamParticles: 30,
	}
}

// poolOrder returns pool seeds 1..n in the order the workload seed picks.
func poolOrder(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(n) {
		out[i] = int64(p + 1)
	}
	return out
}

// attachSinks attaches the observability set of `lgvsim -http -store
// -slo default -flight`: Telemetry teed to a LiveHub, a span Tracer, a
// flight recorder, the stock SLO rules and a store Recorder.
func attachSinks(cfg *core.MissionConfig, st *store.Store, seed int64) (*store.Recorder, error) {
	rec, err := st.Begin(store.MissionStart{
		Unix: time.Now().Unix(), Label: "perfbench", Seed: seed,
		Workload: cfg.Workload.String(), Deploy: cfg.Deployment.Name,
		Goal: cfg.Deployment.Goal.String(), Threads: cfg.Deployment.Threads,
		MaxSimTime: cfg.MaxSimTime,
	})
	if err != nil {
		return nil, err
	}
	tel := obs.NewTelemetry(1 << 16)
	tel.Tee(obs.NewLiveHub(0))
	cfg.Telemetry = tel
	cfg.Tracer = spans.NewTracer(0)
	cfg.FlightRec = obs.NewFlightRecorder(obs.FlightConfig{})
	cfg.SLO = obs.NewSLOEngine(obs.DefaultSLORules())
	cfg.Store = rec
	return rec, nil
}

// missionRunner builds and runs one workload's missions.
type missionRunner struct {
	workload string
	build    func(seed int64) core.MissionConfig
	// passSeconds is about how long one pass over the mission pool takes
	// on the 2-CPU reference host. A run makes --seconds / passSeconds
	// passes, rounded, and at least two.
	passSeconds float64
	// st receives observed missions' records.
	st *store.Store
	// readPath is the workload's operator, reading its inspector every
	// missionReadInterval while the end-to-end missions run.
	readPath func(k int, current string) string
}

// runOpts selects how one mission runs.
type runOpts struct {
	observed bool        // attach the nav-observed sinks
	tracer   *stepTracer // stamp layer boundaries (traced run)
	periods  bool        // collect host ms per control period (4 steps)
	heap     bool        // measure the live heap once the mission is done
	// api, when set, serves an observed mission's inspector, and rd
	// learns the ID of each mission the store has finished.
	api *inspectorServer
	rd  *reader
}

// missionRun is one finished mission.
//
// With periods asked for, set-up, closing and periods are scaled to the
// reference host (calib.go) by the kernel runs beside them, listed in
// calib; otherwise nothing is calibrated and they stay host times.
type missionRun struct {
	setup   float64       // s, everything before the first Step
	closing float64       // s, after the last whole period through the store Finish
	wall    time.Duration // host time, set-up through Result and the store Finish
	virt    float64       // virtual seconds simulated
	periods []float64     // ms per control period (4 steps), when asked for
	calib   []float64     // kernel ms of each calibration run
	heapMB  float64       // live heap with the finished mission still held
	alloc   uint64        // bytes allocated process-wide meanwhile
	dropped uint64        // store records dropped
	res     *core.Result
	tel     *obs.Telemetry
}

func (r *missionRunner) prepare(seed int64, o runOpts) (core.MissionConfig, *store.Recorder, error) {
	cfg := r.build(seed)
	cfg.KernelThreads = 1
	var rec *store.Recorder
	var err error
	if o.observed {
		if rec, err = attachSinks(&cfg, r.st, seed); err != nil {
			return cfg, nil, err
		}
	}
	if o.tracer != nil {
		if cfg.Telemetry == nil {
			cfg.Telemetry = obs.NewTelemetry(1 << 16)
		}
		cfg.CmdTap = o.tracer.cmdTap
	}
	return cfg, rec, nil
}

// setupOnly times set-up alone, in reference-host seconds, and discards
// the mission.
func (r *missionRunner) setupOnly(seed int64, observed bool) (float64, error) {
	before := calibrate()
	t0 := time.Now()
	cfg, rec, err := r.prepare(seed, runOpts{observed: observed})
	if err == nil {
		_, err = core.NewMission(cfg)
	}
	d := time.Since(t0)
	defer runtime.GC() // for the next sample
	rec.Abandon()
	return between(millis(d), before, calibrate()) / 1000, err
}

// run builds, steps and checks one mission. It returns an error only
// when the mission could not be built; a wrong result is a failed
// operation in t.
func (r *missionRunner) run(seed int64, o runOpts, t *tally) (missionRun, error) {
	var out missionRun
	calib := func() float64 { // the last kernel run's ms
		if o.periods {
			out.calib = append(out.calib, calibrate())
			return out.calib[len(out.calib)-1]
		}
		return calibRefMS
	}
	before := calib()
	a0 := allocatedBytes()
	t0 := time.Now()
	cfg, rec, err := r.prepare(seed, o)
	var m *core.Mission
	if err == nil {
		m, err = core.NewMission(cfg)
	}
	if err != nil {
		rec.Abandon()
		return out, fmt.Errorf("%s seed %d: %w", r.workload, seed, err)
	}
	if o.tracer != nil {
		cfg.Telemetry.Tee(o.tracer) // after NewMission, so after the flight recorder's tee
	}
	if o.api != nil && o.observed {
		o.api.set(obs.NewInspectorWith(obs.InspectorConfig{Telemetry: cfg.Telemetry, Store: r.st, SLO: cfg.SLO}))
	}
	setup := time.Since(t0)
	after := calib()
	out.setup = between(millis(setup), before, after) / 1000
	last := time.Now()
	if o.tracer != nil {
		for !o.tracer.step(m) {
		}
	} else {
		for i := 1; !m.Step(); i++ {
			if i%4 == 0 && o.periods {
				ms := millis(time.Since(last))
				before, after = after, calib()
				out.periods = append(out.periods, between(ms, before, after))
				last = time.Now()
			}
		}
	}
	out.res = m.Result()
	var problems []string
	if rec != nil {
		out.dropped = rec.Dropped()
		if err := rec.Finish(core.StoreSummary(out.res)); err != nil {
			problems = append(problems, "store finish: "+err.Error())
		}
		if out.dropped > 0 {
			problems = append(problems, fmt.Sprintf("%d store records dropped", out.dropped))
		}
		if o.rd != nil {
			o.rd.current.Store(rec.ID())
		}
	}
	closing := time.Since(last)
	out.wall = time.Since(t0)
	out.alloc = allocatedBytes() - a0
	out.closing = between(millis(closing), after, calib()) / 1000
	if o.heap {
		out.heapMB = liveHeapMB()
		runtime.KeepAlive(m)
	}
	out.virt = m.Time()
	out.tel = cfg.Telemetry
	problems = append(problems, digestProblems(r.workload, seed, out.res)...)
	t.check(len(problems) == 0, "%s seed %d: %s", r.workload, seed, strings.Join(problems, "; "))
	return out, nil
}

// endToEnd runs passes over the pool, in the seed's order, and reports
// the end-to-end metrics.
//
// Other load on a shared host slows some stretches of a run and not
// others, and only ever adds time. Every pass runs the same missions, and
// a mission repeats its control periods exactly, so each period's host
// time is taken as its best over the passes, and so are each mission's
// set-up and its closing steps. A mission's latency is the sum; the
// rates and the period quantiles come from these best times. The
// operator's reads are pooled over the run.
func (r *missionRunner) endToEnd(rc runConfig, observed bool, t *tally) (values, error) {
	order := poolOrder(rc.seed, missionPool)
	var setups []float64
	runtime.GC()
	for i := 0; i < setupSamples; i++ {
		s, err := r.setupOnly(order[i%len(order)], observed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	api, err := startInspector(obs.NewInspectorWith(obs.InspectorConfig{Store: r.st}))
	if err != nil {
		return nil, err
	}
	c := &http.Client{Timeout: time.Minute}
	a0 := allocatedBytes()
	rd := startReader(c, api.base, missionReadInterval, r.readPath)
	passes := max(2, int(math.Round(rc.seconds/r.passSeconds)))
	runs := map[int64][]missionRun{}
	var heapMB, calibMS []float64
	for pass := 0; pass < passes; pass++ {
		var passCalib []float64
		for _, seed := range order {
			mr, err := r.run(seed, runOpts{observed: observed, periods: true, heap: true, api: api, rd: rd}, t)
			if err != nil {
				rd.halt(t)
				api.stop()
				return nil, err
			}
			heapMB = append(heapMB, mr.heapMB)
			passCalib = append(passCalib, mr.calib...)
			mr.res, mr.tel = nil, nil // keep no mission alive past its pass
			runs[seed] = append(runs[seed], mr)
		}
		calibMS = append(calibMS, median(passCalib))
	}
	rd.halt(t)
	alloc := allocatedBytes() - a0
	api.stop()
	c.CloseIdleConnections()

	var (
		periods, latencies []float64
		wall, virt         float64
	)
	for _, seed := range order {
		best, lat, err := bestOf(runs[seed])
		if err != nil {
			t.check(false, "%s seed %d: %v", r.workload, seed, err)
			continue
		}
		periods = append(periods, best...)
		latencies = append(latencies, lat)
		wall += lat
		virt += runs[seed][0].virt
	}
	periodTail, periodQ := tail(periods)
	latTail, latQ := tail(latencies)
	readTail, readQ := tail(rd.lat)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes over %d missions, %d set-ups; tails: periods p%g of %d, results p%g of %d, reads p%g of %d\n",
		r.workload, passes, len(order), len(setups), 100*periodQ, len(periods), 100*latQ, len(latencies), 100*readQ, len(rd.lat))
	fmt.Fprintf(os.Stderr, "perfbench: host: calibration kernel median by pass %s ms\n", fmtMS(calibMS))
	return values{
		"setup_s":               median(setups),
		"sim_speed":             virt / wall,
		"period_wall_p50_ms":    quantile(periods, 0.5),
		"period_wall_tail_ms":   periodTail,
		"alloc_kb_per_sim_s":    float64(alloc) / 1024 / (virt * float64(passes)),
		"heap_live_mb":          maxOf(heapMB),
		"missions_per_s":        float64(len(latencies)) / wall,
		"result_latency_p50_s":  median(latencies),
		"result_latency_tail_s": latTail,
		"api_read_p50_ms":       median(rd.lat),
		"api_read_tail_ms":      readTail,
	}, nil
}

// bestOf takes one mission's runs, one a pass, and returns each control
// period's best host ms over them and the mission's best latency in
// seconds: the best set-up, plus the best periods, plus the best closing
// stretch after the last whole period.
func bestOf(runs []missionRun) (periods []float64, latency float64, err error) {
	periods = append([]float64(nil), runs[0].periods...)
	setup, closing := math.Inf(1), math.Inf(1)
	for _, mr := range runs {
		if len(mr.periods) != len(periods) {
			return nil, 0, fmt.Errorf("%d control periods in one pass and %d in another", len(periods), len(mr.periods))
		}
		for k, ms := range mr.periods {
			periods[k] = math.Min(periods[k], ms)
		}
		setup = math.Min(setup, mr.setup)
		closing = math.Min(closing, mr.closing)
	}
	latency = setup + closing
	for _, ms := range periods {
		latency += ms / 1000
	}
	return periods, latency, nil
}

// simCounters are virtual-time counts copied from mission results. They
// repeat exactly for a seed; a host-time change must not move them.
type simCounters struct{ sent, delivered, switches, overwrites int }

func (c *simCounters) add(res *core.Result) {
	c.sent += res.Net.Sent
	c.delivered += res.Net.Delivered
	c.switches += res.Switches
	c.overwrites += res.MsgsOverwritten
}

func (c simCounters) report(v values) {
	v["netsim.delivery_ratio"] = ratio(c.delivered, c.sent)
	v["core.switches"] = float64(c.switches)
	v["muxer.overwrites"] = float64(c.overwrites)
}

// traceResult is what a traced run of missions yields.
type traceResult struct {
	tr          *stepTracer
	sim         simCounters
	overheadPct float64        // traced vs untraced wall, same missions
	wallPct     []float64      // per on/off pair: sinks-on wall over bare, %
	allocPct    []float64      // per on/off pair: sinks-on bytes over bare, %
	tel         *obs.Telemetry // a traced mission's registry
	virtStored  float64        // virtual seconds recorded into the store
	dropped     uint64
}

// traced stamps the first n missions of order and runs each again
// untraced with the workload's own sinks, rotating which goes first; the
// wall ratio is the tracing overhead. With pairs, every mission also
// runs bare, and further sinks-on/bare pairs fill the run's seconds:
// that is the observability on/off comparison.
func (r *missionRunner) traced(order []int64, n int, observed, pairs bool, dl deadline, t *tally) (traceResult, error) {
	res := traceResult{tr: newStepTracer()}
	var tracedWall, plainWall time.Duration
	for i := 0; i < n || (pairs && !dl.passed()); i++ {
		seed := order[i%len(order)]
		kinds := []string{"traced", "plain"}
		switch {
		case pairs && i >= n:
			kinds = []string{"plain", "bare"}
		case pairs:
			kinds = append(kinds, "bare")
		}
		var plain, bare missionRun
		for k := range kinds {
			kind := kinds[(k+i)%len(kinds)]
			o := runOpts{observed: observed && kind != "bare"}
			if kind == "traced" {
				o.tracer = res.tr
			}
			mr, err := r.run(seed, o, t)
			if err != nil {
				return res, err
			}
			if o.observed {
				res.virtStored += mr.virt
				res.dropped += mr.dropped
			}
			switch kind {
			case "traced":
				tracedWall += mr.wall
				res.sim.add(mr.res)
				res.tel = mr.tel
			case "plain":
				plain = mr
			case "bare":
				bare = mr
			}
		}
		if i < n {
			plainWall += plain.wall
		}
		if pairs {
			res.wallPct = append(res.wallPct, 100*(plain.wall.Seconds()/bare.wall.Seconds()-1))
			res.allocPct = append(res.allocPct, 100*(float64(plain.alloc)/float64(bare.alloc)-1))
		}
	}
	res.overheadPct = 100 * (tracedWall.Seconds()/plainWall.Seconds() - 1)
	return res, nil
}

// values reports the stamped layers, the simulated counters and the
// tracing overhead.
func (res traceResult) values() (values, error) {
	v := values{}
	res.tr.lt.report(v)
	res.sim.report(v)
	v["trace.overhead_pct"] = res.overheadPct
	render, err := timeN(5, func() error { return res.tel.Reg.WritePrometheus(io.Discard, "lgv") })
	if err != nil {
		return nil, err
	}
	v["obs.prom_render_ms"] = render
	return v, nil
}

// timeN runs f n times and returns the median duration in ms.
func timeN(n int, f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, millis(time.Since(t0)))
	}
	return median(ms), nil
}

func runNavObserved(rc runConfig, t *tally) (values, error) {
	st, err := store.Open(filepath.Join(rc.tmpDir, "nav.lgvstore"))
	if err != nil {
		return nil, err
	}
	r := &missionRunner{workload: "nav-observed", build: navConfig, passSeconds: 6.5,
		st: st, readPath: navPath}
	// The store is the run's scratch copy, deleted with its directory;
	// a failed Close loses nothing the benchmark reports.
	defer func() { r.st.Close() }()
	if !rc.traced {
		return r.endToEnd(rc, true, t)
	}
	res, err := r.traced(poolOrder(rc.seed, missionPool), navTraced, true, true, newDeadline(rc.seconds), t)
	if err != nil {
		return nil, err
	}
	v, err := res.values()
	if err != nil {
		return nil, err
	}
	v["obs.wall_overhead_pct"] = median(res.wallPct)
	v["obs.wall_overhead_iqr_pct"] = iqr(res.wallPct)
	v["obs.alloc_overhead_pct"] = median(res.allocPct)
	resolves := "cannot"
	if v["obs.wall_overhead_iqr_pct"] < 10 {
		resolves = "can"
	}
	fmt.Fprintf(os.Stderr, "perfbench: sinks on vs off over %d pairs: wall %+.1f%% (IQR %.1f points, so it %s resolve a 10%% effect), bytes %+.1f%%\n",
		len(res.wallPct), v["obs.wall_overhead_pct"], v["obs.wall_overhead_iqr_pct"], resolves, v["obs.alloc_overhead_pct"])
	return v, storeLayer(r, v, res.virtStored, res.dropped)
}

func runExplore(rc runConfig, t *tally) (values, error) {
	r := &missionRunner{workload: "explore", build: exploreConfig, passSeconds: 13, readPath: explorePath}
	if !rc.traced {
		return r.endToEnd(rc, false, t)
	}
	res, err := r.traced(poolOrder(rc.seed, missionPool), exploreTraced, false, false, deadline{}, t)
	if err != nil {
		return nil, err
	}
	return res.values()
}

// storeLayer times the store's read paths on the run's own store, then
// closes and reopens it a few times to time recovery.
func storeLayer(r *missionRunner, v values, virt float64, dropped uint64) error {
	fleet, err := timeN(3, func() error { _, err := r.st.FleetStats(store.Filter{}); return err })
	if err != nil {
		return err
	}
	stats := r.st.Stats()
	var id string
	for _, m := range r.st.List(store.Filter{}) {
		if m.Finished() {
			id = m.Start.ID
			break
		}
	}
	read, err := timeN(3, func() error { _, err := r.st.ReadMission(id); return err })
	if err != nil {
		return err
	}
	var reopen []float64
	for i := 0; i < 3; i++ {
		if err := r.st.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := store.Open(stats.Path)
		reopen = append(reopen, millis(time.Since(t0)))
		if err != nil {
			return err
		}
		r.st = st
	}
	v["store.fleet_ms"] = fleet
	v["store.fleet_ms_per_mission"] = fleet / float64(stats.Missions)
	v["store.read_mission_ms"] = read
	v["store.reopen_ms"] = median(reopen)
	v["store.bytes_per_sim_s"] = float64(stats.Bytes) / virt
	v["store.records_dropped"] = float64(dropped)
	return nil
}
