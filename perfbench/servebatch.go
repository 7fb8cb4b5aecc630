package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lgvoffload/internal/core"
	"lgvoffload/internal/geom"
	"lgvoffload/internal/obs"
	"lgvoffload/internal/serve"
	"lgvoffload/internal/simtest"
	"lgvoffload/internal/store"
)

const (
	// Before the daemon starts, the store holds prefillMissions finished
	// synthetic missions of prefillTicks ticks each: a fleet-sized log,
	// so listing, FleetStats and stored-mission reads cost what they
	// cost the operator of a busy daemon.
	prefillMissions = 300
	prefillTicks    = 200
	// daemonStarts is how many times a run times set-up: store open,
	// scheduler start and listener ready.
	daemonStarts = 11
	// serveReadInterval paces the operator. A fleet read takes some 0.4 s
	// on the pre-filled store, so at one read in twenty the fleet keeps
	// the reader busy about 20% of the time.
	serveReadInterval = 100 * time.Millisecond
	// serveReplays is how many specs of the seed's order a traced run
	// replays solo with layer stamps.
	serveReplays = 6
	// roundSeconds is about how long a round takes on a 2-CPU host. A run
	// does a fixed number of rounds, --seconds / roundSeconds rounded and
	// at least two, so
	// that every run of a seed leaves the same store behind and reads it
	// as often.
	roundSeconds = 12
)

// roundOrder is every round's submission order: coverage missions (the
// longest) first and exploration missions (the shortest) last, each kind
// by scenario seed, so a round ends on short missions and its drain
// leaves an executor idle only briefly. The order is the same in every
// run: a mission's result latency is the work queued ahead of it, so
// with a shuffle per workload seed the latency tail spread 14% between
// seeds.
func roundOrder(kinds map[int64]string) []int64 {
	rank := map[string]int{"coverage": 0, "navigation": 1, "exploration": 2}
	order := poolOrder(0, servePool)
	sort.Slice(order, func(i, j int) bool {
		if a, b := rank[kinds[order[i]]], rank[kinds[order[j]]]; a != b {
			return a < b
		}
		return order[i] < order[j]
	})
	return order
}

// serveSpec renders pool scenario seed as a POST /missions body with
// kernel threads capped at kernelCap (0 leaves them uncapped).
func serveSpec(seed int64, kernelCap int) ([]byte, error) {
	sc := simtest.Generate(seed)
	if kernelCap > 0 {
		sc.KernelThreads = min(max(sc.Deploy.Threads, 1), kernelCap)
	}
	return json.Marshal(sc)
}

// prefill writes the synthetic fleet history. Traced, it also times
// FleetStats after a quarter and after all of the missions.
func prefill(path string, seed int64, traced bool) (quarterMS, fullMS float64, err error) {
	st, err := store.Open(path)
	if err != nil {
		return 0, 0, err
	}
	fleet := func() (float64, error) {
		return timeN(3, func() error { _, err := st.FleetStats(store.Filter{}); return err })
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"navigation", "coverage", "exploration"}
	for i := 1; i <= prefillMissions && err == nil; i++ {
		var rec *store.Recorder
		rec, err = st.Begin(store.MissionStart{Unix: int64(i), Label: "prefill", Seed: int64(i),
			Workload: kinds[i%len(kinds)], Deploy: "adaptive", Goal: "mct", Threads: 4, MaxSimTime: 60})
		if err != nil {
			break
		}
		energy := 0.0
		for k := 0; k < prefillTicks; k++ {
			energy += 0.5 + rng.Float64()
			rec.Tick(store.Tick{T: 0.2 * float64(k), VDP: 0.02 + 0.08*rng.Float64(), EnergyJ: energy,
				Bandwidth: 5 * rng.Float64(), Direction: 2*rng.Float64() - 1, Signal: rng.Float64(),
				MaxVel: 0.5, RealVel: 0.5 * rng.Float64(), RemoteOn: rng.Intn(2) == 0})
		}
		rec.Decision(store.Decision{T: 10, Reason: "alg1-mct", Bandwidth: 4, Direction: 0.5,
			RemoteOK: true, From: "local", To: "edge"})
		err = rec.Finish(store.MissionEnd{Success: rng.Float64() < 0.8, Reason: "goal reached",
			TotalTime: 0.2 * prefillTicks, TotalEnergy: energy,
			Energy: map[string]float64{"compute": energy / 2, "motor": energy / 2}})
		if err == nil && traced && i == prefillMissions/4 {
			quarterMS, err = fleet()
		}
	}
	if err == nil && traced {
		fullMS, err = fleet()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return quarterMS, fullMS, err
}

// tapBuilder is the daemon's spec builder plus a host-time tap: each
// mission's CmdTap stamps every fourth physics step, which gives the host
// time per control period of missions running inside the scheduler. The
// taps are kept by round and pool seed; the scheduler builds a mission
// once at admission and again at dispatch, and the later tap is the one
// that runs.
type tapBuilder struct {
	seedOf map[string]int64 // spec → pool seed
	mu     sync.Mutex
	round  int
	taps   map[[2]int64]*periodTap // {round, seed}
}

// periodTap is written only by the executor stepping its mission. It runs
// the calibration kernel at every period's end and scales the period by
// the kernel runs on either side (calib.go).
type periodTap struct {
	steps         int
	last          time.Time
	calib         float64   // the last kernel run's ms
	ms            []float64 // reference-host ms per control period
	hostMS, refMS float64   // the periods' sums, host and reference ms
}

func (p *periodTap) tap(now float64, cmd geom.Twist, stalled bool) {
	p.steps++
	if p.steps%4 != 0 {
		return
	}
	hostMS := millis(time.Since(p.last))
	c := calibrate()
	if !p.last.IsZero() {
		ms := between(hostMS, p.calib, c)
		p.ms = append(p.ms, ms)
		p.hostMS += hostMS
		p.refMS += ms
	}
	p.calib = c
	p.last = time.Now()
}

func (b *tapBuilder) build(spec []byte) (core.MissionConfig, store.MissionStart, error) {
	cfg, meta, err := simtest.BuildScenarioMission(spec)
	if err != nil {
		return cfg, meta, err
	}
	p := &periodTap{}
	cfg.CmdTap = p.tap
	b.mu.Lock()
	b.taps[[2]int64{int64(b.round), b.seedOf[string(spec)]}] = p
	b.mu.Unlock()
	return cfg, meta, nil
}

// scale is the factor that takes host times of the given round to the
// reference host: the round's control periods in reference ms over the
// same periods in host ms, so the host's speed is weighted by where the
// missions spent their time. Call it only while no mission runs.
func (b *tapBuilder) scale(round int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var hostMS, refMS float64
	for key, p := range b.taps {
		if key[0] == int64(round) {
			hostMS += p.hostMS
			refMS += p.refMS
		}
	}
	return refMS / hostMS
}

// periods returns the best reference-host ms of each control period of each pool
// seed over the rounds, as bestOf does for a mission workload. Call it
// only while no mission runs.
func (b *tapBuilder) periods(rounds int) ([]float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []float64
	for seed := int64(1); seed <= servePool; seed++ {
		var runs []missionRun
		for r := 0; r < rounds; r++ {
			if p := b.taps[[2]int64{int64(r), seed}]; p != nil {
				runs = append(runs, missionRun{periods: p.ms})
			}
		}
		if len(runs) == 0 {
			continue
		}
		best, _, err := bestOf(runs)
		if err != nil {
			return nil, fmt.Errorf("scenario seed %d: %w", seed, err)
		}
		out = append(out, best...)
	}
	return out, nil
}

// daemon is the mission control plane wired as `lgvsim -serve -store`
// wires it, listening on a loopback port.
type daemon struct {
	st     *store.Store
	tel    *obs.Telemetry
	sched  *serve.Scheduler
	srv    *http.Server
	served chan error
	base   string
}

// startDaemon opens the store, starts the scheduler and the listener,
// and returns once GET /healthz answers, with the whole set-up time and
// the part spent opening the store.
func startDaemon(path string, running, workers int, build serve.Builder, c *http.Client) (d *daemon, setup, open time.Duration, err error) {
	t0 := time.Now()
	st, err := store.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	open = time.Since(t0)
	tel := obs.NewTelemetry(1 << 16)
	hub := obs.NewLiveHub(0)
	tel.Tee(hub)
	sched := serve.New(serve.Config{
		Build: build, MaxRunning: running, Workers: workers,
		Store: st, Telemetry: tel, Live: hub,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Shutdown(false, time.Minute)
		st.Close()
		return nil, 0, 0, err
	}
	inspector := obs.NewInspectorWith(obs.InspectorConfig{Telemetry: tel, Store: st, Live: hub})
	d = &daemon{
		st: st, tel: tel, sched: sched, srv: &http.Server{Handler: sched.Handler(inspector)},
		served: make(chan error, 1), base: "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := get(c, d.base+"/healthz"); err != nil {
		d.stop(c)
		return nil, 0, 0, err
	}
	return d, time.Since(t0), open, nil
}

// stop drains the scheduler, closes the server and the store, and waits
// for the server goroutine to return.
func (d *daemon) stop(c *http.Client) error {
	err := d.sched.Shutdown(true, time.Minute)
	d.srv.Close()
	<-d.served
	c.CloseIdleConnections()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// post submits one spec and returns the assigned mission ID.
func post(c *http.Client, url string, spec []byte) (string, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// roundStats is one round's measurements.
type roundStats struct {
	wall     time.Duration
	k        float64 // host-to-reference scale (calib.go)
	virt     float64
	missions int
	latencyS []float64 // POST to result, per mission
}

// batchStats accumulates a run's rounds.
type batchStats struct {
	rounds             []roundStats
	dropped            uint64
	submitMS, statusMS []float64
}

// round POSTs every spec back to back in the given order, waits for all
// of them, and checks each result against its reference.
func (d *daemon) round(c *http.Client, specs map[int64][]byte, order []int64, rd *reader, bs *batchStats, t *tally) {
	type finished struct {
		id    string
		seed  int64
		state serve.State
		err   error
		lat   time.Duration
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		done []finished
	)
	var rs roundStats
	start := time.Now()
	for _, seed := range order {
		posted := time.Now()
		id, err := post(c, d.base+"/missions", specs[seed])
		bs.submitMS = append(bs.submitMS, millis(time.Since(posted)))
		if err != nil {
			t.check(false, "serve-batch seed %d: %v", seed, err)
			continue
		}
		rd.current.Store(id)
		s0 := time.Now()
		_, _ = d.sched.Status(id) // timed probe of a just-admitted ID
		bs.statusMS = append(bs.statusMS, millis(time.Since(s0)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			state, err := d.sched.Wait(id)
			lat := time.Since(posted)
			mu.Lock()
			done = append(done, finished{id, seed, state, err, lat})
			mu.Unlock()
		}()
	}
	wg.Wait()
	rs.wall = time.Since(start)
	for _, f := range done {
		rs.latencyS = append(rs.latencyS, f.lat.Seconds())
		var problems []string
		if f.err != nil || f.state != serve.StateDone {
			problems = append(problems, fmt.Sprintf("ended %s (%v)", f.state, f.err))
		} else if res, err := d.sched.Result(f.id); err != nil {
			problems = append(problems, "result: "+err.Error())
		} else {
			problems = append(problems, digestProblems("serve-batch", f.seed, res)...)
		}
		if st, err := d.sched.Status(f.id); err == nil {
			rs.virt += st.T
			if st.Summary != nil && st.Summary.Dropped > 0 {
				bs.dropped += st.Summary.Dropped
				problems = append(problems, fmt.Sprintf("%d store records dropped", st.Summary.Dropped))
			}
		}
		rs.missions++
		t.check(len(problems) == 0, "serve-batch seed %d (%s): %s", f.seed, f.id, strings.Join(problems, "; "))
	}
	bs.rounds = append(bs.rounds, rs)
}

func runServeBatch(rc runConfig, t *tally) (values, error) {
	// nproc missions run at once, stepped round-robin by nproc-1
	// executors, so one CPU is left to the operator's reads, the API and
	// the collector. With nproc executors every read waited for a CPU,
	// and its latency measured the OS scheduler more than the daemon.
	workers := max(1, rc.cpus-1)
	specs := make(map[int64][]byte, servePool)
	kinds := make(map[int64]string, servePool)
	for s := int64(1); s <= servePool; s++ {
		spec, err := serveSpec(s, 1)
		if err == nil {
			_, _, err = simtest.BuildScenarioMission(spec)
		}
		if err != nil {
			return nil, err
		}
		specs[s] = spec
		kinds[s] = simtest.Generate(s).Workload
	}
	path := filepath.Join(rc.tmpDir, "fleet.lgvstore")
	quarterMS, fullMS, err := prefill(path, rc.seed, rc.traced)
	if err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}

	c := &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: rc.cpus, MaxIdleConnsPerHost: rc.cpus,
	}}
	tb := &tapBuilder{seedOf: map[string]int64{}, taps: map[[2]int64]*periodTap{}}
	for seed, spec := range specs {
		tb.seedOf[string(spec)] = seed
	}
	var setups, opens []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		var setup, open time.Duration
		before := calibrate()
		if d, setup, open, err = startDaemon(path, rc.cpus, workers, tb.build, c); err != nil {
			return nil, err
		}
		setups = append(setups, between(millis(setup), before, calibrate())/1000)
		opens = append(opens, millis(open))
		if i < daemonStarts-1 {
			if err := d.stop(c); err != nil {
				return nil, err
			}
		}
	}

	a0 := allocatedBytes()
	bytes0 := d.st.Stats().Bytes
	rd := startReader(c, d.base, serveReadInterval, servePath)
	var bs batchStats
	var heapMB []float64
	rounds := max(2, int(math.Round(rc.seconds/roundSeconds)))
	for round := 0; round < rounds; round++ {
		tb.mu.Lock()
		tb.round = round
		tb.mu.Unlock()
		d.round(c, specs, roundOrder(kinds), rd, &bs, t)
		rs := &bs.rounds[round]
		rs.k = tb.scale(round)
		for i := range rs.latencyS {
			rs.latencyS[i] *= rs.k
		}
		heapMB = append(heapMB, liveHeapMB())
	}
	rd.halt(t)
	alloc := allocatedBytes() - a0
	storeBytes := d.st.Stats().Bytes - bytes0
	periods, err := tb.periods(rounds)
	if err != nil {
		t.check(false, "serve-batch: %v", err)
	}

	// Every round runs the same specs, and other load on a shared host
	// only ever slows a round down, so each rate and latency is its best
	// round's, and each period its best over the rounds. All are scaled
	// to the reference host: the periods each by the kernel runs beside
	// it, the round-level times by the round's. A tail is the
	// percentile the tail rule picks over all rounds' samples, taken in
	// each round. The operator's reads are pooled over the run.
	var (
		virt            float64
		latencies       []float64
		speeds, calibMS []string
		speed, perSec   []float64
		reads           = rd.lat
	)
	for _, r := range bs.rounds {
		virt += r.virt
		latencies = append(latencies, r.latencyS...)
		speed = append(speed, r.virt/r.wall.Seconds()/r.k)
		perSec = append(perSec, float64(r.missions)/r.wall.Seconds()/r.k)
		speeds = append(speeds, fmt.Sprintf("%.1f", r.virt/r.wall.Seconds()/r.k))
		calibMS = append(calibMS, fmt.Sprintf("%.3f", r.k))
	}
	periodTail, periodQ := tail(periods)
	_, latQ := tail(latencies)
	readTail, readQ := tail(reads)
	inRounds := func(q float64, f func(r roundStats) []float64) float64 {
		var xs []float64
		for _, r := range bs.rounds {
			xs = append(xs, quantile(f(r), q))
		}
		return minOf(xs)
	}
	lats := func(r roundStats) []float64 { return r.latencyS }
	fmt.Fprintf(os.Stderr, "perfbench: serve-batch: %d rounds of %d missions, sim_speed by round %s; tails: periods p%g of %d, results p%g of %d, reads p%g of %d\n",
		rounds, servePool, strings.Join(speeds, " "), 100*periodQ, len(periods), 100*latQ, len(latencies), 100*readQ, len(reads))
	fmt.Fprintf(os.Stderr, "perfbench: host: host-to-reference scale by round %s\n", strings.Join(calibMS, " "))

	if !rc.traced {
		v := values{
			"setup_s":               median(setups),
			"sim_speed":             maxOf(speed),
			"period_wall_p50_ms":    quantile(periods, 0.5),
			"period_wall_tail_ms":   periodTail,
			"alloc_kb_per_sim_s":    float64(alloc) / 1024 / virt,
			"heap_live_mb":          maxOf(heapMB),
			"missions_per_s":        maxOf(perSec),
			"result_latency_p50_s":  inRounds(0.5, lats),
			"result_latency_tail_s": inRounds(latQ, lats),
			"api_read_p50_ms":       median(reads),
			"api_read_tail_ms":      readTail,
		}
		return v, d.stop(c)
	}

	render, err := timeN(5, func() error { return d.tel.Reg.WritePrometheus(io.Discard, "lgv") })
	if err != nil {
		return nil, err
	}
	read, err := timeN(5, func() error { _, err := d.st.ReadMission("m1"); return err })
	if err != nil {
		return nil, err
	}
	admitWait := d.tel.Reg.Histogram(obs.MServeAdmitWaitSeconds, "").Quantile(0.5)
	if err := d.stop(c); err != nil {
		return nil, err
	}

	// The mission layers of the daemon's mix: the first specs of the
	// seed's shuffle replayed solo under the step tracer.
	replay := &missionRunner{workload: "serve-batch", build: func(seed int64) core.MissionConfig {
		cfg, _, err := simtest.BuildScenarioMission(specs[seed])
		if err != nil { // every spec was built once above
			panic(err)
		}
		return cfg
	}}
	res, err := replay.traced(poolOrder(rc.seed*1000, servePool), serveReplays, false, false, deadline{}, t)
	if err != nil {
		return nil, err
	}
	v, err := res.values()
	if err != nil {
		return nil, err
	}
	v["obs.prom_render_ms"] = render
	v["serve.submit_ms"] = median(bs.submitMS)
	v["serve.status_ms"] = median(bs.statusMS)
	v["serve.admit_wait_s"] = admitWait
	v["serve.reader_late_ms"] = quantile(rd.late, 1)
	v["store.fleet_ms"] = fullMS
	v["store.fleet_ms_per_mission"] = fullMS / prefillMissions
	v["store.fleet_growth"] = fullMS / quarterMS
	v["store.read_mission_ms"] = read
	v["store.reopen_ms"] = median(opens)
	v["store.bytes_per_sim_s"] = float64(storeBytes) / virt
	v["store.records_dropped"] = float64(bs.dropped)
	return v, nil
}
