// Command lgvsim runs a single configurable end-to-end mission on the
// simulated testbed and prints the paper's metrics: mission time split
// (Eq. 2a), per-component energy (Eq. 1a), the Table II cycle breakdown,
// network statistics and adaptation events.
//
// Usage examples:
//
//	lgvsim                                   # adaptive navigation in the lab
//	lgvsim -workload explore -deploy cloud -threads 12
//	lgvsim -deploy local -seed 7
//	lgvsim -deploy adaptive -goal ec -veltrace   # with a velocity trace
//	lgvsim -deploy adaptive -telemetry out.jsonl -postmortem
//	lgvsim -trace trace.json -spans spans.jsonl  # causal VDP trace
//	lgvsim -http :8080                           # live dashboard + inspection
//	lgvsim -store missions.lgvstore -http :8080  # persist + browse history
//	lgvsim -faults "wap:20-35;server:60-80"      # scripted disturbances
//	lgvsim -verify trace.json metrics.prom       # validate artifacts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lgvoffload"
)

func main() {
	workload := flag.String("workload", "nav", "workload: nav | explore | coverage")
	mapName := flag.String("map", "lab", "world: lab | deadzone (corridor through a WAP dead zone)")
	deploy := flag.String("deploy", "adaptive", "deployment: local | edge | cloud | adaptive")
	threads := flag.Int("threads", 8, "acceleration threads on the server")
	goal := flag.String("goal", "mct", "Algorithm 1 goal for adaptive mode: ec | mct")
	seed := flag.Int64("seed", 42, "simulation seed")
	maxTime := flag.Float64("maxtime", 1800, "simulated-time budget (s)")
	velTrace := flag.Bool("veltrace", false, "print the velocity/bandwidth trace")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (load in Perfetto) to this file")
	spansOut := flag.String("spans", "", "write the raw span stream to this JSONL file")
	httpAddr := flag.String("http", "", `serve the inspection endpoint and fleet dashboard on this address (e.g. ":8080"); starts before the mission, so /live streams it, and keeps serving after`)
	telemetry := flag.String("telemetry", "", "write the mission event timeline to this JSONL file")
	postmortem := flag.Bool("postmortem", false, "print the telemetry post-mortem report")
	postmortemOut := flag.String("postmortem-out", "", "also write the post-mortem report into this directory, under a unique timestamped, mission-suffixed filename")
	storePath := flag.String("store", "", "record the mission into this embedded mission store file (created if absent; served by -http)")
	faultSpec := flag.String("faults", "", `fault schedule, e.g. "wap:10-20;server:30-45;burst:50-52:0.9"`)
	waps := flag.String("waps", "", `extra access points for multi-WAP roaming, e.g. "6,3;11,5" (x,y meters; the link hands off to the strongest AP with hysteresis)`)
	linkTrace := flag.String("linktrace", "", "replay a link-condition trace instead of the analytic model: a builtin name (office-roam | garage-deepfade | cafe-congestion) or a .lgvtrace file path")
	sloSpec := flag.String("slo", "", `live SLO rules, e.g. "vdp_p99<=0.5@30s,energy_rate~3@20s" ("default" for the stock set); breaches hit the timeline, /health and the flight recorder`)
	sloStrict := flag.Bool("slo-strict", false, "exit 3 if any SLO rule breached during the mission (CI gate; implies -slo default when -slo is unset)")
	flightRec := flag.Bool("flightrec", false, "attach the always-on flight recorder (bundles kept in memory; see -flight-dir)")
	flightDir := flag.String("flight-dir", "", "write flight bundles into this directory (implies -flightrec; created if absent)")
	verify := flag.Bool("verify", false, "validate the artifact files given as arguments (flight bundle, Chrome trace or Prometheus text, told apart by content) and exit (0 all valid / 1 otherwise); runs no mission")
	serveMode := flag.Bool("serve", false, "run as the mission control plane: admit scenario specs over HTTP (POST /missions on -http, default :8080), multiplex them through a bounded scheduler, record into -store; SIGINT/SIGTERM drains")
	serveMaxRunning := flag.Int("serve-max-running", 4, "serve: missions stepped concurrently (the run ring)")
	serveMaxQueued := flag.Int("serve-max-queued", 1024, "serve: bounded admission queue; POST /missions returns 503 when full")
	serveQueueTimeout := flag.Duration("serve-queue-timeout", 0, "serve: evict missions queued longer than this (0 = never)")
	serveDrainTimeout := flag.Duration("serve-drain-timeout", time.Minute, "serve: how long a shutdown drain waits before force-canceling")
	flag.Parse()

	// Utility mode: structural verification of artifacts produced by a
	// previous run, for CI smoke tests. No mission is run.
	if *verify {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: lgvsim -verify FILE...")
			os.Exit(2)
		}
		os.Exit(runVerify(flag.Args(), os.Stdout, os.Stderr))
	}
	if *serveMode {
		runServe(*httpAddr, *storePath, serveFlags{
			maxRunning:   *serveMaxRunning,
			maxQueued:    *serveMaxQueued,
			queueTimeout: *serveQueueTimeout,
			drainTimeout: *serveDrainTimeout,
		})
		return
	}

	var d lgvoffload.Deployment
	g := lgvoffload.GoalMCT
	if *goal == "ec" {
		g = lgvoffload.GoalEC
	}
	switch *deploy {
	case "local":
		d = lgvoffload.DeployLocal()
	case "edge":
		d = lgvoffload.DeployEdge(*threads)
	case "cloud":
		d = lgvoffload.DeployCloud(*threads)
	case "adaptive":
		d = lgvoffload.DeployAdaptive(lgvoffload.HostEdge, *threads, g)
	default:
		fmt.Fprintf(os.Stderr, "unknown deployment %q\n", *deploy)
		os.Exit(2)
	}

	cfg := lgvoffload.MissionConfig{
		Map:         lgvoffload.LabMap(),
		Start:       lgvoffload.Pose(0.6, 0.6, 0),
		Goal:        lgvoffload.Point(11, 5),
		WAP:         lgvoffload.Point(6, 3),
		Deployment:  d,
		Seed:        *seed,
		MaxSimTime:  *maxTime,
		RecordTrace: *velTrace,
	}
	switch *mapName {
	case "lab":
	case "deadzone":
		// A 24 m corridor whose far end is out of WAP range: the adaptive
		// policy must shed remote nodes and finally retreat to local
		// compute mid-mission — the post-mortem's showcase.
		link := lgvoffload.DeadZoneLink(lgvoffload.Point(1, 1.5))
		cfg.Map = lgvoffload.EmptyRoomMap(24, 3, 0.1)
		cfg.Start = lgvoffload.Pose(1, 1.5, 0)
		cfg.Goal = lgvoffload.Point(22, 1.5)
		cfg.WAP = lgvoffload.Point(1, 1.5)
		cfg.LinkCfg = &link
	default:
		fmt.Fprintf(os.Stderr, "unknown map %q\n", *mapName)
		os.Exit(2)
	}
	switch *workload {
	case "explore":
		cfg.Workload = lgvoffload.ExplorationNoMap
	case "coverage":
		cfg.Workload = lgvoffload.CoverageWithMap
	}
	if *faultSpec != "" {
		sched, err := lgvoffload.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faults:", err)
			os.Exit(2)
		}
		cfg.Faults = &sched
	}
	if *waps != "" {
		pts, err := parseWAPs(*waps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "waps:", err)
			os.Exit(2)
		}
		cfg.WAPs = pts
	}
	if *linkTrace != "" {
		tr, err := loadLinkTrace(*linkTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "linktrace:", err)
			os.Exit(2)
		}
		cfg.LinkTrace = tr
	}

	var tel *lgvoffload.Telemetry
	if *telemetry != "" || *postmortem || *postmortemOut != "" || *httpAddr != "" ||
		*sloSpec != "" || *sloStrict || *flightRec || *flightDir != "" {
		// A long mission at 5 Hz emits several events per tick; a roomy
		// ring keeps the early adaptation decisions from being evicted.
		// The SLO engine and flight recorder ride on telemetry too: the
		// breach counter lives in its registry, and the recorder's
		// bundles copy their events from its timeline.
		tel = lgvoffload.NewTelemetry(1 << 16)
		cfg.Telemetry = tel
	}

	// Live SLO rules: -slo-strict without -slo means the stock set.
	spec := *sloSpec
	if spec == "" && *sloStrict {
		spec = "default"
	}
	var slo *lgvoffload.SLOEngine
	if spec != "" {
		rules, err := lgvoffload.ParseSLORules(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slo:", err)
			os.Exit(2)
		}
		slo = lgvoffload.NewSLOEngine(rules)
		cfg.SLO = slo
	}

	// Flight recorder: always-on black box; -flight-dir also writes each
	// bundle to disk.
	var fr *lgvoffload.FlightRecorder
	if *flightRec || *flightDir != "" {
		if *flightDir != "" {
			if err := os.MkdirAll(*flightDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "flight-dir:", err)
				os.Exit(1)
			}
		}
		fr = lgvoffload.NewFlightRecorder(lgvoffload.FlightConfig{Dir: *flightDir})
		cfg.FlightRec = fr
	}
	var tracer *lgvoffload.Tracer
	if *traceOut != "" || *spansOut != "" || *httpAddr != "" || *storePath != "" {
		tracer = lgvoffload.NewTracer(0)
		cfg.Tracer = tracer
	}

	// Mission store: open before the run so the dashboard can serve
	// history from previous runs while this mission records live.
	var st *lgvoffload.Store
	var rec *lgvoffload.MissionRecorder
	if *storePath != "" {
		var err error
		st, err = lgvoffload.OpenStore(*storePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "store:", err)
			os.Exit(1)
		}
		rec, err = st.Begin(lgvoffload.MissionStart{
			Unix:       time.Now().Unix(),
			Label:      "lgvsim",
			Seed:       *seed,
			Workload:   cfg.Workload.String(),
			Deploy:     d.Name,
			Goal:       g.String(),
			Threads:    *threads,
			FaultSpec:  *faultSpec,
			MaxSimTime: *maxTime,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "store:", err)
			os.Exit(1)
		}
		cfg.Store = rec
	}

	// HTTP inspector: listen BEFORE the mission so /live streams the run
	// as it happens (and CI smoke tests can probe mid-mission).
	var hub *lgvoffload.LiveHub
	if *httpAddr != "" {
		hub = lgvoffload.NewLiveHub(0)
		tel.Tee(hub)
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "http:", err)
			os.Exit(1)
		}
		handler := lgvoffload.NewInspectorWith(lgvoffload.InspectorConfig{
			Telemetry: tel, Trace: tracer, Store: st, Live: hub, SLO: slo,
		})
		fmt.Printf("inspect:   serving http://%s/ (dashboard at /dash, live SSE at /live)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, handler); err != nil {
				fmt.Fprintln(os.Stderr, "http:", err)
				os.Exit(1)
			}
		}()
	}

	res, err := lgvoffload.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mission error:", err)
		os.Exit(1)
	}
	if rec != nil {
		id := rec.ID()
		if err := rec.Finish(lgvoffload.StoreSummary(res)); err != nil {
			fmt.Fprintln(os.Stderr, "store:", err)
			os.Exit(1)
		}
		fmt.Printf("store:     mission %s recorded in %s\n", id, *storePath)
		if hub != nil {
			frame, _ := json.Marshal(map[string]any{
				"id": id, "success": res.Success, "reason": res.Reason,
			})
			hub.Publish("mission", frame)
		}
	}

	fmt.Printf("mission:   %s on %s (seed %d)\n", cfg.Workload, d.Name, *seed)
	fmt.Printf("outcome:   success=%v (%s)\n", res.Success, res.Reason)
	fmt.Printf("time:      total %.1f s = moving %.1f s + standby %.1f s (Eq. 2a)\n",
		res.TotalTime, res.MovingTime, res.StandbyTime)
	fmt.Printf("motion:    %.2f m traveled, avg velocity cap %.3f m/s\n", res.Distance, res.AvgMaxVel)
	if cfg.Workload == lgvoffload.ExplorationNoMap {
		fmt.Printf("explored:  %.0f%% of free space\n", res.Explored*100)
	}
	if cfg.Workload == lgvoffload.CoverageWithMap {
		fmt.Printf("covered:   %.0f%% of the floor\n", res.Covered*100)
	}
	fmt.Println("\nenergy (Eq. 1a):")
	for _, comp := range lgvoffload.EnergyComponents {
		fmt.Printf("  %-18s %8.1f J\n", comp, res.Energy[comp])
	}
	fmt.Printf("  %-18s %8.1f J\n", "TOTAL", res.TotalEnergy)
	fmt.Println("\nworkload cycles (Table II):")
	for _, row := range res.Cycles.Breakdown() {
		fmt.Printf("  %s\n", row)
	}
	fmt.Printf("\nnetwork:   %d msgs sent, %d dropped, %d overwritten, %.1f KB uplinked, %d placement switches\n",
		res.MsgsSent, res.MsgsDropped, res.MsgsOverwritten, res.BytesUplinked/1024, res.Switches)
	if len(cfg.WAPs) > 0 {
		fmt.Printf("roaming:   %d APs, %d handoffs", len(cfg.WAPs)+1, res.Handoffs)
		for i, t := range res.HandoffTimes {
			if i == 0 {
				fmt.Printf(" at t=")
			} else {
				fmt.Printf(", ")
			}
			fmt.Printf("%.1f s", t)
		}
		fmt.Println()
	}
	if *faultSpec != "" {
		fmt.Printf("faults:    %d injected, %d watchdog stops, %d failovers\n",
			res.FaultsInjected, res.WatchdogStops, res.Failovers)
	}
	if slo != nil {
		breaches := slo.Breaches()
		h := slo.Health()
		fmt.Printf("slo:       %d rules, %d breaches, healthy=%v\n",
			len(slo.Rules()), len(breaches), h.Healthy)
		for _, b := range breaches {
			fmt.Printf("  t=%7.1f  %-30s value %.4g > limit %.4g\n", b.T, b.Rule, b.Value, b.Limit)
		}
	}
	if fr != nil {
		bundles := fr.Bundles()
		fmt.Printf("flightrec: %d frames in ring, %d bundles dumped\n", fr.FrameCount(), len(bundles))
		for _, b := range bundles {
			loc := "in memory"
			if b.File != "" {
				loc = b.File
			}
			if b.WriteErr != "" {
				loc = "WRITE FAILED: " + b.WriteErr
			}
			fmt.Printf("  t=%7.1f  %-20s %4d frames, %4d events  %s\n",
				b.T, b.Reason, b.Frames, b.Events, loc)
		}
	}

	if *telemetry != "" {
		f, err := os.Create(*telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
			os.Exit(1)
		}
		if err := tel.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: %d events written to %s\n", len(tel.Events()), *telemetry)
	}
	if *postmortem {
		fmt.Println()
		if err := lgvoffload.WritePostMortem(os.Stdout, tel, res.TotalTime); err != nil {
			fmt.Fprintln(os.Stderr, "post-mortem:", err)
			os.Exit(1)
		}
	}
	if *postmortemOut != "" {
		path, err := writePostMortemFile(*postmortemOut, cfg.Workload.String(), d.Name, *seed, tel, res.TotalTime)
		if err != nil {
			fmt.Fprintln(os.Stderr, "post-mortem:", err)
			os.Exit(1)
		}
		fmt.Printf("post-mortem: written to %s\n", path)
	}

	if tracer != nil {
		writeFile := func(path string, write func(io.Writer) error, what string) {
			f, err := os.Create(path)
			if err == nil {
				err = write(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
				os.Exit(1)
			}
		}
		if *traceOut != "" {
			writeFile(*traceOut, tracer.WriteChrome, "trace")
			fmt.Printf("trace:     %d spans written to %s (chrome://tracing or https://ui.perfetto.dev)\n",
				tracer.Len(), *traceOut)
		}
		if *spansOut != "" {
			writeFile(*spansOut, tracer.WriteJSONL, "spans")
			fmt.Printf("spans:     %d spans written to %s\n", tracer.Len(), *spansOut)
		}
		paths := lgvoffload.AnalyzeTicks(tracer.Spans())
		fmt.Println("\nVDP critical path (per-tick decomposition):")
		lgvoffload.WriteCritPathTable(os.Stdout, paths, 20)
	}

	if *velTrace {
		fmt.Println("\ntrace (t, vmax, vreal, bw, remote):")
		step := len(res.Trace) / 40
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(res.Trace); i += step {
			tp := res.Trace[i]
			fmt.Printf("  %6.1f  %.3f  %.3f  %5.1f  %v\n",
				tp.T, tp.MaxVel, tp.RealVel, tp.Bandwidth, tp.RemoteOn)
		}
	}

	// CI gate: a breached mission is a failed mission under -slo-strict.
	// Checked after all reporting so the breach list above still prints,
	// and before the -http wait so CI runs terminate.
	if *sloStrict && slo != nil && len(slo.Breaches()) > 0 {
		fmt.Fprintf(os.Stderr, "slo-strict: %d breaches — failing\n", len(slo.Breaches()))
		os.Exit(3)
	}

	if *httpAddr != "" {
		// Keep serving so the recorded mission, store history and live
		// stream stay inspectable; ^C to quit.
		fmt.Printf("\ninspect:   still serving (dashboard, metrics, timeline, trace, pprof); ^C to quit\n")
		select {}
	}
}

// parseWAPs parses a ";"-separated list of "x,y" access-point positions.
func parseWAPs(spec string) ([]lgvoffload.Vec2, error) {
	var out []lgvoffload.Vec2
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		xy := strings.Split(part, ",")
		if len(xy) != 2 {
			return nil, fmt.Errorf("%q: want \"x,y\"", part)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(xy[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", part, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(xy[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", part, err)
		}
		out = append(out, lgvoffload.Point(x, y))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no access points in %q", spec)
	}
	return out, nil
}

// loadLinkTrace resolves a builtin trace name, falling back to reading
// the argument as a .lgvtrace file path.
func loadLinkTrace(arg string) (*lgvoffload.LinkTrace, error) {
	if tr, err := lgvoffload.BuiltinTrace(arg); err == nil {
		return tr, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a builtin trace (%s) nor a readable file: %v",
			arg, strings.Join(lgvoffload.BuiltinTraceNames(), " | "), err)
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(arg), ".lgvtrace")
	return lgvoffload.ParseLinkTrace(name, f)
}

// writePostMortemFile renders the post-mortem into dir under a unique
// timestamped, mission-suffixed name, so repeated runs never overwrite
// an earlier report. On a filename collision (two runs in the same
// second with identical parameters) a numeric suffix disambiguates.
func writePostMortemFile(dir, workload, deploy string, seed int64, tel *lgvoffload.Telemetry, missionTime float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stamp := time.Now().UTC().Format("20060102-150405")
	base := fmt.Sprintf("postmortem-%s-%s-seed%d-%s", workload, deploy, seed, stamp)
	for i := 0; ; i++ {
		name := base + ".txt"
		if i > 0 {
			name = fmt.Sprintf("%s.%d.txt", base, i)
		}
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if err := lgvoffload.WritePostMortem(f, tel, missionTime); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
}
