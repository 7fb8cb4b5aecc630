// Command perfbench is the repository benchmark. It drives the system only
// through its entry points — core.NewMission/Step/Result for single
// missions, and the serve scheduler behind its HTTP API for the daemon —
// checks every mission result against a committed reference digest, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload nav-observed --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics (nothing is traced); --trace 1
// is the separate traced run that prints the per-layer metrics. See
// README.md for what each metric measures and which layer moves it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// values are one run's measurements by metric name; units come from the
// declared metric tables below.
type values map[string]float64

// endToEnd and perLayer declare every metric with its unit, as
// BENCHMARK.json does. An untraced run prints exactly the first set, a
// traced run exactly the second.
var endToEnd = map[string]string{
	"setup_s":             "s",
	"sim_speed":           "sim_s/s",
	"period_wall_p50_ms":  "ms",
	"period_wall_tail_ms": "ms",
	"alloc_kb_per_sim_s":  "kB/sim_s",
	"heap_live_mb":        "MiB",
	"missions_per_s":      "1/s",

	"result_latency_p50_s":  "s",
	"result_latency_tail_s": "s",
	"api_read_p50_ms":       "ms",
	"api_read_tail_ms":      "ms",
}

var perLayer = map[string]string{
	"tracker.ms_per_tick":   "ms",
	"costmap.ms_per_tick":   "ms",
	"amcl.ms_per_tick":      "ms",
	"sensor.ms_per_tick":    "ms",
	"slam.ms_per_update":    "ms",
	"slam.updates_per_tick": "ratio",
	"planner.ms_per_plan":   "ms",
	"planner.plans":         "count",
	"explore.ms_per_call":   "ms",
	"netsim.us_per_tick":    "us",
	"core.tick_tail_us":     "us",
	"core.step_tail_us":     "us",

	"sensor.share_pct":   "%",
	"amcl.share_pct":     "%",
	"slam.share_pct":     "%",
	"costmap.share_pct":  "%",
	"planner.share_pct":  "%",
	"coverage.share_pct": "%",
	"explore.share_pct":  "%",
	"tracker.share_pct":  "%",
	"muxer.share_pct":    "%",
	"netsim.share_pct":   "%",
	"core.share_pct":     "%",

	"trace.unattributed_pct":    "%",
	"trace.overhead_pct":        "%",
	"obs.wall_overhead_pct":     "%",
	"obs.wall_overhead_iqr_pct": "%",
	"obs.alloc_overhead_pct":    "%",
	"obs.prom_render_ms":        "ms",

	"serve.submit_ms":      "ms",
	"serve.admit_wait_s":   "s",
	"serve.status_ms":      "ms",
	"serve.reader_late_ms": "ms",

	"store.fleet_ms":             "ms",
	"store.fleet_ms_per_mission": "ms",
	"store.fleet_growth":         "ratio",
	"store.read_mission_ms":      "ms",
	"store.reopen_ms":            "ms",
	"store.bytes_per_sim_s":      "B/sim_s",
	"store.records_dropped":      "count",

	"netsim.delivery_ratio": "ratio",
	"core.switches":         "count",
	"muxer.overwrites":      "count",
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// withUnits attaches units to a run's values. A traced run reports 0 for
// a layer its workload does not exercise (serve.* on the mission
// workloads, slam.* on nav-observed); an untraced run must measure every
// end-to-end metric.
func withUnits(v values, traced bool) (map[string]metric, error) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	for name := range v {
		if _, ok := set[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	out := make(map[string]metric, len(set))
	for name, unit := range set {
		x, ok := v[name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, x)
		}
		out[name] = metric{x, unit}
	}
	return out, nil
}

// tally counts operations and failures. A failure is a mission error, a
// digest mismatch, an HTTP non-2xx, a terminal state other than done, a
// store Finish error or a Recorder drop; each is logged to stderr.
type tally struct {
	attempted, failed int
}

func (t *tally) check(good bool, format string, args ...any) {
	t.attempted++
	if !good {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// cpus is nproc; it sizes the daemon.
	cpus int
	// tmpDir is the run's scratch directory inside the checkout.
	tmpDir string
}

var workloads = []struct {
	name string
	run  func(rc runConfig, t *tally) (values, error)
}{
	{"nav-observed", runNavObserved},
	{"explore", runExplore},
	{"serve-batch", runServeBatch},
}

func main() {
	name := flag.String("workload", "", "nav-observed, explore or serve-batch")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.String("record", "", "record the reference digests into this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordReference(*record); err != nil {
			fail(err)
		}
		return
	}
	run := -1
	for i, w := range workloads {
		if w.name == *name {
			run = i
		}
	}
	if run < 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload {nav-observed|explore|serve-batch} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	if err := loadReference(); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp(".bench_build/tmp", "run-")
	if err != nil {
		fail(err)
	}
	fp, _ := json.Marshal(map[string]any{"fingerprint": fingerprint(*name, *seed, *trace)})
	fmt.Println(string(fp))

	var t tally
	v, err := workloads[run].run(runConfig{
		seed: *seed, seconds: *secs, traced: *trace == 1,
		cpus: runtime.NumCPU(), tmpDir: tmp,
	}, &t)
	os.RemoveAll(tmp)
	if err != nil {
		fail(err)
	}
	ms, err := withUnits(v, *trace == 1)
	if err != nil {
		fail(err)
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	out, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// deadline is a run's measured window: work keeps starting whole units
// (missions, rounds) until it has passed. The zero deadline has passed.
type deadline struct {
	start time.Time
	span  time.Duration
}

func newDeadline(seconds float64) deadline {
	return deadline{start: time.Now(), span: time.Duration(seconds * float64(time.Second))}
}

func (d deadline) passed() bool { return time.Since(d.start) >= d.span }
