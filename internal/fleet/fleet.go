// Package fleet extends the paper's single-robot evaluation to the
// multi-robot setting its introduction motivates ("LGVs operate in a
// group"): k vehicles share one remote server, so each robot's share of
// the server shrinks as the fleet grows. The model is deliberately
// simple — fair-share partitioning of the server's cores — but it
// exposes the deployment question the paper leaves open: a 4-core edge
// gateway saturates after a handful of robots, while the 24-core cloud
// server amortizes across a much larger fleet, so the best remote host
// *crosses over* as fleet size grows.
package fleet

import (
	"fmt"

	"lgvoffload/internal/core"
	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/mw"
)

// ShareServer returns the per-robot view of a server split fairly among
// k robots: each robot sees cores/k cores (at least one) and a sync cost
// inflated by the timesharing (more cross-traffic per barrier).
func ShareServer(p hostsim.Platform, k int) hostsim.Platform {
	if k < 1 {
		k = 1
	}
	shared := p
	shared.Name = fmt.Sprintf("%s ÷%d", p.Name, k)
	shared.Cores = p.Cores / k
	if shared.Cores < 1 {
		shared.Cores = 1
		// Oversubscribed: even a single core is timeshared, so the
		// effective per-clock throughput drops proportionally.
		shared.PerfNorm = p.PerfNorm * float64(p.Cores) / float64(k)
	}
	shared.SyncCycles = p.SyncCycles * float64(min(k, p.Cores))
	return shared
}

// Result is one fleet-size data point: the per-robot mission outcome
// when k robots share the server.
type Result struct {
	FleetSize int
	Host      mw.HostID
	Success   bool
	Time      float64
	Energy    float64
	AvgVmax   float64
}

// Mission returns cfg as run by one of k robots that share its remote
// server: the server's platform becomes its ShareServer view, and the
// deployment's threads are capped at the per-robot core share. It fails
// when the deployment has no remote host.
func Mission(cfg core.MissionConfig, k int) (core.MissionConfig, error) {
	host := cfg.Deployment.Remote
	if host == "" {
		return cfg, fmt.Errorf("fleet: deployment has no remote host")
	}
	shared := ShareServer(defaultPlatform(host), k)
	cfg.Platforms = map[mw.HostID]hostsim.Platform{host: shared}
	if cfg.Deployment.Threads > shared.Cores {
		cfg.Deployment.Threads = shared.Cores
	}
	return cfg, nil
}

// Sweep runs the base mission through run (core.Run, or a wrapper that
// also records it) at each fleet size, as configured by Mission, and
// returns one row per size.
func Sweep(base core.MissionConfig, sizes []int, run func(core.MissionConfig) (*core.Result, error)) ([]Result, error) {
	var out []Result
	for _, k := range sizes {
		cfg, err := Mission(base, k)
		if err != nil {
			return nil, err
		}
		res, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet size %d: %w", k, err)
		}
		out = append(out, Result{
			FleetSize: k, Host: cfg.Deployment.Remote, Success: res.Success,
			Time: res.TotalTime, Energy: res.TotalEnergy, AvgVmax: res.AvgMaxVel,
		})
	}
	return out, nil
}

func defaultPlatform(host mw.HostID) hostsim.Platform {
	switch host {
	case core.HostCloud:
		return hostsim.CloudServer()
	case core.HostEdge:
		return hostsim.EdgeGateway()
	default:
		return hostsim.RaspberryPi()
	}
}

// Crossover returns the smallest fleet size at which the cloud's
// per-robot mission time beats the edge gateway's, given two sweeps over
// the same sizes. ok=false means the cloud never wins in the range.
func Crossover(edge, cloud []Result) (int, bool) {
	n := min(len(edge), len(cloud))
	for i := 0; i < n; i++ {
		if edge[i].FleetSize != cloud[i].FleetSize {
			continue
		}
		if cloud[i].Success && (!edge[i].Success || cloud[i].Time < edge[i].Time) {
			return cloud[i].FleetSize, true
		}
	}
	return 0, false
}
