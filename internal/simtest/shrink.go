package simtest

import (
	"strings"
)

// ShrinkResult is the outcome of minimizing a violating scenario.
type ShrinkResult struct {
	Scenario Scenario `json:"scenario"`
	// Error is the invariant failure message on the minimized scenario.
	Error string `json:"error"`
	Steps int    `json:"steps"` // reductions that stuck
	Runs  int    `json:"runs"`  // mission runs spent shrinking
}

// Shrink greedily minimizes a scenario that violates inv, spending at
// most budget mission runs. Each pass proposes reductions from
// most to least aggressive — drop the whole fault schedule, bisect it,
// drop single windows, truncate the mission, collapse the fleet, drop
// waypoints, shrink pipeline sizes — and keeps any candidate that
// still violates; it stops when a full pass yields no progress.
func Shrink(sc Scenario, inv Invariant, budget int) ShrinkResult {
	if budget <= 0 {
		budget = 48
	}
	curErr, ok, runs := violates(sc, inv)
	res := ShrinkResult{Scenario: sc, Error: curErr, Runs: runs}
	if !ok {
		return res // not actually violating; nothing to do
	}
	for {
		improved := false
		for _, cand := range reductions(res.Scenario) {
			if res.Runs >= budget {
				return res
			}
			msg, still, runs := violates(cand, inv)
			res.Runs += runs
			if still {
				res.Scenario = cand
				res.Error = msg
				res.Steps++
				improved = true
				break // restart the pass from the most aggressive reduction
			}
		}
		if !improved {
			return res
		}
	}
}

// reductions proposes candidate simplifications, most aggressive first.
func reductions(sc Scenario) []Scenario {
	var out []Scenario
	add := func(f func(*Scenario)) {
		c := sc
		// Deep-copy the slices a reduction may mutate.
		c.Waypoints = append([][2]float64(nil), sc.Waypoints...)
		c.Link.WAPs = append([][2]float64(nil), sc.Link.WAPs...)
		f(&c)
		out = append(out, c)
	}

	windows := splitSpec(sc.Faults)
	if len(windows) > 0 {
		add(func(c *Scenario) { c.Faults = "" })
	}
	if len(windows) > 1 {
		half := len(windows) / 2
		add(func(c *Scenario) { c.Faults = strings.Join(windows[:half], ";") })
		add(func(c *Scenario) { c.Faults = strings.Join(windows[half:], ";") })
		for i := range windows {
			i := i
			add(func(c *Scenario) {
				rest := append(append([]string(nil), windows[:i]...), windows[i+1:]...)
				c.Faults = strings.Join(rest, ";")
			})
		}
	}
	if sc.MaxSimTime > 20 {
		add(func(c *Scenario) { c.MaxSimTime = max2(20, c.MaxSimTime/2) })
	}
	if sc.Fleet > 1 {
		add(func(c *Scenario) { c.Fleet = 1 })
		if sc.Fleet > 3 {
			add(func(c *Scenario) { c.Fleet = c.Fleet / 2 })
		}
	}
	if len(sc.Waypoints) > 0 {
		add(func(c *Scenario) { c.Waypoints = nil })
	}
	if len(sc.Link.WAPs) > 0 {
		// Collapse roaming to the primary WAP, then try halving the AP set.
		add(func(c *Scenario) { c.Link.WAPs = nil })
		if len(sc.Link.WAPs) > 1 {
			add(func(c *Scenario) { c.Link.WAPs = c.Link.WAPs[:len(c.Link.WAPs)/2] })
		}
	}
	if sc.Link.Profile == "trace" {
		// Swap trace replay for the plain analytic fade model.
		add(func(c *Scenario) { c.Link.Profile = "fade"; c.Link.Trace = "" })
	}
	if sc.World.Kind == "clutter" && sc.World.Obstacles > 0 {
		add(func(c *Scenario) { c.World.Obstacles = 0; c.World.Kind = "empty" })
		if sc.World.Obstacles > 1 {
			add(func(c *Scenario) { c.World.Obstacles = c.World.Obstacles / 2 })
		}
	}
	if sc.TrackerSamples > 200 {
		add(func(c *Scenario) { c.TrackerSamples = 200 })
	}
	if sc.SlamParticles > 10 {
		add(func(c *Scenario) { c.SlamParticles = 10 })
	}
	if sc.Deploy.Threads > 1 {
		add(func(c *Scenario) { c.Deploy.Threads = 1 })
	}
	return out
}

func splitSpec(spec string) []string {
	if spec == "" {
		return nil
	}
	return strings.Split(spec, ";")
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
