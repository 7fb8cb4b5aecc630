package simtest

import (
	"bytes"
	"fmt"
	"time"

	"lgvoffload/internal/core"
	"lgvoffload/internal/serve"
	"lgvoffload/internal/store"
)

// sched-fair invariant: the mission control plane (internal/serve) is a
// pure multiplexer. With K missions admitted and max-running < K it
// must (a) dispatch in admission order, (b) starve no running mission —
// the slices of other missions between two consecutive slices of any
// one mission stay bounded by the ring size — and (c) change nothing
// about the missions themselves: every multiplexed Result is
// byte-identical (Canonical) to the same scenario run solo through
// RunScenario. Gated behind Options.Sched / CampaignOpts.SchedEvery
// because it costs schedFairK-1 solo runs plus schedFairK scheduler
// runs per scenario.
const (
	schedFairK          = 3
	schedFairMaxRunning = 2
	// schedFairSliceSteps is deliberately small so even short missions
	// get preempted many times — interleaving is the thing under test.
	schedFairSliceSteps = 64
	// schedFairGapSlack covers executor-interleaving skew on top of the
	// structural MaxRunning-1 round-robin bound.
	schedFairGapSlack = 2
)

// schedVariant derives the i-th admitted scenario: the same mission
// shape with a shifted rng seed, so the scheduler is multiplexing
// genuinely different trajectories.
func schedVariant(sc Scenario, i int) Scenario {
	sc.Seed += int64(1000 * i)
	return sc
}

// schedMission builds the variant's config with the same observability
// shape RunScenario uses (tracer attached, trace recorded), so its
// Canonical bytes are comparable to a solo run's.
func schedMission(sc Scenario) (core.MissionConfig, error) {
	c, err := sc.Mission()
	if err != nil {
		return c, err
	}
	c.Tracer = missionTracer(c)
	c.RecordTrace = true
	return c, nil
}

func checkSchedFair(o *Outcome) error {
	scs := make([]Scenario, schedFairK)
	for i := range scs {
		scs[i] = schedVariant(o.Scenario, i)
	}

	// Solo baselines. Variant 0 is the outcome's own run — its canonical
	// bytes come free.
	solo := make([][]byte, schedFairK)
	solo[0] = o.Canon
	for i := 1; i < schedFairK; i++ {
		so, err := RunScenario(scs[i])
		if err != nil {
			return fmt.Errorf("solo variant %d: %w", i, err)
		}
		solo[i] = so.Canon
	}

	// Workers is pinned to 1 so slice-sequence gaps measure pure
	// round-robin order: with parallel executors a long slice of one
	// mission legitimately overlaps many short slices of another,
	// unbounding the counter without any starvation. Parallel stepping
	// is exercised by the serve package's own API and soak tests.
	s := serve.New(serve.Config{
		MaxRunning:    schedFairMaxRunning,
		Workers:       1,
		SliceSteps:    schedFairSliceSteps,
		RetainResults: schedFairK,
	})
	defer s.Shutdown(false, 30*time.Second)

	ids := make([]string, schedFairK)
	for i, sc := range scs {
		cfg, err := schedMission(sc)
		if err != nil {
			return fmt.Errorf("variant %d config: %w", i, err)
		}
		id, err := s.SubmitConfig(cfg, store.MissionStart{Label: sc.Label(), Seed: sc.Seed})
		if err != nil {
			return fmt.Errorf("admit variant %d: %w", i, err)
		}
		ids[i] = id
	}

	for i, id := range ids {
		state, err := s.Wait(id)
		if err != nil {
			return fmt.Errorf("wait %s: %w", id, err)
		}
		if state != serve.StateDone {
			st, _ := s.Status(id)
			return fmt.Errorf("mission %d (%s) ended %s (%s), want done", i, id, state, st.Reason)
		}
	}

	// (a) FIFO dispatch: missions leave the queue in admission order.
	disp := s.DispatchOrder()
	if len(disp) != len(ids) {
		return fmt.Errorf("dispatched %d missions, admitted %d", len(disp), len(ids))
	}
	for i := range ids {
		if disp[i] != ids[i] {
			return fmt.Errorf("dispatch order %v != admission order %v", disp, ids)
		}
	}

	// (b) No starvation: the worst gap between consecutive slices of any
	// mission is bounded by the run-ring size (+ executor skew).
	stats := s.Stats()
	if stats.Slices < uint64(schedFairK)*2 {
		return fmt.Errorf("only %d slices for %d missions — scheduler did not interleave", stats.Slices, schedFairK)
	}
	if limit := uint64(schedFairMaxRunning + schedFairGapSlack); stats.MaxSliceGap > limit {
		return fmt.Errorf("max slice gap %d exceeds fairness bound %d (a mission starved)",
			stats.MaxSliceGap, limit)
	}

	// (c) Byte identity with the solo runs.
	for i, id := range ids {
		res, err := s.Result(id)
		if err != nil {
			return fmt.Errorf("result %s: %w", id, err)
		}
		if got := Canonical(res); !bytes.Equal(got, solo[i]) {
			return fmt.Errorf("variant %d multiplexed result differs from solo run at %s",
				i, firstDiff(solo[i], got))
		}
	}
	return nil
}
