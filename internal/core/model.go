// Package core implements the paper's contribution: the analytical model
// linking computation, energy and mission time (§III); the fine-grained
// migration strategy that classifies nodes into the Fig. 4 taxonomy and
// selects which to offload (Algorithm 1, §IV); the offload network
// quality control that switches placement from packet bandwidth and
// signal direction (Algorithm 2, §VI); the Profiler and Controller of
// the §VII runtime; and the end-to-end mission engine that ties the
// simulated vehicle, network and platforms together, carrying the
// Switcher's hops in virtual time over internal/netsim.
package core

import (
	"sort"

	"lgvoffload/internal/hostsim"
	"lgvoffload/internal/mw"
)

// Node names of the standard LGV workload pipeline (Fig. 2).
const (
	NodeLocalization = "localization"      // AMCL (with map)
	NodeSLAM         = "slam"              // GMapping (without map)
	NodeCostmap      = "costmap_gen"       // CostmapGen
	NodePlanner      = "path_planning"     // global planner
	NodeExploration  = "exploration"       // frontier exploration
	NodeTracking     = "path_tracking"     // local planner
	NodeMux          = "velocity_mux"      // velocity multiplexer
	NodeCoverage     = "coverage_planning" // boustrophedon sweep (house-cleaning)
)

// Hosts of the offloading testbed.
const (
	HostLGV   mw.HostID = "lgv"
	HostEdge  mw.HostID = "edge"
	HostCloud mw.HostID = "cloud"
)

// VDPNodes is the Velocity-Dependent Path (§IV-A): the execution flow
// whose makespan bounds the safe maximum velocity — CostmapGen → Path
// Tracking → Velocity Multiplexer.
var VDPNodes = []string{NodeCostmap, NodeTracking, NodeMux}

// IsVDP reports whether the node lies on the velocity-dependent path.
func IsVDP(node string) bool {
	for _, n := range VDPNodes {
		if n == node {
			return true
		}
	}
	return false
}

// ECNShareThreshold is the cycle share above which a node counts as an
// Energy-Critical Node. Table II's ECNs (CostmapGen, Path Tracking,
// SLAM) all exceed 10% of workload cycles; everything else is ≤2%.
const ECNShareThreshold = 0.10

// Category is the Fig. 4 node taxonomy.
type Category int

const (
	T1 Category = iota + 1 // ECN, not on VDP (SLAM)
	T2                     // neither ECN nor VDP (localization, planner, exploration)
	T3                     // ECN on VDP (CostmapGen, Path Tracking)
	T4                     // on VDP, not ECN (Velocity Multiplexer)
)

func (c Category) String() string {
	switch c {
	case T1:
		return "T1 (ECN ∉ VDP)"
	case T2:
		return "T2 (neither)"
	case T3:
		return "T3 (ECN ∩ VDP)"
	case T4:
		return "T4 (VDP only)"
	default:
		return "T?"
	}
}

// NodeClass is one classified node.
type NodeClass struct {
	Node     string
	Share    float64 // fraction of total workload cycles
	ECN      bool
	VDP      bool
	Category Category
}

// Classify derives the Fig. 4 taxonomy from a measured cycle breakdown
// (Table II): a node is an ECN when its share of total cycles exceeds
// ECNShareThreshold; VDP membership is structural.
func Classify(counter *hostsim.CycleCounter) []NodeClass {
	rows := counter.Breakdown()
	out := make([]NodeClass, 0, len(rows))
	for _, r := range rows {
		nc := NodeClass{
			Node:  r.Node,
			Share: r.Share,
			ECN:   r.Share >= ECNShareThreshold,
			VDP:   IsVDP(r.Node),
		}
		switch {
		case nc.ECN && nc.VDP:
			nc.Category = T3
		case nc.ECN:
			nc.Category = T1
		case nc.VDP:
			nc.Category = T4
		default:
			nc.Category = T2
		}
		out = append(out, nc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// ECNs filters the classification to energy-critical nodes (T1 ∪ T3).
func ECNs(classes []NodeClass) []string {
	var out []string
	for _, c := range classes {
		if c.ECN {
			out = append(out, c.Node)
		}
	}
	return out
}

// T3Nodes filters the classification to ECNs on the VDP.
func T3Nodes(classes []NodeClass) []string {
	var out []string
	for _, c := range classes {
		if c.Category == T3 {
			out = append(out, c.Node)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Work calibration: abstract node operation counts → Pi cycles.
//
// These constants are the per-operation cycle costs that make the
// simulated pipeline reproduce Table II's cycle rates when running the
// standard missions (CostmapGen ≈ 0.86 Gc/s and Path Tracking ≈ 1.4 Gc/s
// with a map; SLAM ≈ 3.3 Gc/s without). The parallel/serial split
// reflects which part of each kernel the paper's Fig. 5/6 algorithms
// parallelize: trajectory scoring and per-particle scan matching are
// parallel; costmap updates, planning, and bookkeeping are serial.
const (
	CostmapOpCycles  = 2_400  // per costmap cell operation (serial)
	TrajStepCycles   = 33_000 // per trajectory simulation step (parallel)
	TrackSerialShare = 0.10   // serial fraction of tracking work
	MuxTickCycles    = 100_000
	AMCLBeamCycles   = 1_100  // per likelihood-field probe (serial locally)
	PlanExpandCycles = 60_000 // per search-node expansion
	SlamMatchCycles  = 7_800  // per scan-match beam probe (parallel, 98% of SLAM)
	SlamIntegrateOp  = 35     // per map cell integrated (parallel)
	SlamWeightCycles = 2_000  // per particle during normalize/resample (serial)
	SlamCopyCycles   = 4      // per map cell copied during resampling (serial)
	ExploreOpCycles  = 760    // per frontier-detection cell visit
	CoverageOpCycles = 800    // per coverage-lane cell visit
)

// TrackingWork converts tracker step counts into platform work.
func TrackingWork(steps int) hostsim.Work {
	total := float64(steps) * TrajStepCycles
	return hostsim.Work{
		SerialCycles:   total * TrackSerialShare,
		ParallelCycles: total * (1 - TrackSerialShare),
	}
}

// CostmapWork converts costmap cell operations into platform work.
func CostmapWork(ops int) hostsim.Work {
	return hostsim.Work{SerialCycles: float64(ops) * CostmapOpCycles}
}

// SlamWork converts SLAM update statistics into platform work.
func SlamWork(matchOps, integrateOps, weightOps, copyOps int) hostsim.Work {
	return hostsim.Work{
		SerialCycles:   float64(weightOps)*SlamWeightCycles + float64(copyOps)*SlamCopyCycles,
		ParallelCycles: float64(matchOps)*SlamMatchCycles + float64(integrateOps)*SlamIntegrateOp,
	}
}

// AMCLWork converts localization beam probes into platform work.
func AMCLWork(beamOps int) hostsim.Work {
	return hostsim.Work{SerialCycles: float64(beamOps) * AMCLBeamCycles}
}

// PlanWork converts planner expansions into platform work.
func PlanWork(expanded int) hostsim.Work {
	return hostsim.Work{SerialCycles: float64(expanded) * PlanExpandCycles}
}

// ExploreWork converts frontier-detection visits into platform work.
func ExploreWork(ops int) hostsim.Work {
	return hostsim.Work{SerialCycles: float64(ops) * ExploreOpCycles}
}

// CoverageWork converts sweep-planning cell visits into platform work.
func CoverageWork(ops int) hostsim.Work {
	return hostsim.Work{SerialCycles: float64(ops) * CoverageOpCycles}
}

// MuxWork is the (negligible) multiplexer work per decision.
func MuxWork() hostsim.Work { return hostsim.Work{SerialCycles: MuxTickCycles} }
