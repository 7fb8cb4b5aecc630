package core

import (
	"fmt"
	"sort"

	"lgvoffload/internal/mw"
)

// Goal is the programmer-selected optimization target of Algorithm 1.
type Goal int

const (
	// GoalEC minimizes on-board energy consumption: all ECNs (T1+T3)
	// move to the remote server.
	GoalEC Goal = iota
	// GoalMCT minimizes mission completion time: only T3 (ECN ∩ VDP)
	// moves, and it comes home when network latency erases the benefit.
	GoalMCT
)

func (g Goal) String() string {
	if g == GoalMCT {
		return "MCT"
	}
	return "EC"
}

// Placement maps nodes to hosts and carries the acceleration thread
// count used by offloaded parallel kernels.
type Placement struct {
	Host    map[string]mw.HostID
	Remote  mw.HostID // the server nodes offload to
	Threads int       // thread-pool size for Fig. 5/6 kernels
}

// NewPlacement returns an all-local placement for the given node list.
func NewPlacement(nodes []string) Placement {
	p := Placement{Host: make(map[string]mw.HostID, len(nodes)), Remote: HostEdge, Threads: 1}
	for _, n := range nodes {
		p.Host[n] = HostLGV
	}
	return p
}

// Of returns the host of a node (the LGV when unknown).
func (p Placement) Of(node string) mw.HostID {
	if h, ok := p.Host[node]; ok {
		return h
	}
	return HostLGV
}

// Clone deep-copies the placement.
func (p Placement) Clone() Placement {
	c := p
	c.Host = make(map[string]mw.HostID, len(p.Host))
	for k, v := range p.Host {
		c.Host[k] = v
	}
	return c
}

// RemoteNodes lists nodes currently placed off the LGV, sorted.
func (p Placement) RemoteNodes() []string {
	var out []string
	for n, h := range p.Host {
		if h != HostLGV {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func (p Placement) String() string {
	return fmt.Sprintf("Placement{remote: %v on %s, threads: %d}",
		p.RemoteNodes(), p.Remote, p.Threads)
}

// Strategy is Algorithm 1's placement rule: which nodes run on the
// remote server. The velocity it implies is the engine's (Eq. 2c, see
// Decide).
type Strategy struct {
	Goal    Goal
	Remote  mw.HostID // server to offload to
	Threads int       // acceleration threads on the server

	// PinnedLocal lists safety-critical nodes that must never leave the
	// vehicle regardless of goal — the §IX extension for faster platforms
	// (autonomous vehicles keep e.g. obstacle avoidance onboard). Pinned
	// nodes override the ECN selection.
	PinnedLocal []string
}

// Decide implements Algorithm 1's placement. Given the node
// classification and the measured VDP times, it returns where each node
// runs:
//
//	submit all ECNs to the remote server
//	if T_c > T_l^v and G == MCT: migrate T3 nodes back to the LGV
//	set velocity_OA(T_c)
//
// The last step is the engine's: on every tick it applies Eq. 2c to the
// profiled VDP makespan of the placement in force (engine.velocityCap).
//
// localVDP is the VDP makespan with everything local; cloudVDP is the
// makespan with T3 offloaded, including network latency.
func (s Strategy) Decide(classes []NodeClass, localVDP, cloudVDP float64) Placement {
	nodes := make([]string, 0, len(classes))
	for _, c := range classes {
		nodes = append(nodes, c.Node)
	}
	p := NewPlacement(nodes)
	p.Remote = s.Remote
	p.Threads = s.Threads

	// Submit all ECNs to the remote server, except pinned safety-critical
	// nodes, which stay onboard.
	for _, n := range ECNs(classes) {
		if s.isPinned(n) {
			continue
		}
		p.Host[n] = s.Remote
	}

	if s.Goal == GoalMCT {
		// MCT keeps only T3 offloaded; T1 (SLAM) acceleration does not
		// shorten the VDP, but it still reduces failure risk, so MCT
		// leaves it wherever EC put it. If the network makes the cloud
		// VDP slower than local, T3 comes home.
		if cloudVDP > localVDP {
			for _, n := range T3Nodes(classes) {
				p.Host[n] = HostLGV
			}
		}
	}
	// EC offloads ECNs unconditionally (energy first).
	return p
}

func (s Strategy) isPinned(node string) bool {
	for _, n := range s.PinnedLocal {
		if n == node {
			return true
		}
	}
	return false
}
