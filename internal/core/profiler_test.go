package core

import (
	"math"
	"testing"
)

func TestProfilerEWMA(t *testing.T) {
	p := NewProfiler()
	p.RecordProc("n", 0.1)
	if got, _ := p.ProcTimeOK("n"); got != 0.1 {
		t.Errorf("first sample = %v", got)
	}
	p.RecordProc("n", 0.2)
	want := 0.1 + 0.3*(0.2-0.1)
	if got, _ := p.ProcTimeOK("n"); math.Abs(got-want) > 1e-12 {
		t.Errorf("ewma = %v, want %v", got, want)
	}
	if got, ok := p.ProcTimeOK("unknown"); ok || got != 0 {
		t.Errorf("unknown node = %v, %v; want 0, false", got, ok)
	}
}

func TestProfilerRTT(t *testing.T) {
	p := NewProfiler()
	if got, ok := p.RTTOK(); ok || got != 0 {
		t.Errorf("initial RTT = %v, %v; want 0, false", got, ok)
	}
	p.RecordRTT(0.01)
	p.RecordRTT(0.02)
	got, _ := p.RTTOK()
	if got <= 0.01 || got >= 0.02 {
		t.Errorf("smoothed RTT = %v", got)
	}
}

func TestProfilerVDPSplit(t *testing.T) {
	p := NewProfiler()
	p.RecordProc(NodeCostmap, 0.2)
	p.RecordProc(NodeTracking, 0.3)
	p.RecordProc(NodeMux, 0.01)
	p.RecordProc(NodeSLAM, 9.9) // not on the VDP: must be ignored
	p.RecordRTT(0.05)

	local := NewPlacement([]string{NodeCostmap, NodeTracking, NodeMux})
	b := p.VDP(local)
	if math.Abs(b.RobotProc-0.51) > 1e-12 || b.CloudProc != 0 || b.Network != 0 {
		t.Errorf("local VDP = %+v", b)
	}

	remote := local.Clone()
	remote.Host[NodeCostmap] = HostCloud
	remote.Host[NodeTracking] = HostCloud
	b = p.VDP(remote)
	if math.Abs(b.RobotProc-0.01) > 1e-12 {
		t.Errorf("robot proc = %v", b.RobotProc)
	}
	if math.Abs(b.CloudProc-0.5) > 1e-12 {
		t.Errorf("cloud proc = %v", b.CloudProc)
	}
	if b.Network != 0.05 {
		t.Errorf("network = %v", b.Network)
	}
	if math.Abs(b.Total()-0.56) > 1e-12 {
		t.Errorf("total = %v", b.Total())
	}
}

func TestProfilerBandwidthAndLatency(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 5; i++ {
		p.RecordPacket(float64(i)*0.2, 0.005)
	}
	if r := p.Bandwidth(0.9); r != 5 {
		t.Errorf("bandwidth = %v", r)
	}
	if q, ok := p.TailLatency(0.99); !ok || q != 0.005 {
		t.Errorf("tail latency = %v %v", q, ok)
	}
	p.RecordDirection(-0.4)
	if p.Direction() != -0.4 {
		t.Error("direction")
	}
}
