package pia

import (
	"fmt"
	"testing"
)

// fanSystem describes the fan the benchmark's fan_speculative row
// builds: a source and a sink with a port a lane, and a service a lane
// with in, out and probe ports; a jobs and a results net a lane and one
// probe net joining every service — 18 components, 80 ports, 33 nets
// on one subsystem.
func fanSystem(lanes int) *SystemBuilder {
	names := make([]string, lanes)
	for i := range names {
		names[i] = fmt.Sprintf("lane%d", i)
	}
	idle := BehaviorFunc(func(*Proc) error { return nil })
	b := NewSystem("fan")
	b.AddComponent("source", "probe", idle, names...)
	b.AddComponent("sink", "probe", idle, names...)
	probes := make([]string, lanes)
	for i, lane := range names {
		svc := fmt.Sprintf("svc%d", i)
		b.AddComponent(svc, "probe", idle, "in", "out", "probe")
		b.AddNet("jobs"+lane, Milliseconds(1), "source."+lane, svc+".in")
		b.AddNet("result"+lane, Milliseconds(1), svc+".out", "sink."+lane)
		probes[i] = svc + ".probe"
	}
	b.AddNet("probe", 2, probes...)
	b.SetWorkers(2)
	b.SetOptimism(Microseconds(8))
	return b
}

// TestBuildLocalAllocs: building the 16-lane fan allocates per
// component, not per port, net or sort. A component costs five
// allocations — itself, its two handshake channels, its port slab and
// the slab's index — and everything else (the partition, the one
// subsystem with its nets and port lists in two slabs, its hub, agent
// and engine) costs at most a fixed 70 more.
func TestBuildLocalAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	const lanes = 16
	b := fanSystem(lanes)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	const bound = 5*(lanes+2) + 70
	allocs := testing.AllocsPerRun(20, func() {
		sim, err := b.BuildLocal()
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("BuildLocal of the %d-lane fan allocates %.0f times, want at most %d", lanes, allocs, bound)
	}
	t.Logf("BuildLocal of the %d-lane fan: %.0f allocations (bound %d)", lanes, allocs, bound)
}
