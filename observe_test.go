package pia

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/signal"
	"repro/internal/timeline"
)

func TestPublicTraceAndDebug(t *testing.T) {
	src := &pingState{N: 6}
	dst := &pongState{}
	sim, err := NewSystem("obs").
		AddComponent("src", "main", src, "out").
		AddComponent("dst", "main", dst, "in").
		AddNet("wire", 1, "src.out", "dst.in").
		BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.EnableTimeline(nil)
	dbg := NewDebugger(sim.Subsystem("main"))
	bp, err := dbg.AddBreak("src >= 30")
	if err != nil {
		t.Fatal(err)
	}

	hit, err := dbg.Continue(Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil || hit.Break != bp {
		t.Fatalf("hit %+v", hit)
	}
	comps := dbg.Components()
	if len(comps) != 2 {
		t.Fatalf("components %+v", comps)
	}
	if hit2, err := dbg.Continue(Infinity); err != nil || hit2 != nil {
		t.Fatalf("resume: %+v %v", hit2, err)
	}
	if len(dst.Got) != 6 {
		t.Fatalf("deliveries %v", dst.Got)
	}
	var vcd bytes.Buffer
	if err := timeline.WriteVCD(&vcd, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcd.String(), "$enddefinitions") {
		t.Fatal("VCD export broken through the public API")
	}
}

func TestPublicISS(t *testing.T) {
	prog, err := AssembleISS(`
		li r1, 21
		add r2, r1, r1
		out r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(DisassembleISS(prog)) != 4 {
		t.Fatal("disassembly length wrong")
	}
	cpu := &ISSCPU{Prog: prog}
	dst := &pongStateWord{}
	sim, err := NewSystem("puba").
		AddComponent("cpu", "main", cpu, "out", "in").
		AddComponent("dst", "main", dst, "in").
		AddNet("bus", 0, "cpu.out", "dst.in").
		BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(dst.Got) != 1 || dst.Got[0] != 42 {
		t.Fatalf("ISS output %v", dst.Got)
	}
}

// pongStateWord collects signal.Word values as uint32.
type pongStateWord struct {
	Got []uint32
}

func (s *pongStateWord) Run(p *Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		if w, isWord := m.Value.(signal.Word); isWord {
			s.Got = append(s.Got, uint32(w))
		}
	}
}

func (s *pongStateWord) SaveState() ([]byte, error) { return appendList(nil, s.Got), nil }

func (s *pongStateWord) RestoreState(b []byte) error {
	f := ReadFields(b)
	s.Got = readList[uint32](&f)
	return f.Done()
}

// metricsSystem is src on ssA sending n values to dst on ssB over a
// conservative channel.
func metricsSystem(n int) *SystemBuilder {
	return NewSystem("metrics").
		AddComponent("src", "ssA", &pingState{N: n}, "out").
		AddComponent("dst", "ssB", &pongState{}, "in").
		AddNet("wire", 0, "src.out", "dst.in").
		SetDefaultChannel(Conservative, LinkModel{Latency: 10})
}

// digestRun runs sim for a second of virtual time and returns the drive
// digests of its two subsystems.
func digestRun(t *testing.T, sim *Simulation, run func(Time) error) [2]uint64 {
	t.Helper()
	a, b := sim.Subsystem("ssA").DigestDrives(), sim.Subsystem("ssB").DigestDrives()
	if err := run(Time(Seconds(1))); err != nil {
		t.Fatal(err)
	}
	return [2]uint64{a.Sum64(), b.Sum64()}
}

// seriesNames returns the names reg samples.
func seriesNames(reg *MetricsRegistry) []string {
	var out []string
	for _, s := range reg.Snapshot() {
		out = append(out, s.Name)
	}
	return out
}

// TestNilRegistryIsInert holds the nil-registry rule: EnableMetrics and
// EnableCostAttribution on a Simulation and EnableMetrics on a Cluster
// return nil for a nil registry, wire nothing (a registry enabled after
// them gets the series a fresh build's gets), and leave the drive
// digests those of a run without metrics.
func TestNilRegistryIsInert(t *testing.T) {
	plain, err := metricsSystem(3).BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want := digestRun(t, plain, plain.Run)

	sim, err := metricsSystem(3).BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if reg := sim.EnableMetrics(nil); reg != nil {
		t.Errorf("Simulation.EnableMetrics(nil) = %p, want nil", reg)
	}
	if reg := sim.EnableCostAttribution(nil, 3); reg != nil {
		t.Errorf("Simulation.EnableCostAttribution(nil) = %p, want nil", reg)
	}
	reg := NewMetricsRegistry()
	sim.EnableMetrics(reg)
	sim.EnableCostAttribution(reg, 3)
	fresh, err := metricsSystem(3).BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	freshReg := NewMetricsRegistry()
	fresh.EnableMetrics(freshReg)
	fresh.EnableCostAttribution(freshReg, 3)
	if got, want := seriesNames(reg), seriesNames(freshReg); !slices.Equal(got, want) {
		t.Errorf("after the nil calls a registry samples %v, want %v", got, want)
	}
	if got := digestRun(t, sim, sim.Run); got != want {
		t.Errorf("digests %x with a nil registry enabled, want %x", got, want)
	}

	cl, err := metricsSystem(3).BuildOnNodes(map[string]*Node{"ssA": NewNode("n1"), "ssB": NewNode("n2")})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if reg := cl.EnableMetrics(nil); reg != nil {
		t.Errorf("Cluster.EnableMetrics(nil) = %p, want nil", reg)
	}
	if got := digestRun(t, &cl.Simulation, cl.Run); got != want {
		t.Errorf("cluster digests %x with a nil registry enabled, want %x", got, want)
	}
}

// TestRegistriesShareNoSeries runs two simulations of one description
// at once, each into its own registry: each registry counts its own
// simulation's drives and nothing of the other's.
func TestRegistriesShareNoSeries(t *testing.T) {
	const drives = `pia_sched_drives{sub="ssA"}`
	var wg sync.WaitGroup
	regs := make([]*MetricsRegistry, 2)
	errs := make([]error, 2)
	for i, n := range []int{3, 5} {
		sim, err := metricsSystem(n).BuildLocal()
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		regs[i] = sim.EnableMetrics(NewMetricsRegistry())
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sim.Run(Time(Seconds(1)))
		}()
	}
	wg.Wait()
	for i, want := range []int64{3, 5} {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		var got []int64
		for _, s := range regs[i].Snapshot() {
			if s.Name == drives {
				got = append(got, s.Value)
			}
		}
		if !slices.Equal(got, []int64{want}) {
			t.Errorf("registry %d samples %s %v, want [%d]", i, drives, got, want)
		}
	}
}
