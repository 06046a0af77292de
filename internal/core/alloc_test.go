package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// fanSource sends one job a lane a period, the lanes staggered so only
// the first service of a period is in a round's safe cohort and the
// rest are dispatched speculatively. The job is preBoxed, so sending it
// allocates nothing.
type fanSource struct {
	lanes   []string
	stagger vtime.Duration
	period  vtime.Duration
}

func (f *fanSource) Run(p *Proc) error {
	for {
		start := p.Time()
		for _, lane := range f.lanes {
			p.Send(lane, preBoxed[0])
			p.Advance(f.stagger)
		}
		p.DelayUntil(start.Add(f.period))
	}
}

// fanService forwards each job after advancing; its image is empty,
// so it may be dispatched speculatively.
type fanService struct{ advance vtime.Duration }

func (f *fanService) Run(p *Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		p.Advance(f.advance)
		p.Send("out", m.Value)
	}
}

func (f *fanService) SaveState() ([]byte, error) { return nil, nil }
func (f *fanService) RestoreState([]byte) error  { return nil }

// fanSink absorbs the results.
type fanSink struct{ got int }

func (f *fanSink) Run(p *Proc) error {
	for {
		if _, ok := p.Recv(); !ok {
			return nil
		}
		f.got++
	}
}

// fanSplits describes the fan's nets as a one-subsystem partition:
// a jobs and a results net a lane and one probe net joining every
// service, whose 2 ns delay is the services' lookahead.
func fanSplits(sub string, lanes int, feed vtime.Duration) []graph.Split {
	var splits []graph.Split
	net := func(name string, delay vtime.Duration, ports ...graph.PortRef) {
		splits = append(splits, graph.Split{Net: name, Delay: delay,
			Fragments: []graph.Fragment{{Subsystem: sub, Ports: ports}}})
	}
	var probes []graph.PortRef
	for i := 0; i < lanes; i++ {
		svc, lane := fmt.Sprintf("svc%d", i), fmt.Sprintf("lane%d", i)
		net("jobs"+lane, feed, graph.PortRef{Component: "source", Port: lane}, graph.PortRef{Component: svc, Port: "in"})
		net("result"+lane, feed, graph.PortRef{Component: svc, Port: "out"}, graph.PortRef{Component: "sink", Port: lane})
		probes = append(probes, graph.PortRef{Component: svc, Port: "probe"})
	}
	net("probe", 2, probes...)
	return splits
}

// buildFan builds the speculative fan on one subsystem, its ports and
// nets in slabs.
func buildFan(t *testing.T, lanes int) (*Subsystem, *fanSink, vtime.Duration) {
	t.Helper()
	const period = 10 * vtime.Millisecond
	s := NewSubsystem("probe")
	names := make([]string, lanes)
	for i := range names {
		names[i] = fmt.Sprintf("lane%d", i)
	}
	sink := &fanSink{}
	if _, err := s.NewComponent("source", &fanSource{lanes: names, stagger: 2, period: period}, names...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewComponent("sink", sink, names...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lanes; i++ {
		if _, err := s.NewComponent(fmt.Sprintf("svc%d", i), &fanService{advance: 4 * vtime.Microsecond}, "in", "out", "probe"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.NewNets(fanSplits("probe", lanes, vtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return s, sink, period
}

// TestWarmSpeculativeRoundZeroAlloc: once its worker buffers, images
// and round scratch have grown, a speculative parallel round allocates
// nothing — not a sort's swapper or closure, not a member list. Each
// measured Run covers one period of the fan: a run of safe-horizon
// rounds with speculative members, on a pool attached for the whole
// test.
func TestWarmSpeculativeRoundZeroAlloc(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	const lanes = 8
	s, sink, period := buildFan(t, lanes)
	pool := NewSharedPool(2)
	defer pool.Close()
	s.SetPool(pool)
	s.SetWorkers(2)
	s.SetOptimism(8 * vtime.Microsecond)
	defer s.Teardown()
	until := vtime.Time(0)
	runPeriod := func() {
		until = until.Add(period)
		if err := s.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		runPeriod()
	}
	before := s.Stats()
	const periods = 20
	allocs := testing.AllocsPerRun(periods, runPeriod)
	after := s.Stats()
	if spec := after.SpecRounds - before.SpecRounds; spec < periods {
		t.Fatalf("%d periods ran %d speculative rounds: the fan no longer speculates", periods, spec)
	}
	if allocs != 0 {
		t.Fatalf("a period of the fan (%d parallel rounds in %d periods) allocates %.1f times, want 0",
			after.ParRounds-before.ParRounds, periods+1, allocs)
	}
	if sink.got == 0 {
		t.Fatal("the sink received nothing")
	}
}

// TestNewNetsSlabs: NewNets realizes the fragments hosted here, in
// split order, with each net's port list exactly as long as its ports
// plus a hidden port a peer fragment, and a later attach past that
// room leaves every other net's ports alone.
func TestNewNetsSlabs(t *testing.T) {
	s := NewSubsystem("a")
	for _, c := range []string{"x", "y"} {
		if _, err := s.NewComponent(c, &fanSink{}, "p", "q"); err != nil {
			t.Fatal(err)
		}
	}
	ref := func(c, p string) graph.PortRef { return graph.PortRef{Component: c, Port: p} }
	splits := []graph.Split{
		{Net: "n1", Delay: 1, Fragments: []graph.Fragment{{Subsystem: "a", Ports: []graph.PortRef{ref("x", "p"), ref("y", "p")}}}},
		{Net: "elsewhere", Fragments: []graph.Fragment{{Subsystem: "b", Ports: []graph.PortRef{ref("z", "p")}}}},
		{Net: "n2", Delay: 2, Crossing: true, Fragments: []graph.Fragment{
			{Subsystem: "a", Ports: []graph.PortRef{ref("x", "q")}},
			{Subsystem: "b", Ports: []graph.PortRef{ref("z", "q")}},
			{Subsystem: "c", Ports: []graph.PortRef{ref("w", "q")}},
		}},
		{Net: "n3", Fragments: []graph.Fragment{{Subsystem: "a", Ports: []graph.PortRef{ref("y", "q")}}}},
	}
	if err := s.NewNets(splits); err != nil {
		t.Fatal(err)
	}
	if s.Net("elsewhere") != nil {
		t.Fatal("NewNets realized a fragment hosted elsewhere")
	}
	for _, w := range []struct {
		net       string
		delay     vtime.Duration
		ports, cp int
	}{{"n1", 1, 2, 2}, {"n2", 2, 1, 3}, {"n3", 0, 1, 1}} {
		n := s.Net(w.net)
		if n == nil || n.Delay != w.delay || len(n.Ports()) != w.ports || cap(n.Ports()) != w.cp {
			t.Fatalf("net %s = %v (cap %d), want delay %v, %d ports, room for %d", w.net, n, cap(n.Ports()), w.delay, w.ports, w.cp)
		}
	}
	n2 := s.Net("n2")
	for _, peer := range []string{"b", "c", "d"} {
		if _, err := s.AttachHidden(n2, graph.HiddenPortName("n2", peer), "chan", func(string, vtime.Time, any) {}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Net("n3").Ports(); len(got) != 1 || got[0] != s.Component("y").Port("q") {
		t.Fatalf("attaching past n2's room changed n3: %v", got)
	}
	if err := s.NewNets(splits); err == nil {
		t.Fatal("NewNets accepted a duplicate net")
	}
	bad := []graph.Split{{Net: "n9", Fragments: []graph.Fragment{{Subsystem: "a", Ports: []graph.PortRef{ref("x", "nope")}}}}}
	if err := s.NewNets(bad); err == nil {
		t.Fatal("NewNets accepted a port the component does not have")
	}
}

// TestNewComponentPortSlab: the ports named at creation are one slab,
// exactly as long as the list, and a duplicate name is refused.
func TestNewComponentPortSlab(t *testing.T) {
	s := NewSubsystem("a")
	c, err := s.NewComponent("c", &fanSink{}, "b", "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ports) != 3 || cap(c.ports) != 3 {
		t.Fatalf("ports = %d (cap %d), want exactly 3", len(c.ports), cap(c.ports))
	}
	var names []string
	for _, p := range c.Ports() {
		names = append(names, p.Name)
		if p.Component() != c || c.Port(p.Name) != p {
			t.Fatalf("port %s does not resolve to itself", p.Name)
		}
	}
	if fmt.Sprint(names) != "[a b c]" {
		t.Fatalf("Ports() = %v, want sorted by name", names)
	}
	if _, err := s.NewComponent("dup", &fanSink{}, "x", "x"); err == nil {
		t.Fatal("NewComponent accepted a duplicate port")
	}
	if s.Component("dup") != nil {
		t.Fatal("a refused component was registered")
	}
}

// TestDigestDriveZeroAlloc: with a drive digest subscribed, a drive of
// a word or an int allocates nothing: the digest writes the time and
// the value's print form into a buffer it keeps.
func TestDigestDriveZeroAlloc(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	values := []any{signal.Word(0xdeadbeef), 12345, signal.Word(7), -3}
	const runs = 200
	allocs := -1.0
	tx := BehaviorFunc(func(p *Proc) error {
		at := vtime.Time(0)
		drive := func() {
			for _, v := range values {
				at++
				p.SendAt("out", v, at)
			}
		}
		drive() // seats the source's entry and sizes the buffer
		allocs = testing.AllocsPerRun(runs, drive)
		return nil
	})
	s := NewSubsystem("digest")
	digest := s.DigestDrives()
	c, _ := s.NewComponent("tx", tx, "out")
	n, _ := s.NewNet("bus", 0)
	if err := s.Connect(n, c.Port("out")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%d drives allocate %.2f times, want 0", len(values), allocs)
	}
	if want := int64((runs + 2) * len(values)); s.Stats().Drives != want || digest.Value("tx") == 0 {
		t.Fatalf("%d drives, digest %016x: want %d drives, all hashed", s.Stats().Drives, digest.Value("tx"), want)
	}
}
