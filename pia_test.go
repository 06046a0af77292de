package pia

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

type pingState struct {
	Sent int
	N    int
}

func (s *pingState) Run(p *Proc) error {
	for s.Sent < s.N {
		p.Delay(10)
		p.Send("out", s.Sent)
		s.Sent++
	}
	return nil
}

func (s *pingState) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(s.Sent)), nil }
func (s *pingState) RestoreState(b []byte) error { return wire.ReadInts(b, &s.Sent) }

type pongState struct {
	Got []int
}

func (s *pongState) Run(p *Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		s.Got = append(s.Got, m.Value.(int))
	}
}

func (s *pongState) SaveState() ([]byte, error) { return appendList(nil, s.Got), nil }

func (s *pongState) RestoreState(b []byte) error {
	f := ReadFields(b)
	s.Got = readList[int](&f)
	return f.Done()
}

// appendList and readList lay out a list of integers in a test
// behaviour's state: its count, then each value as a varint.
func appendList[T ~int | ~int64 | ~uint32 | ~uint64](b []byte, vs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func readList[T ~int | ~int64 | ~uint32 | ~uint64](f *wire.Fields) []T {
	vs := make([]T, f.Len(1<<20, 1))
	for i := range vs {
		vs[i] = T(f.Varint())
	}
	return vs
}

func TestBuildLocalSingleSubsystem(t *testing.T) {
	src := &pingState{N: 4}
	dst := &pongState{}
	b := NewSystem("single").
		AddComponent("src", "main", src, "out").
		AddComponent("dst", "main", dst, "in").
		AddNet("wire", 1, "src.out", "dst.in")
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(dst.Got) != 4 {
		t.Fatalf("delivered %v", dst.Got)
	}
	if sim.Component("src") == nil || sim.Component("ghost") != nil {
		t.Fatal("Component lookup broken")
	}
	if got := sim.SubsystemNames(); len(got) != 1 || got[0] != "main" {
		t.Fatalf("SubsystemNames = %v", got)
	}
}

func TestBuildLocalSplitNet(t *testing.T) {
	src := &pingState{N: 6}
	dst := &pongState{}
	b := NewSystem("split").
		AddComponent("src", "ssA", src, "out").
		AddComponent("dst", "ssB", dst, "in").
		AddNet("wire", 0, "src.out", "dst.in").
		SetDefaultChannel(Conservative, LinkModel{Latency: Microseconds(1), PerMessage: 100})
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(Time(Seconds(1))); err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if len(dst.Got) != 6 {
		t.Fatalf("delivered %v across split net", dst.Got)
	}
	for i, v := range dst.Got {
		if v != i {
			t.Fatalf("order broken: %v", dst.Got)
		}
	}
	// The split created hidden ports on both fragments.
	for _, sub := range []string{"ssA", "ssB"} {
		n := sim.Subsystem(sub).Net("wire")
		if n == nil {
			t.Fatalf("no fragment of wire on %s", sub)
		}
		hidden := 0
		for _, p := range n.Ports() {
			if p.Hidden() {
				hidden++
			}
		}
		if hidden != 1 {
			t.Fatalf("%s fragment has %d hidden ports, want 1", sub, hidden)
		}
	}
}

// TestBuildSubsystemSlices: BuildSubsystem builds one subsystem of the
// description — its components in description order with their
// runlevels, and its fragment of every net it touches, the crossing net
// with no hidden port yet — and refuses a subsystem the description
// places nothing on.
func TestBuildSubsystemSlices(t *testing.T) {
	b := NewSystem("slices").
		AddComponent("src", "ssA", &pingState{N: 1}, "out").
		AddComponent("dst", "ssB", &pongState{}, "in").
		AddComponent("tap", "ssA", &pongState{}, "in").
		AddNet("wire", 0, "src.out", "dst.in", "tap.in").
		SetRunlevel("tap", "wordLevel")
	s, err := b.BuildSubsystem("ssA")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range s.Components() {
		names = append(names, c.Name())
	}
	if strings.Join(names, ",") != "src,tap" {
		t.Fatalf("ssA holds %v, want src,tap", names)
	}
	if got := s.Component("tap").Runlevel(); got != "wordLevel" {
		t.Fatalf("tap runlevel %q", got)
	}
	n := s.Net("wire")
	if n == nil || len(n.Ports()) != 2 {
		t.Fatalf("ssA's fragment of wire: %v", n)
	}
	if _, err := b.BuildSubsystem("nowhere"); err == nil {
		t.Fatal("a subsystem with no components was built")
	}
	if _, err := NewSystem("bad").AddNet("x", 0, "a.b").BuildSubsystem("ssA"); err == nil {
		t.Fatal("a builder error was not reported")
	}
}

// TestRunStopsPeersOnComponentError: a component failing on one
// subsystem of a split simulation stops the other subsystems, which
// would otherwise wait forever on its grants, and Run returns the
// component's error.
func TestRunStopsPeersOnComponentError(t *testing.T) {
	boom := errors.New("boom")
	b := NewSystem("fail").
		AddComponent("src", "ssA", &pingState{N: 1 << 30}, "out").
		AddComponent("dst", "ssB", BehaviorFunc(func(p *Proc) error {
			for i := 0; i < 3; i++ {
				if _, ok := p.Recv("in"); !ok {
					return nil
				}
			}
			return boom
		}), "in").
		AddNet("wire", 0, "src.out", "dst.in")
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- sim.Run(Time(Seconds(1))) }()
	select {
	case err := <-ran:
		if !errors.Is(err, boom) {
			t.Fatalf("Run = %v, want the component's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after a component failed")
	}
	sim.Close()
}

func TestMultiSubsystemNeedsHorizon(t *testing.T) {
	b := NewSystem("x").
		AddComponent("a", "s1", &pingState{N: 1}, "out").
		AddComponent("b", "s2", &pongState{}, "in").
		AddNet("w", 0, "a.out", "b.in")
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(Infinity); err == nil {
		t.Fatal("Run(Infinity) on multi-subsystem accepted")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		build func() *SystemBuilder
		want  string
	}{
		{func() *SystemBuilder {
			return NewSystem("e").AddComponent("", "s", &pongState{})
		}, "needs a name"},
		{func() *SystemBuilder {
			return NewSystem("e").AddComponent("a", "s", &pongState{}, "in").AddComponent("a", "s", &pongState{}, "in")
		}, "duplicate component"},
		{func() *SystemBuilder {
			return NewSystem("e").AddNet("n", 0, "nodot")
		}, "bad port reference"},
		{func() *SystemBuilder {
			return NewSystem("e").AddNet("n", 0, "ghost.p")
		}, "unknown component"},
		{func() *SystemBuilder {
			return NewSystem("e").AddComponent("a", "s", &pongState{}, "in").AddNet("n", 0, "a.nope")
		}, "unknown port"},
		{func() *SystemBuilder {
			return NewSystem("e").AddComponent("a", "s", &pongState{}, "in").
				AddNet("n", 0, "a.in").AddNet("n", 0, "a.in")
		}, "duplicate net"},
		{func() *SystemBuilder {
			return NewSystem("e").SetRunlevel("ghost", "x")
		}, "unknown component"},
	}
	for _, c := range cases {
		b := c.build()
		if b.Err() == nil {
			t.Errorf("builder accepted: want error containing %q", c.want)
			continue
		}
		if !strings.Contains(b.Err().Error(), c.want) {
			t.Errorf("error %q does not contain %q", b.Err(), c.want)
		}
		if _, err := b.BuildLocal(); err == nil {
			t.Error("BuildLocal ignored builder error")
		}
	}
}

func TestConservativeLookaheadValidated(t *testing.T) {
	b := NewSystem("zero").
		AddComponent("a", "s1", &pingState{N: 1}, "out").
		AddComponent("b", "s2", &pongState{}, "in").
		AddNet("w", 0, "a.out", "b.in").
		SetDefaultChannel(Conservative, LinkModel{})
	if _, err := b.BuildLocal(); err == nil {
		t.Fatal("zero-lookahead conservative channel accepted")
	}
}

func TestSetChannelOverride(t *testing.T) {
	src := &pingState{N: 2}
	dst := &pongState{}
	b := NewSystem("ovr").
		AddComponent("src", "ssA", src, "out").
		AddComponent("dst", "ssB", dst, "in").
		AddNet("w", 0, "src.out", "dst.in").
		SetDefaultChannel(Conservative, LinkModel{}). // invalid default...
		SetChannel("ssA", "ssB", Optimistic, LinkModel{Latency: 10})
	sim, err := b.BuildLocal() // ...made irrelevant by the override
	if err != nil {
		t.Fatal(err)
	}
	sim.Subsystems["ssB"].SetAutoCheckpoint(Microseconds(100))
	if err := sim.Run(Time(Seconds(1))); err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if len(dst.Got) != 2 {
		t.Fatalf("delivered %v", dst.Got)
	}
}

func TestSwitchpointViaPublicAPI(t *testing.T) {
	levels := map[string]bool{}
	observer := BehaviorFunc(func(p *Proc) error {
		for i := 0; i < 10; i++ {
			p.Delay(10)
			levels[p.Runlevel()] = true
		}
		return nil
	})
	b := NewSystem("sw").AddComponent("cpu", "main", observer)
	b.SetRunlevel("cpu", "word")
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Engines["main"].AddRule("when cpu >= 50: cpu->packet"); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !levels["word"] || !levels["packet"] {
		t.Fatalf("levels seen: %v", levels)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Seconds(1) != 1_000_000_000 || Milliseconds(2) != 2_000_000 || Microseconds(3) != 3_000 {
		t.Fatal("duration helpers wrong")
	}
}
