package pia

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/timeline"
)

func TestBuildOnNodesTwoNodes(t *testing.T) {
	src := &pingState{N: 5}
	dst := &pongState{}
	b := NewSystem("cluster").
		AddComponent("src", "ssA", src, "out").
		AddComponent("dst", "ssB", dst, "in").
		AddNet("wire", 0, "src.out", "dst.in").
		SetDefaultChannel(Conservative, LinkModel{Latency: Microseconds(50), PerMessage: Microseconds(10)})
	n1, n2 := NewNode("node1"), NewNode("node2")
	cl, err := b.BuildOnNodes(map[string]*Node{"ssA": n1, "ssB": n2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(Time(Seconds(1))); err != nil {
		t.Fatal(err)
	}
	if len(dst.Got) != 5 {
		t.Fatalf("delivered %v over the cluster", dst.Got)
	}
	for i, v := range dst.Got {
		if v != i {
			t.Fatalf("order broken: %v", dst.Got)
		}
	}
	// An orderly teardown is not a lost peer: nothing latches.
	if err := cl.Close(); err != nil {
		t.Fatalf("Close after a clean run: %v", err)
	}
	if err := cl.channelErr(); err != nil {
		t.Fatalf("Close after a clean run latched %v", err)
	}
}

func TestBuildOnNodesColocated(t *testing.T) {
	// Two subsystems on ONE node use an in-process pipe.
	src := &pingState{N: 3}
	dst := &pongState{}
	b := NewSystem("colo").
		AddComponent("src", "ssA", src, "out").
		AddComponent("dst", "ssB", dst, "in").
		AddNet("wire", 0, "src.out", "dst.in").
		SetDefaultChannel(Conservative, LinkModel{Latency: Microseconds(1), PerMessage: 100})
	n := NewNode("solo")
	cl, err := b.BuildOnNodes(map[string]*Node{"ssA": n, "ssB": n})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Run(Time(Seconds(1))); err != nil {
		t.Fatal(err)
	}
	if len(dst.Got) != 3 {
		t.Fatalf("delivered %v", dst.Got)
	}
}

func TestBuildOnNodesMissingPlacement(t *testing.T) {
	b := NewSystem("miss").
		AddComponent("a", "s1", &pingState{N: 1}, "out").
		AddComponent("b", "s2", &pongState{}, "in").
		AddNet("w", 0, "a.out", "b.in")
	n := NewNode("n")
	_, err := b.BuildOnNodes(map[string]*Node{"s1": n})
	if err == nil {
		t.Fatal("incomplete placement accepted")
	}
	// The failure is typed and names the first offending component
	// and the host the deployment does not know.
	var uh *graph.UnknownHostError
	if !errors.As(err, &uh) {
		t.Fatalf("want *graph.UnknownHostError, got %T: %v", err, err)
	}
	if uh.Host != "s2" || uh.Component != "b" {
		t.Fatalf("error blames %q on %q, want component \"b\" on host \"s2\"", uh.Component, uh.Host)
	}
	// Refused before anything was hosted on the nodes it did name.
	if n.Hosted("s1") != nil {
		t.Fatal("a refused placement left s1 hosted")
	}
	// A nil placement places nothing; it is not a request for the
	// in-process build the two entry points share.
	if _, err := b.BuildOnNodes(nil); !errors.As(err, &uh) || uh.Host != "s1" {
		t.Fatalf("nil placement: want *graph.UnknownHostError for s1, got %v", err)
	}
}

// noCodec is a struct nobody registered with the channel codec.
type noCodec struct{ A int }

type noCodecSrc struct{ Sent bool }

func (s *noCodecSrc) Run(p *Proc) error {
	if !s.Sent {
		s.Sent = true
		p.Delay(10)
		p.Send("out", noCodec{A: 1})
	}
	return nil
}

// TestBuildOnNodesUnregisteredValueFailsRun: a value type the channel
// codec cannot carry, driven onto a net split across nodes, ends the
// run with an error that names the type and the call that fixes it —
// not with a hang waiting for a drive that was never sent.
func TestBuildOnNodesUnregisteredValueFailsRun(t *testing.T) {
	b := NewSystem("cluster").
		AddComponent("src", "ssA", &noCodecSrc{}, "out").
		AddComponent("dst", "ssB", &pongState{}, "in").
		AddNet("wire", 0, "src.out", "dst.in").
		SetDefaultChannel(Conservative, LinkModel{Latency: Microseconds(50), PerMessage: Microseconds(10)})
	n1, n2 := NewNode("node1"), NewNode("node2")
	cl, err := b.BuildOnNodes(map[string]*Node{"ssA": n1, "ssB": n2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan error, 1)
	go func() { done <- cl.Run(Time(Seconds(1))) }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run hangs on the unsendable value")
	}
	if err == nil || !strings.Contains(err.Error(), "pia.noCodec") || !strings.Contains(err.Error(), "channel.RegisterValue") {
		t.Fatalf("run returned %v, want an error naming pia.noCodec and channel.RegisterValue", err)
	}
}

// TestLatchedErrorWithAllStalled: two subsystems that each wait on the
// other, over a channel one side of which cannot send. The first thing
// ssB's endpoint flushes is its own safe-time ask, as ssB stalls; the
// flush fails and latches, ssA is never asked and so never grants,
// ssA's own ask is answered by a grant that fails the same way, and
// both are stalled for good on the other's grant with no Run left to
// return and have the latch noticed. The latch itself must end the run.
func TestLatchedErrorWithAllStalled(t *testing.T) {
	sim := &Simulation{
		Subsystems: make(map[string]*core.Subsystem),
		Hubs:       make(map[string]*channel.Hub),
		subOrder:   []string{"ssA", "ssB"},
	}
	for _, name := range sim.subOrder {
		s := core.NewSubsystem(name)
		c, err := s.NewComponent("waiter", &pongState{}, "in")
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.NewNet("quiet", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Connect(n, c.Port("in")); err != nil {
			t.Fatal(err)
		}
		sim.Subsystems[name], sim.Hubs[name] = s, channel.NewHub(s)
	}
	defer sim.Close()
	link := LinkModel{Latency: Microseconds(50)}
	ta, tb := channel.Pipe()
	epA, err := sim.Hubs["ssA"].NewEndpoint("ssB", Conservative, link, ta)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := sim.Hubs["ssB"].NewEndpoint("ssA", Conservative, link, tb)
	if err != nil {
		t.Fatal(err)
	}
	ta.Receive(epA.OnMessages)
	tb.Receive(epB.OnMessages)
	ta.Close() // from here every send of ssB's fails; ssA's still arrive

	done := make(chan error, 1)
	go func() { done <- sim.Run(Time(Seconds(1))) }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run hangs with every subsystem stalled behind the latched error")
	}
	if !errors.Is(err, channel.ErrPipeClosed) {
		t.Fatalf("run returned %v, want the latched send error", err)
	}
}

// cutProxy forwards TCP connections to a target address until cut,
// which closes every connection it carries, as a dead link or a
// crashed peer does: no Close crosses the channel first.
type cutProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newCutProxy(t *testing.T, target string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go io.Copy(out, in)
			go io.Copy(in, out)
		}
	}()
	return p
}

func (p *cutProxy) cut() {
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
}

// TestPeerLostEndsStalledRun: a TCP channel that dies while both of its
// subsystems wait — ssA stalled on a grant ssB has not sent, ssB busy in
// a step that has not returned — ends the run with the loss. Nothing
// more can arrive over the dead connection, so the pump latches the
// loss on its endpoint, which stops ssA; before, only the flight
// recorder heard of it and ssA waited for the grant for ever.
func TestPeerLostEndsStalledRun(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	sA, sB := core.NewSubsystem("ssA"), core.NewSubsystem("ssB")
	// ssA has work at 1 ms, which the channel's gate holds until ssB
	// grants it; ssB's one component holds ssB's scheduler at time 0.
	if _, err := sA.NewComponent("ticker", BehaviorFunc(func(p *Proc) error {
		p.DelayUntil(Time(Milliseconds(1)))
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.NewComponent("hold", BehaviorFunc(func(p *Proc) error {
		close(entered)
		<-release
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	n1, n2 := NewNode("node1"), NewNode("node2")
	// n1's recorder says when ssA has asked for its grant and when the
	// channel's loss is latched: the node records a channel lost after
	// the pump has latched it on the endpoint.
	asked, lost := make(chan struct{}, 1), make(chan struct{}, 1)
	signal := func(c chan struct{}) {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	rec := timeline.NewRecorder(0)
	rec.Subscribe(func(e timeline.Event) {
		switch {
		case e.Kind == timeline.KindAsk && e.From == "ssA":
			signal(asked)
		case e.Kind == timeline.KindSession && strings.HasPrefix(e.Detail, "lost "):
			signal(lost)
		}
	})
	n1.EnableTimeline(rec)
	hA, hB := n1.Host(sA), n2.Host(sB)
	addr, err := n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := newCutProxy(t, addr)
	epA, err := n1.Connect("ssA", px.ln.Addr().String(), "ssB", Conservative, LinkModel{Latency: Microseconds(50)})
	if err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{
		Simulation: Simulation{
			Subsystems: map[string]*core.Subsystem{"ssA": sA, "ssB": sB},
			Hubs:       map[string]*channel.Hub{"ssA": hA.Hub, "ssB": hB.Hub},
			subOrder:   []string{"ssA", "ssB"},
		},
		Nodes:   map[string]*Node{"ssA": n1, "ssB": n2},
		nodeSet: []*Node{n1, n2},
	}
	defer cl.Close()
	defer close(release) // whatever happens, let ssB's step return
	done := make(chan error, 1)
	go func() { done <- cl.Run(Time(Seconds(1))) }()

	// Both sides wait: ssB inside its step, ssA on the grant it asked for.
	<-entered
	deadline := time.After(10 * time.Second)
	select {
	case <-asked:
	case <-deadline:
		t.Fatal("ssA never asked for a grant")
	}
	px.cut()
	select {
	case <-lost:
	case <-deadline:
		t.Fatal("the channel died under a stalled run and its endpoint never latched the loss")
	}
	if epA.Err() == nil {
		t.Fatal("the channel's loss was recorded before its endpoint latched it")
	}
	release <- struct{}{} // ssB's step returns; ssB's own latch stops it
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run hangs after the peer was lost")
	}
	if !errors.Is(err, node.ErrPeerLost) {
		t.Fatalf("run returned %v, want an error wrapping node.ErrPeerLost", err)
	}
}

// TestFlightTimelineEitherOrder: EnableFlight and EnableTimeline wire
// the post-mortem's event tail whichever is called first, on a local
// simulation and on a cluster — where the flight recorder is shared
// and keeps the first node's recorder, as Cluster.EnableFlight says.
func TestFlightTimelineEitherOrder(t *testing.T) {
	for _, flightFirst := range []bool{false, true} {
		system := func() *SystemBuilder {
			return NewSystem("order").
				AddComponent("src", "ssA", &pingState{N: 5}, "out").
				AddComponent("dst", "ssB", &pongState{}, "in").
				AddNet("wire", 0, "src.out", "dst.in").
				SetDefaultChannel(Conservative, LinkModel{Latency: Microseconds(50), PerMessage: Microseconds(10)})
		}
		sim, err := system().BuildLocal()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := system().BuildOnNodes(map[string]*Node{"ssA": NewNode("node1"), "ssB": NewNode("node2")})
		if err != nil {
			t.Fatal(err)
		}
		simRec, clRec := flight.New(0), flight.New(0)
		if flightFirst {
			sim.EnableFlight(simRec)
			cl.EnableFlight(clRec)
		}
		sim.EnableTimeline(nil)
		cl.EnableTimeline(0)
		if !flightFirst {
			sim.EnableFlight(simRec)
			cl.EnableFlight(clRec)
		}
		if err := sim.Run(Time(Seconds(1))); err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(Time(Seconds(1))); err != nil {
			t.Fatal(err)
		}
		sim.Close()
		cl.Close()

		if n := len(simRec.BuildDump().Timeline); n == 0 {
			t.Errorf("flightFirst=%v: local post-mortem has an empty timeline tail", flightFirst)
		}
		tail := clRec.BuildDump().Timeline
		if len(tail) == 0 {
			t.Errorf("flightFirst=%v: cluster post-mortem has an empty timeline tail", flightFirst)
		}
		for _, e := range tail {
			if e.Node != "node1" {
				t.Fatalf("flightFirst=%v: cluster tail holds an event of %q, want the first node's only", flightFirst, e.Node)
			}
		}
	}
}
