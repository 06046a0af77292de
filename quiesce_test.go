package pia

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
)

// heldPipe is one end of an in-process pipe that passes its first pass
// frames on and holds every later one until release.
type heldPipe struct {
	channel.Transport

	mu   sync.Mutex
	pass int // frames still to pass on before holding; < 0 passes all
	sent int // frames passed on
	held [][]byte
}

func (p *heldPipe) SendFrame(frame []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pass == 0 {
		p.held = append(p.held, bytes.Clone(frame))
		return nil
	}
	p.pass--
	p.sent++
	return p.Transport.SendFrame(frame)
}

// heldCount reports how many frames are held.
func (p *heldPipe) heldCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.held)
}

// release passes the held frames on, in order, and everything after.
func (p *heldPipe) release() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pass = -1
	for _, f := range p.held {
		if err := p.Transport.SendFrame(f); err != nil {
			return err
		}
	}
	p.held = nil
	return nil
}

// heldPair builds a two-subsystem simulation by hand, as build wires
// one: ssA's "src" sends three values 10 ns apart over an optimistic
// channel to ssB's "dst", and what ssA sends goes through a heldPipe
// that passes its first pass frames. An optimistic subsystem returns
// from a round once its own work is done, so a held frame leaves both
// back from the round with Run waiting between rounds for it.
func heldPair(t *testing.T, pass int) (sim *Simulation, toB *heldPipe, epB *channel.Endpoint, dst *pongState) {
	t.Helper()
	sim = &Simulation{
		Subsystems: make(map[string]*core.Subsystem),
		Hubs:       make(map[string]*channel.Hub),
		subOrder:   []string{"ssA", "ssB"},
		wake:       make(chan struct{}, 1),
	}
	dst = &pongState{}
	behaviors := map[string]struct {
		comp, port string
		b          Behavior
	}{
		"ssA": {"src", "out", &pingState{N: 3}},
		"ssB": {"dst", "in", dst},
	}
	nets := make(map[string]*core.Net)
	for _, name := range sim.subOrder {
		s := core.NewSubsystem(name)
		bh := behaviors[name]
		c, err := s.NewComponent(bh.comp, bh.b, bh.port)
		if err != nil {
			t.Fatal(err)
		}
		if nets[name], err = s.NewNet("wire", 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Connect(nets[name], c.Port(bh.port)); err != nil {
			t.Fatal(err)
		}
		sim.Subsystems[name], sim.Hubs[name] = s, channel.NewHub(s)
		sim.Hubs[name].SetWake(sim.wake)
	}
	link := LinkModel{Latency: Microseconds(50)}
	ta, tb := channel.Pipe()
	toB = &heldPipe{Transport: ta, pass: pass}
	epA, err := sim.Hubs["ssA"].NewEndpoint("ssB", Optimistic, link, toB)
	if err != nil {
		t.Fatal(err)
	}
	if epB, err = sim.Hubs["ssB"].NewEndpoint("ssA", Optimistic, link, tb); err != nil {
		t.Fatal(err)
	}
	ta.Receive(epA.OnMessages)
	tb.Receive(epB.OnMessages)
	for name, ep := range map[string]*channel.Endpoint{"ssA": epA, "ssB": epB} {
		if err := ep.BindNet(nets[name], "wire"); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { sim.Close() })
	return sim, toB, epB, dst
}

// pokeQuiesce proves Run is waiting between rounds: it posts to the
// wake signal twice, and only quiesce takes a post off it, so the
// second post lands only once quiesce has looked again. It fails the
// test if Run returns instead.
func pokeQuiesce(t *testing.T, sim *Simulation, done <-chan error) {
	t.Helper()
	for range 2 {
		select {
		case sim.wake <- struct{}{}:
		case err := <-done:
			t.Fatalf("Run returned %v with a frame held", err)
		}
	}
}

// start runs sim on a goroutine of its own; wait collects the result.
func start(sim *Simulation, until Time) <-chan error {
	done := make(chan error, 1)
	go func() { done <- sim.Run(until) }()
	return done
}

// wait returns Run's result, failing the test after a generous wall
// time instead of hanging it.
func wait(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("Run hangs %s", what)
		return nil
	}
}

// TestQuiesceWakesOnHeldFrame: Run waits between rounds for a frame in
// flight, and the frame's arrival is what ends the wait. A reference
// run counts the frames ssA sends; the held run holds the last of them.
// Run must still be running after quiesce has looked twice with it
// held, and once it is released Run returns with the reference run's
// result. Nothing but the endpoints' posts (and the test's) wakes the
// wait: the test's own clock is only a guard against a hang.
func TestQuiesceWakesOnHeldFrame(t *testing.T) {
	horizon := Time(Seconds(1))
	ref, refPipe, _, refDst := heldPair(t, -1)
	if err := wait(t, start(ref, horizon), "with nothing held"); err != nil {
		t.Fatal(err)
	}
	frames := refPipe.sent
	if frames == 0 || len(refDst.Got) != 3 {
		t.Fatalf("reference run sent %d frames and delivered %v", frames, refDst.Got)
	}

	sim, toB, _, dst := heldPair(t, frames-1)
	done := start(sim, horizon)
	pokeQuiesce(t, sim, done)
	if n := toB.heldCount(); n != 1 {
		t.Fatalf("%d frames held, want ssA's last one", n)
	}
	select {
	case err := <-done:
		t.Fatalf("Run returned %v with a frame held", err)
	default:
	}
	if err := toB.release(); err != nil {
		t.Fatal(err)
	}
	if err := wait(t, done, "after the held frame was released"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst.Got, refDst.Got) {
		t.Fatalf("delivered %v, reference %v", dst.Got, refDst.Got)
	}
	for _, name := range sim.subOrder {
		if got, want := sim.Subsystems[name].Now(), ref.Subsystems[name].Now(); got != want {
			t.Fatalf("%s ends at %v, reference %v", name, got, want)
		}
	}
}

// TestQuiesceWakesOnPeerLost: a transport that dies while Run waits
// between rounds for a frame it held ends the run with the loss, the
// error its pump latches, instead of a wait for the frame for ever.
func TestQuiesceWakesOnPeerLost(t *testing.T) {
	sim, _, epB, _ := heldPair(t, 0)
	done := start(sim, Time(Seconds(1)))
	pokeQuiesce(t, sim, done)
	died := errors.New("transport died")
	epB.PeerLost(died) // as a pump whose transport died does
	if err := wait(t, done, "after the peer was lost"); !errors.Is(err, died) {
		t.Fatalf("Run returned %v, want the latched loss", err)
	}
}
