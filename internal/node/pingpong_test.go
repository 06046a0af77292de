package node

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/vtime"
)

// pinger sends a value and waits for it to come back, Trips times.
type pinger struct {
	Trips int
	Done  vtime.Time // local time the last pong was received
}

func (g *pinger) Run(p *core.Proc) error {
	for i := 0; i < g.Trips; i++ {
		p.Delay(3)
		p.Send("out", i)
		if m, ok := p.Recv("in"); !ok || m.Value.(int) != i {
			return nil
		}
		g.Done = p.Time()
	}
	return nil
}

// ponger returns every value it receives.
type ponger struct{}

func (ponger) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		p.Delay(2)
		p.Send("out", m.Value)
	}
}

// runPingPong plays trips round trips between two nodes on loopback
// TCP over a conservative channel, with the given coalescing policy or
// — cfg nil — whatever a new endpoint starts with. It returns the
// pinger's final virtual time, the frames both nodes sent, and how
// often a scheduler stall left a message queued on an endpoint.
func runPingPong(t *testing.T, trips int, cfg *channel.CoalesceConfig) (done vtime.Time, frames int64, held int64) {
	t.Helper()
	s1, s2 := core.NewSubsystem("handheld"), core.NewSubsystem("server")
	ping := &pinger{Trips: trips}
	pc, _ := s1.NewComponent("ping", ping, "out", "in")
	qc, _ := s2.NewComponent("pong", ponger{}, "out", "in")
	// Two split nets, one per direction.
	connect := func(s *core.Subsystem, name string, port *core.Port) *core.Net {
		n, _ := s.NewNet(name, 0)
		if err := s.Connect(n, port); err != nil {
			t.Fatal(err)
		}
		return n
	}
	there1, back1 := connect(s1, "there", pc.Port("out")), connect(s1, "back", pc.Port("in"))
	there2, back2 := connect(s2, "there", qc.Port("in")), connect(s2, "back", qc.Port("out"))

	n1, n2 := New("node1"), New("node2")
	defer n1.Close()
	defer n2.Close()
	if cfg != nil {
		n1.SetCoalescing(*cfg)
		n2.SetCoalescing(*cfg)
	}
	n1.Host(s1)
	n2.Host(s2)
	addr, err := n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := n1.Connect("handheld", addr, "server", channel.Conservative, channel.LinkModel{Latency: 5, PerMessage: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep2 := n2.Hosted("server").Hub.Endpoint("handheld")
	if ep2 == nil {
		t.Fatal("server side endpoint missing after handshake")
	}
	for _, b := range []struct {
		ep   *channel.Endpoint
		net  *core.Net
		name string
	}{{ep1, there1, "there"}, {ep1, back1, "back"}, {ep2, there2, "there"}, {ep2, back2, "back"}} {
		if err := b.ep.BindNet(b.net, b.name); err != nil {
			t.Fatal(err)
		}
	}
	n1.FinishAgents()
	n2.FinishAgents()

	// After the hub's own stall hook has run, nothing may be left in
	// an egress queue: the scheduler is about to block, and the peer
	// is blocked on exactly that message.
	var stalls, heldAtStall atomic.Int64
	for _, h := range []*Hosted{n1.Hosted("handheld"), n2.Hosted("server")} {
		hub, flush := h.Hub, h.Sub.OnStall
		h.Sub.OnStall = func() {
			flush()
			stalls.Add(1)
			for _, ep := range hub.Endpoints() {
				heldAtStall.Add(int64(ep.PendingOut()))
			}
		}
	}

	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(vtime.Time(100 * trips)) }()
	go func() { defer wg.Done(); e2 = s2.Run(vtime.Time(100 * trips)) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	if stalls.Load() == 0 {
		t.Fatal("a ping-pong that never stalled a scheduler is not waiting on its peer")
	}
	for _, ep := range []*channel.Endpoint{ep1, ep2} {
		if st := ep.Stats(); st.DataOut != int64(trips) || st.DataIn != int64(trips) {
			t.Fatalf("%s: %d out, %d in, want %d round trips", ep.Name(), st.DataOut, st.DataIn, trips)
		}
	}
	return ping.Done, n1.WireStats().FramesOut + n2.WireStats().FramesOut, heldAtStall.Load()
}

// TestPingPongLoneMessageNeverHeld is the latency hazard of batching
// by default, measured: in a topology where each side waits for the
// other, every message is alone in its egress queue and no count or
// byte budget will ever trip for it. It must leave at the stall flush.
// So every stall finds the queues empty, the round trips complete at
// the virtual time the flush-per-message reference reaches, and they
// cost no more frames than it does — a held message would show as a
// hang, a later time or an extra ask.
func TestPingPongLoneMessageNeverHeld(t *testing.T) {
	const trips = 40
	refDone, refFrames, refHeld := runPingPong(t, trips, &channel.CoalesceConfig{})
	done, frames, held := runPingPong(t, trips, nil)
	if refHeld != 0 || held != 0 {
		t.Fatalf("messages left queued at a stall: reference %d, default %d", refHeld, held)
	}
	if refDone == 0 || done != refDone {
		t.Fatalf("last pong at %v by default, %v flushing per message", done, refDone)
	}
	if frames > refFrames {
		t.Fatalf("default policy sent %d frames for %d round trips, flush-per-message %d", frames, trips, refFrames)
	}
	t.Logf("%d round trips: %.1f frames each by default, %.1f flushing per message", trips, float64(frames)/trips, float64(refFrames)/trips)
}
