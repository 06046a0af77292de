package node

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/vtime"
)

// sender emits Count values on "out".
type sender struct {
	Next, Count int
	Period      vtime.Duration
}

func (s *sender) Run(p *core.Proc) error {
	for s.Next < s.Count {
		p.Delay(s.Period)
		p.Send("out", s.Next)
		s.Next++
	}
	return nil
}

func (s *sender) SaveState() ([]byte, error)  { return core.GobSave(s) }
func (s *sender) RestoreState(b []byte) error { return core.GobRestore(s, b) }

type receiver struct {
	Got []int
}

func (r *receiver) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Got = append(r.Got, m.Value.(int))
	}
}

func (r *receiver) SaveState() ([]byte, error)  { return core.GobSave(r) }
func (r *receiver) RestoreState(b []byte) error { return core.GobRestore(r, b) }

// buildRemotePair creates two nodes on loopback TCP with the logical
// net "link" split across them.
func buildRemotePair(t *testing.T, policy channel.Policy, count int) (n1, n2 *Node, s1, s2 *core.Subsystem, rcv *receiver) {
	t.Helper()
	s1 = core.NewSubsystem("handheld")
	s2 = core.NewSubsystem("server")
	snd := &sender{Count: count, Period: 10}
	rcv = &receiver{}
	sc, _ := s1.NewComponent("prod", snd)
	sc.AddPort("out")
	rc, _ := s2.NewComponent("cons", rcv)
	rc.AddPort("in")
	l1, _ := s1.NewNet("link", 0)
	s1.Connect(l1, sc.Port("out"))
	l2, _ := s2.NewNet("link", 0)
	s2.Connect(l2, rc.Port("in"))

	n1 = New("node1")
	n2 = New("node2")
	n1.Host(s1)
	n2.Host(s2)
	addr, err := n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	link := channel.LinkModel{Latency: 5, PerMessage: 1}
	ep, err := n1.Connect("handheld", addr, "server", policy, link)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.BindNet(l1, "link"); err != nil {
		t.Fatal(err)
	}
	// The server side's endpoint was created by the handshake.
	ep2 := n2.Hosted("server").Hub.Endpoint("handheld")
	if ep2 == nil {
		t.Fatal("server side endpoint missing after handshake")
	}
	if err := ep2.BindNet(l2, "link"); err != nil {
		t.Fatal(err)
	}
	n1.FinishAgents()
	n2.FinishAgents()
	return
}

func TestRemoteChannelDelivery(t *testing.T) {
	n1, n2, s1, s2, rcv := buildRemotePair(t, channel.Conservative, 10)
	defer n1.Close()
	defer n2.Close()
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(500) }()
	go func() { defer wg.Done(); e2 = s2.Run(500) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 10 {
		t.Fatalf("received %d over TCP, want 10", len(rcv.Got))
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("order broken over TCP: %v", rcv.Got)
		}
	}
}

// TestRemoteCoalescedDelivery is the end-to-end check for message
// coalescing: batch frames actually cross a real TCP connection, the
// safe-time protocol still converges, and delivery stays in order.
func TestRemoteCoalescedDelivery(t *testing.T) {
	n1, n2, s1, s2, rcv := buildRemotePair(t, channel.Conservative, 25)
	defer n1.Close()
	defer n2.Close()
	cfg := channel.CoalesceConfig{MaxBytes: 96} // a few drives a frame
	n1.SetCoalescing(cfg)
	n2.SetCoalescing(cfg)
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(500) }()
	go func() { defer wg.Done(); e2 = s2.Run(500) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 25 {
		t.Fatalf("received %d over coalesced TCP, want 25", len(rcv.Got))
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("order broken over coalesced TCP: %v", rcv.Got)
		}
	}
	ep := n1.Hosted("handheld").Hub.Endpoint("server")
	if st := ep.Stats(); st.Flushes == 0 || st.FlushedMsgs == 0 {
		t.Fatalf("sender never batched: %+v", st)
	}
	ws := n1.WireStats()
	if st := ep.Stats(); ws.FramesOut >= st.FlushedMsgs {
		t.Fatalf("coalescing sent %d frames for %d messages — no batching on the wire",
			ws.FramesOut, st.FlushedMsgs)
	}
}

func TestRemoteInfiniteRunTerminatesViaClose(t *testing.T) {
	n1, n2, s1, s2, rcv := buildRemotePair(t, channel.Conservative, 3)
	defer n1.Close()
	defer n2.Close()
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Run(vtime.Infinity) }()
	if err := s1.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := n1.CloseChannels(); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	if len(rcv.Got) != 3 {
		t.Fatalf("received %v", rcv.Got)
	}
}

func TestConnectUnknownSubsystem(t *testing.T) {
	n2 := New("srv")
	s := core.NewSubsystem("real")
	n2.Host(s)
	addr, err := n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	n1 := New("cli")
	sl := core.NewSubsystem("local")
	n1.Host(sl)
	defer n1.Close()
	_, err = n1.Connect("local", addr, "ghost", channel.Conservative, channel.LinkModel{Latency: 1})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("expected rejection naming the missing subsystem, got %v", err)
	}
	if _, err := n1.Connect("nolocal", addr, "real", channel.Conservative, channel.LinkModel{Latency: 1}); err == nil {
		t.Fatal("connect from unhosted local subsystem accepted")
	}
}

func TestHostIdempotent(t *testing.T) {
	n := New("x")
	s := core.NewSubsystem("s")
	h1 := n.Host(s)
	h2 := n.Host(s)
	if h1 != h2 {
		t.Fatal("Host not idempotent")
	}
	if n.Hosted("s") != h1 || n.Hosted("nope") != nil {
		t.Fatal("Hosted lookup broken")
	}
	if n.Name() != "x" {
		t.Fatal("Name broken")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n := New("c")
	if _, err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
