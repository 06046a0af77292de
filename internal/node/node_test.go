package node

import (
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vtime"
	"repro/internal/wire"
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

func (s *sender) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(s.Next)), nil }
func (s *sender) RestoreState(b []byte) error { return wire.ReadInts(b, &s.Next) }

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

func (r *receiver) SaveState() ([]byte, error) { return appendList(nil, r.Got), nil }

func (r *receiver) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	r.Got = readList[int](&f)
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

// buildRemotePair creates two nodes on loopback TCP with the logical
// net "link" split across them.
func buildRemotePair(t *testing.T, policy channel.Policy, count int) (n1, n2 *Node, s1, s2 *core.Subsystem, rcv *receiver) {
	t.Helper()
	s1 = core.NewSubsystem("handheld")
	s2 = core.NewSubsystem("server")
	snd := &sender{Count: count, Period: 10}
	rcv = &receiver{}
	sc, _ := s1.NewComponent("prod", snd, "out")
	rc, _ := s2.NewComponent("cons", rcv, "in")
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

// TestReceiveBuffersComeBackOnce: a node pair closed mid-page, while
// both pumps are still reading, returns each connection's receive
// buffer to the pool exactly once, and only once the pump reading it
// has returned. make race runs it under the race detector, which also
// sees a buffer handed on while a read still writes into it.
func TestReceiveBuffersComeBackOnce(t *testing.T) {
	n1, n2, s1, s2, _ := buildRemotePair(t, channel.Conservative, 1<<20)
	pumpReturned := func(c *wire.Conn) bool {
		for _, n := range []*Node{n1, n2} {
			n.mu.Lock()
			for _, h := range n.hosted {
				for _, l := range h.links {
					if l.c == c {
						n.mu.Unlock()
						return l.done
					}
				}
			}
			n.mu.Unlock()
		}
		return false
	}
	var mu sync.Mutex
	back := map[*wire.Conn]int{}
	stopReading = func(c *wire.Conn) {
		if !pumpReturned(c) {
			t.Error("a receive buffer came back before its pump returned")
		}
		mu.Lock()
		back[c]++
		mu.Unlock()
		c.StopReading()
	}
	t.Cleanup(func() { stopReading = (*wire.Conn).StopReading })
	conns := append(slices.Clone(n1.conns), n2.conns...)
	if len(conns) != 2 {
		t.Fatalf("the pair holds %d connections, want 2", len(conns))
	}

	runs := make(chan error, 2)
	go func() { runs <- s1.Run(vtime.Infinity) }()
	go func() { runs <- s2.Run(vtime.Infinity) }()
	ep := n2.Hosted("server").Hub.Endpoint("handheld")
	within(t, "the first drives", func() error {
		for ep.QueuedCount() < 1000 {
			runtime.Gosched()
		}
		return nil
	})
	within(t, "Close", func() error { return errors.Join(n1.Close(), n2.Close()) })
	s1.Stop()
	s2.Stop()
	for range 2 {
		within(t, "a run", func() error { <-runs; return nil })
	}
	mu.Lock()
	defer mu.Unlock()
	for _, c := range conns {
		if back[c] != 1 {
			t.Errorf("a connection's receive buffer came back %d times, want once", back[c])
		}
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

// TestResolverServesAMiss: a hello naming no hosted subsystem goes to
// the resolver, which may host one for it, let the refusal stand, or
// refuse with its own reason; a bad link is refused before it is asked,
// and a hosted name never reaches it.
func TestResolverServesAMiss(t *testing.T) {
	srv := New("srv")
	srv.Host(core.NewSubsystem("real"))
	var (
		mu    sync.Mutex
		asked []string
	)
	srv.SetResolver(func(name string) (*Hosted, error) {
		mu.Lock()
		asked = append(asked, name)
		mu.Unlock()
		switch name {
		case "fresh":
			return srv.Host(core.NewSubsystem("fresh-1")), nil
		case "full":
			return nil, errors.New("no room for another tenant")
		}
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := New("cli")
	cli.Host(core.NewSubsystem("local"))
	defer cli.Close()
	dial := func(to string, link channel.LinkModel) error {
		_, err := cli.Connect("local", addr, to, channel.Conservative, link)
		return err
	}

	if err := dial("fresh", channel.LinkModel{Latency: 1}); err != nil {
		t.Fatalf("resolved dial: %v", err)
	}
	if srv.Hosted("fresh-1").Hub.Endpoint("local") == nil {
		t.Fatal("the resolved subsystem has no endpoint toward the dialer")
	}
	for _, tc := range []struct {
		to, want string
		link     channel.LinkModel
	}{
		{"ghost", `hosts no subsystem "ghost"`, channel.LinkModel{Latency: 1}},
		{"full", "no room for another tenant", channel.LinkModel{Latency: 1}},
		{"fresh", "positive lookahead", channel.LinkModel{}},
	} {
		if err := dial(tc.to, tc.link); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dial %q: %v, want a refusal naming %q", tc.to, err, tc.want)
		}
	}
	if err := dial("real", channel.LinkModel{Latency: 1}); err != nil {
		t.Fatalf("hosted dial: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"fresh", "ghost", "full"}; !slices.Equal(asked, want) {
		t.Fatalf("resolver asked for %q, want %q", asked, want)
	}
}

// TestUnhostDropsItsLinks: a connection that served an unhosted
// subsystem is closed and forgotten once its pump returns, whether the
// peer finished before the unhost or after it, and the node's wire
// totals keep what it carried.
func TestUnhostDropsItsLinks(t *testing.T) {
	srv := New("srv")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	live := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if !ok() {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	for _, peerFirst := range []bool{true, false} {
		srv.Host(core.NewSubsystem("tenant"))
		cli := New("cli")
		cli.Host(core.NewSubsystem("local"))
		if _, err := cli.Connect("local", addr, "tenant", channel.Conservative, channel.LinkModel{Latency: 1}); err != nil {
			t.Fatal(err)
		}
		if live() != 1 {
			t.Fatalf("%d conns after the dial, want 1", live())
		}
		if peerFirst {
			// The server's pump returns once the peer's close arrives;
			// the link stays until the subsystem is unhosted.
			cli.CloseChannels()
			waitFor("the peer's close", func() bool {
				srv.mu.Lock()
				defer srv.mu.Unlock()
				return srv.hosted["tenant"].links[0].done
			})
			if live() != 1 {
				t.Fatalf("%d conns before the unhost, want 1", live())
			}
		}
		before := srv.WireStats()
		srv.Unhost("tenant")
		if !peerFirst {
			cli.CloseChannels()
		}
		waitFor("the link to be dropped", func() bool { return live() == 0 })
		if after := srv.WireStats(); after.FramesIn < before.FramesIn || after.BytesOut < before.BytesOut {
			t.Fatalf("wire totals fell when the link was dropped: %+v, then %+v", before, after)
		}
		cli.Close()
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

// TestEnableMetricsWiresOnlyTheNode: a node's registry carries the
// node's own series, not its hosted subsystems' or their channels' —
// whoever builds a subsystem wires it — so a node hosting tenant after
// tenant adds nothing to the registry per tenant.
func TestEnableMetricsWiresOnlyTheNode(t *testing.T) {
	n1, n2, _, _, _ := buildRemotePair(t, channel.Conservative, 1)
	defer n1.Close()
	defer n2.Close()
	reg := metrics.NewRegistry()
	n2.EnableMetrics(reg)
	late := core.NewSubsystem("late")
	n2.Host(late)
	var names []string
	for _, s := range reg.Snapshot() {
		names = append(names, s.Name)
		if strings.Contains(s.Name, "sub=") {
			t.Errorf("the node wired a hosted subsystem's series %s", s.Name)
		}
	}
	if !slices.Contains(names, `pia_wire_bytes_out{node="node2"}`) {
		t.Errorf("no node wire counters among %v", names)
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
