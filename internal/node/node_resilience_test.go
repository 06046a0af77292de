package node

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/resilience"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// tsender emits values on "out" with a fixed period. OnSend, when set,
// runs inside the step that sent value i — the hook chaos tests use to
// break connections at a point of the simulation, not of the wall
// clock. (gob skips func fields, so checkpoints leave it alone.)
type tsender struct {
	Next, Count int
	Period      vtime.Duration
	OnSend      func(i int)
}

func (s *tsender) Run(p *core.Proc) error {
	for s.Next < s.Count {
		p.Delay(s.Period)
		p.Send("out", s.Next)
		if s.OnSend != nil {
			s.OnSend(s.Next)
		}
		s.Next++
	}
	return nil
}

func (s *tsender) SaveState() ([]byte, error)  { return core.GobSave(s) }
func (s *tsender) RestoreState(b []byte) error { return core.GobRestore(s, b) }

// trecv records every value with its virtual arrival time — the
// ground truth that fault-injected runs must reproduce exactly.
// OnValue, when set, runs inside the step that received the n-th value.
type trecv struct {
	Got     []int
	Times   []vtime.Time
	OnValue func(n int)
}

func (r *trecv) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Got = append(r.Got, m.Value.(int))
		r.Times = append(r.Times, m.Time)
		if r.OnValue != nil {
			r.OnValue(len(r.Got))
		}
	}
}

func (r *trecv) SaveState() ([]byte, error)  { return core.GobSave(r) }
func (r *trecv) RestoreState(b []byte) error { return core.GobRestore(r, b) }

// chaosPair is one two-node deployment of the sender/receiver
// workload, ready to run. node1 reaches node2 through proxy.
type chaosPair struct {
	n1, n2 *Node
	s1, s2 *core.Subsystem
	snd    *tsender
	rcv    *trecv
	proxy  *killProxy
}

// killProxy forwards TCP connections to a listener and severs every
// connection it carries on kill, as a failing network would: the
// sessions on both sides lose their epoch and resume on a new one.
type killProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newKillProxy(t *testing.T, target string) *killProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killProxy{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			u, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, u)
			p.mu.Unlock()
			go func() { io.Copy(u, c); u.Close() }()
			go func() { io.Copy(c, u); c.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.kill() })
	return p
}

// kill closes every connection the proxy has carried so far.
func (p *killProxy) kill() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// buildChaosPair wires the workload across two nodes on loopback
// TCP. configure, when non-nil, arms faults/resilience on both nodes
// before any connection exists.
func buildChaosPair(t *testing.T, count int, period, latency vtime.Duration, configure func(n1, n2 *Node)) *chaosPair {
	t.Helper()
	p := &chaosPair{}
	p.s1 = core.NewSubsystem("handheld")
	p.s2 = core.NewSubsystem("server")
	p.snd = &tsender{Count: count, Period: period}
	p.rcv = &trecv{}
	sc, _ := p.s1.NewComponent("prod", p.snd, "out")
	rc, _ := p.s2.NewComponent("cons", p.rcv, "in")
	l1, _ := p.s1.NewNet("link", 0)
	p.s1.Connect(l1, sc.Port("out"))
	l2, _ := p.s2.NewNet("link", 0)
	p.s2.Connect(l2, rc.Port("in"))

	p.n1 = New("node1")
	p.n2 = New("node2")
	p.n1.Host(p.s1)
	p.n2.Host(p.s2)
	if configure != nil {
		configure(p.n1, p.n2)
	}
	addr, err := p.n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.proxy = newKillProxy(t, addr)
	link := channel.LinkModel{Latency: latency, PerMessage: 1}
	ep, err := p.n1.Connect("handheld", p.proxy.ln.Addr().String(), "server", channel.Conservative, link)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.BindNet(l1, "link"); err != nil {
		t.Fatal(err)
	}
	ep2 := p.n2.Hosted("server").Hub.Endpoint("handheld")
	if ep2 == nil {
		t.Fatal("server side endpoint missing after handshake")
	}
	if err := ep2.BindNet(l2, "link"); err != nil {
		t.Fatal(err)
	}
	p.n1.FinishAgents()
	p.n2.FinishAgents()
	t.Cleanup(func() { p.n1.Close(); p.n2.Close() })
	return p
}

// run drives both subsystems to the horizon.
func (p *chaosPair) run(t *testing.T, horizon vtime.Time) {
	t.Helper()
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = p.s1.Run(horizon) }()
	go func() { defer wg.Done(); e2 = p.s2.Run(horizon) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
}

// assertSameResults compares a chaotic run's delivery against the
// clean reference: same values, same order, same virtual times.
func assertSameResults(t *testing.T, clean, chaotic *trecv) {
	t.Helper()
	if len(chaotic.Got) != len(clean.Got) {
		t.Fatalf("chaotic run delivered %d values, clean run %d", len(chaotic.Got), len(clean.Got))
	}
	for i := range clean.Got {
		if chaotic.Got[i] != clean.Got[i] {
			t.Fatalf("value %d diverged: chaotic %d, clean %d", i, chaotic.Got[i], clean.Got[i])
		}
		if chaotic.Times[i] != clean.Times[i] {
			t.Fatalf("virtual time of value %d diverged: chaotic %v, clean %v",
				i, chaotic.Times[i], clean.Times[i])
		}
	}
}

// TestResilientRemoteDelivery: the session layer under a healthy
// network is invisible — same results as the plain path.
func TestResilientRemoteDelivery(t *testing.T) {
	clean := buildChaosPair(t, 10, 10, 5, nil)
	clean.run(t, 500)

	resil := buildChaosPair(t, 10, 10, 5, func(n1, n2 *Node) {
		cfg := resilience.Config{Heartbeat: 20 * time.Millisecond}
		n1.SetResilience(cfg)
		n2.SetResilience(cfg)
	})
	resil.run(t, 500)
	assertSameResults(t, clean.rcv, resil.rcv)
	st := resil.n1.ResilienceStats()
	if st.Resumes != 1 || st.EpochDeaths != 0 {
		t.Fatalf("healthy run session stats: %+v", st)
	}
}

// TestReconnectMidRun kills the TCP connection at every fifth
// delivered value; the session resumes each time and the simulation's
// drives and virtual times must match the uninterrupted run exactly.
func TestReconnectMidRun(t *testing.T) {
	clean := buildChaosPair(t, 40, 10, 5, nil)
	clean.run(t, 2000)
	if len(clean.rcv.Got) != 40 {
		t.Fatalf("clean run delivered %d", len(clean.rcv.Got))
	}

	chaos := buildChaosPair(t, 40, 10, 5, func(n1, n2 *Node) {
		cfg := resilience.Config{
			Heartbeat: 10 * time.Millisecond, HeartbeatMiss: 3,
			RetryBase: 2 * time.Millisecond, RetryMax: 50,
		}
		n1.SetResilience(cfg)
		n2.SetResilience(cfg)
	})
	// The kill runs inside the receiving step, so the connection that
	// just delivered the value is the one that dies, and the values
	// still to come need a resumed one.
	kills := 0
	chaos.rcv.OnValue = func(n int) {
		if n%5 == 0 {
			kills++
			chaos.proxy.kill()
		}
	}
	chaos.run(t, 2000)
	assertSameResults(t, clean.rcv, chaos.rcv)
	if kills != 8 {
		t.Fatalf("%d kills over 40 delivered values, want 8", kills)
	}
	st := chaos.n1.ResilienceStats()
	if st.EpochDeaths == 0 || st.Resumes < 2 {
		t.Fatalf("connection kills never exercised the resume path: %+v", st)
	}
}

// TestDeliveryUnderInjectedFaults runs the workload over faultnet
// links injecting drops, duplicates, reordering and corruption in
// both directions, with a scripted partition/heal cycle. Results
// must be identical to the clean run, and each link's live fault
// schedule must verify against its pure replay digest.
func TestDeliveryUnderInjectedFaults(t *testing.T) {
	clean := buildChaosPair(t, 30, 10, 5, nil)
	clean.run(t, 2000)

	chaos := buildChaosPair(t, 30, 10, 5, func(n1, n2 *Node) {
		fcfg := faultnet.Config{
			Seed:     7,
			DropProb: 0.03, DupProb: 0.02, ReorderProb: 0.02, CorruptProb: 0.02,
			Partitions: []faultnet.Partition{{AtFrame: 40, Heal: 30 * time.Millisecond}},
		}
		rcfg := resilience.Config{
			Heartbeat: 10 * time.Millisecond, HeartbeatMiss: 3,
			RetryBase: 2 * time.Millisecond, RetryMax: 200,
		}
		for _, n := range []*Node{n1, n2} {
			n.SetFaults(fcfg)
			n.SetResilience(rcfg)
		}
	})
	chaos.run(t, 2000)
	assertSameResults(t, clean.rcv, chaos.rcv)

	links := append(chaos.n1.FaultLinks(), chaos.n2.FaultLinks()...)
	if len(links) == 0 {
		t.Fatal("no fault links created")
	}
	injected := int64(0)
	for _, l := range links {
		if err := l.VerifyDigest(); err != nil {
			t.Fatalf("link %s: %v", l.Name(), err)
		}
		st := l.Stats()
		injected += st.Dropped + st.Duplicated + st.Reordered + st.Corrupted + st.Cuts
	}
	if injected == 0 {
		t.Fatalf("fault links injected nothing: %+v", chaos.n1.FaultStats())
	}
	if st := chaos.n1.ResilienceStats(); st.EpochDeaths == 0 {
		t.Fatalf("faults never exercised recovery: %+v", st)
	}
}

// TestSnapshotRewindAcrossReconnect forces the checkpoint-rewind
// recovery: retention is tiny, a distributed snapshot completes
// early, then the connection dies while the sender still has a large
// granted window to emit into. The frames emitted during the outage
// overflow retention, so the resume negotiates a rewind to the
// snapshot — and the restored run must still produce exactly the
// clean run's drives and virtual times.
func TestSnapshotRewindAcrossReconnect(t *testing.T) {
	// Large link latency = large lookahead window: the sender can run
	// far ahead of the receiver's acks while the link is down.
	clean := buildChaosPair(t, 120, 1, 200, nil)
	clean.run(t, 3000)
	if len(clean.rcv.Got) != 120 {
		t.Fatalf("clean run delivered %d", len(clean.rcv.Got))
	}

	chaos := buildChaosPair(t, 120, 1, 200, func(n1, n2 *Node) {
		cfg := resilience.Config{
			Heartbeat: 20 * time.Millisecond, HeartbeatMiss: 4,
			RetryBase: 5 * time.Millisecond, RetryMax: 100,
			RetentionFrames: 2,
		}
		n1.SetResilience(cfg)
		n2.SetResilience(cfg)
		// A frame a message, so the outage's egress is many frames: a
		// frame cap would carry all 110 values in one.
		n1.SetCoalescing(channel.CoalesceConfig{})
	})

	// The snapshot's mark is the first message on the channel and the
	// sender cannot move before the server's first grant, which follows
	// the server's mark back (FIFO): the snapshot is complete on both
	// sides before the first value leaves.
	a1 := chaos.n1.Hosted("handheld").Agent
	tag := a1.Initiate()
	// Kill the connection from the sending step of the tenth value: the
	// sender keeps emitting the other 110 into its granted window, one
	// frame each, overflowing the 2-frame retention during the outage.
	// The rewind replays this step; the second time round it must not
	// kill again.
	killed := false
	chaos.snd.OnSend = func(i int) {
		if i != 10 || killed {
			return
		}
		killed = true
		if !a1.HasTag(tag) {
			t.Error("snapshot incomplete when the tenth value left")
		}
		chaos.proxy.kill()
	}
	chaos.run(t, 3000)
	assertSameResults(t, clean.rcv, chaos.rcv)
	if st := chaos.n1.ResilienceStats(); !killed || st.Rewinds == 0 {
		t.Fatalf("retention overflow never forced a rewind (killed=%v): %+v", killed, st)
	}
}

// TestPeerLostTyped: a vanished peer surfaces as peerLostError
// carrying the peer name, matchable via errors.Is(err, ErrPeerLost).
func TestPeerLostTyped(t *testing.T) {
	errc := make(chan string, 8)
	p := buildChaosPair(t, 5, 10, 5, func(n1, n2 *Node) {
		rec := timeline.NewRecorder(0)
		rec.Subscribe(func(e timeline.Event) {
			if e.Kind != timeline.KindSession {
				return
			}
			select {
			case errc <- e.Detail:
			default:
			}
		})
		n1.EnableTimeline(rec)
	})
	// Sever the transport abruptly: close the server node's raw
	// connections without a channel Close handshake, then watch the
	// client pump fail.
	p.n2.mu.Lock()
	conns := append([]*wire.Conn(nil), p.n2.conns...)
	p.n2.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line := <-errc:
			if containsAll(line, "peer", "lost", "server") {
				return
			}
		case <-deadline:
			t.Fatal("pump never reported the lost peer")
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
