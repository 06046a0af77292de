package channel

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// sender emits Count values on "out", spaced Period apart.
type sender struct {
	Next   int
	Count  int
	Period vtime.Duration
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

// receiver records what arrives on "in".
type receiver struct {
	Got   []int
	Times []vtime.Time
}

func (r *receiver) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Got = append(r.Got, m.Value.(int))
		r.Times = append(r.Times, m.Time)
	}
}

func (r *receiver) SaveState() ([]byte, error) {
	return appendList(appendList(nil, r.Got), r.Times), nil
}

func (r *receiver) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	r.Got, r.Times = readList[int](&f), readList[vtime.Time](&f)
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

// twoSubs builds SS1 (sender) and SS2 (receiver) with the logical net
// "link" split between them, bridged by a channel of the given policy.
func twoSubs(t *testing.T, policy Policy, link LinkModel, count int, period vtime.Duration) (s1, s2 *core.Subsystem, snd *sender, rcv *receiver, h1, h2 *Hub) {
	t.Helper()
	snd = &sender{Count: count, Period: period}
	rcv = &receiver{}
	s1, s2, h1, h2 = splitPair(t, policy, link, snd, rcv)
	return
}

// splitPair is twoSubs for any producer driving "out" and any consumer
// receiving on "in".
func splitPair(t *testing.T, policy Policy, link LinkModel, prod, cons core.Behavior) (s1, s2 *core.Subsystem, h1, h2 *Hub) {
	t.Helper()
	s1 = core.NewSubsystem("ss1")
	s2 = core.NewSubsystem("ss2")
	sc, _ := s1.NewComponent("prod", prod, "out")
	rc, _ := s2.NewComponent("cons", cons, "in")
	// The split net: one fragment per subsystem.
	n1, _ := s1.NewNet("link", 0)
	if err := s1.Connect(n1, sc.Port("out")); err != nil {
		t.Fatal(err)
	}
	n2, _ := s2.NewNet("link", 0)
	if err := s2.Connect(n2, rc.Port("in")); err != nil {
		t.Fatal(err)
	}
	h1, h2 = NewHub(s1), NewHub(s2)
	ep1, ep2, err := Connect(h1, h2, policy, link)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep1.BindNet(n1, "link"); err != nil {
		t.Fatal(err)
	}
	if err := ep2.BindNet(n2, "link"); err != nil {
		t.Fatal(err)
	}
	return
}

// runBoth runs both subsystems to the horizon concurrently and
// returns their errors.
func runBoth(s1, s2 *core.Subsystem, until vtime.Time) (error, error) {
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(until) }()
	go func() { defer wg.Done(); e2 = s2.Run(until) }()
	wg.Wait()
	return e1, e2
}

func TestConservativeDelivery(t *testing.T) {
	link := LinkModel{Latency: 5, PerMessage: 1}
	s1, s2, _, rcv, _, _ := twoSubs(t, Conservative, link, 10, 10)
	e1, e2 := runBoth(s1, s2, 1000)
	if e1 != nil || e2 != nil {
		t.Fatalf("run errors: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 10 {
		t.Fatalf("received %d values, want 10", len(rcv.Got))
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("value %d = %d (out of order?)", i, v)
		}
	}
	// Arrival times must be strictly increasing (FIFO link) and
	// reflect the link model: send at 10i+10, arrive >= send+6.
	for i, at := range rcv.Times {
		sendT := vtime.Time(10 * (i + 1))
		if at < sendT.Add(link.Lookahead()) {
			t.Fatalf("arrival %d at %v, earlier than physics allows (%v)", i, at, sendT.Add(link.Lookahead()))
		}
		if i > 0 && at <= rcv.Times[i-1] {
			t.Fatalf("arrivals not increasing: %v", rcv.Times)
		}
	}
}

func TestConservativeNoCausalityViolation(t *testing.T) {
	// The receiver's subsystem runs a local busy component that would
	// race far ahead of the sender if the gate did not stall it
	// (Fig 3: Subsystem 1 must stall to maintain consistency).
	link := LinkModel{Latency: 5, PerMessage: 1}
	s1, s2, _, rcv, _, h2 := twoSubs(t, Conservative, link, 20, 10)
	busy := &sender{Count: 1000, Period: 1} // local noise on ss2
	bc, _ := s2.NewComponent("busy", busy, "out")
	nb, _ := s2.NewNet("noise", 0)
	s2.Connect(nb, bc.Port("out"))

	e1, e2 := runBoth(s1, s2, 2000)
	if e1 != nil || e2 != nil {
		t.Fatalf("run errors: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 20 {
		t.Fatalf("received %d, want 20", len(rcv.Got))
	}
	for _, ep := range h2.Endpoints() {
		if err := ep.Err(); err != nil {
			t.Fatalf("conservative causality violation detected: %v", err)
		}
	}
}

func TestConservativeBidirectional(t *testing.T) {
	// Ping-pong across the channel: a requester on ss1, an echo on
	// ss2. Exercises the mutual-blocking lifting (Fig 4 semantics:
	// each side needs safe times from the other).
	s1 := core.NewSubsystem("ss1")
	s2 := core.NewSubsystem("ss2")
	const rounds = 5
	var rtts []vtime.Duration
	ping := core.BehaviorFunc(func(p *core.Proc) error {
		for i := 0; i < rounds; i++ {
			start := p.Time()
			p.Send("out", i)
			m, ok := p.Recv("in")
			if !ok {
				return nil
			}
			if m.Value.(int) != i {
				t.Errorf("echo %d = %v", i, m.Value)
			}
			rtts = append(rtts, p.Time().Sub(start))
		}
		return nil
	})
	pc, _ := s1.NewComponent("ping", &gobBehavior{B: ping}, "out", "in")
	echo := core.BehaviorFunc(func(p *core.Proc) error {
		for {
			m, ok := p.Recv("in")
			if !ok {
				return nil
			}
			p.Advance(3)
			p.Send("out", m.Value)
		}
	})
	ec, _ := s2.NewComponent("echo", &gobBehavior{B: echo}, "in", "out")

	req1, _ := s1.NewNet("req", 0)
	s1.Connect(req1, pc.Port("out"))
	rsp1, _ := s1.NewNet("rsp", 0)
	s1.Connect(rsp1, pc.Port("in"))
	req2, _ := s2.NewNet("req", 0)
	s2.Connect(req2, ec.Port("in"))
	rsp2, _ := s2.NewNet("rsp", 0)
	s2.Connect(rsp2, ec.Port("out"))

	h1, h2 := NewHub(s1), NewHub(s2)
	link := LinkModel{Latency: 10, PerMessage: 2}
	ep1, ep2, err := Connect(h1, h2, Conservative, link)
	if err != nil {
		t.Fatal(err)
	}
	ep1.BindNet(req1, "req")
	ep2.BindNet(rsp2, "rsp")

	e1, e2 := runBoth(s1, s2, 10000)
	if e1 != nil || e2 != nil {
		t.Fatalf("run errors: %v / %v", e1, e2)
	}
	if len(rtts) != rounds {
		t.Fatalf("completed %d rounds, want %d", len(rtts), rounds)
	}
	// Round trip >= 2 * lookahead + compute.
	min := vtime.Duration(2*12 + 3)
	for i, d := range rtts {
		if d < min {
			t.Fatalf("round %d RTT %v below physical minimum %v", i, d, min)
		}
	}
}

// gobBehavior wraps a stateless BehaviorFunc with trivial state
// saving so it can live in checkpointable subsystems.
type gobBehavior struct {
	B core.Behavior
}

func (g *gobBehavior) Run(p *core.Proc) error      { return g.B.Run(p) }
func (g *gobBehavior) SaveState() ([]byte, error)  { return []byte{}, nil }
func (g *gobBehavior) RestoreState(b []byte) error { return nil }

func TestOptimisticStragglerRollsBack(t *testing.T) {
	// ss2 has local work that races far ahead; the optimistic
	// channel lets it, then the first remote message arrives in its
	// past and forces a rollback.
	link := LinkModel{Latency: 5, PerMessage: 1}
	s1, s2, _, rcv, h1, h2 := twoSubs(t, Optimistic, link, 5, 100)
	busy := &sender{Count: 2000, Period: 1}
	bc, _ := s2.NewComponent("busy", busy, "out")
	nb, _ := s2.NewNet("noise", 0)
	s2.Connect(nb, bc.Port("out"))
	s2.SetAutoCheckpoint(10)
	s2.SetCheckpointRetention(1000)

	// Let ss2 race ahead optimistically before ss1 produces anything,
	// so ss1's messages are guaranteed to be stragglers.
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Run(vtime.Infinity) }()
	for {
		if now, _ := s2.PublishedTimes(); now >= 1500 {
			break
		}
	}
	e1 := s1.Run(3000)
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := <-done2
	if e1 != nil || e2 != nil {
		t.Fatalf("run errors: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 5 {
		t.Fatalf("received %d, want 5: %v", len(rcv.Got), rcv.Got)
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("order broken after rollback: %v", rcv.Got)
		}
	}
	ep := h2.Endpoints()[0]
	if ep.Stats().Stragglers == 0 {
		t.Fatal("expected stragglers on the optimistic channel")
	}
	if s2.Stats().Restores == 0 {
		t.Fatal("straggler did not trigger a restore")
	}
}

func TestOptimisticNoGateNoStall(t *testing.T) {
	// An optimistic channel must not register a gate: ss2 should be
	// able to finish its local work without any grant exchange.
	link := LinkModel{Latency: 5, PerMessage: 1}
	s1, s2, _, _, h1, h2 := twoSubs(t, Optimistic, link, 1, 10)
	if err := s1.Run(50); err != nil {
		t.Fatal(err)
	}
	// ss2 drains what has arrived, then returns at the horizon
	// without waiting for grants.
	if err := s2.Run(50); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Hub{h1, h2} {
		for _, ep := range h.Endpoints() {
			st := ep.Stats()
			if st.AsksOut != 0 {
				t.Fatalf("optimistic endpoint sent %d asks", st.AsksOut)
			}
		}
	}
}

func TestHubDuplicateEndpoint(t *testing.T) {
	s := core.NewSubsystem("dup")
	h := NewHub(s)
	ta, _ := Pipe()
	if _, err := h.NewEndpoint("peer", Optimistic, LinkModel{Latency: 1}, ta); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewEndpoint("peer", Optimistic, LinkModel{Latency: 1}, ta); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
	if h.Endpoint("peer") == nil || h.Endpoint("ghost") != nil {
		t.Fatal("Endpoint lookup wrong")
	}
}

func TestConservativeRequiresLookahead(t *testing.T) {
	s := core.NewSubsystem("la")
	h := NewHub(s)
	ta, _ := Pipe()
	if _, err := h.NewEndpoint("peer", Conservative, LinkModel{}, ta); err == nil {
		t.Fatal("zero-lookahead conservative channel accepted")
	}
}

func TestLinkModel(t *testing.T) {
	lm := LinkModel{Latency: 100, BytesPerSecond: 1_000_000_000, PerMessage: 10}
	// 1 GB/s = 1 byte per ns.
	if d := lm.transferTime(500); d != 510 {
		t.Fatalf("TransferTime = %v, want 510", d)
	}
	arrive, busy := lm.arrival(1000, 500, 0)
	if busy != 1510 || arrive != 1610 {
		t.Fatalf("Arrival = %v busy %v", arrive, busy)
	}
	// Serialization: second message queues behind the first.
	arrive2, busy2 := lm.arrival(1000, 500, busy)
	if busy2 != busy+510 || arrive2 != busy2+100 {
		t.Fatalf("serialized Arrival = %v busy %v", arrive2, busy2)
	}
	if lm.Lookahead() != 110 {
		t.Fatalf("Lookahead = %v", lm.Lookahead())
	}
	if err := (LinkModel{Latency: -1}).Validate(false); err == nil {
		t.Fatal("negative latency accepted")
	}
}

// frameOf encodes msgs as one frame the way an endpoint builds it:
// room for the transport's header, then the batch payload.
func frameOf(t *testing.T, msgs []Message) []byte {
	t.Helper()
	frame, n, err := AppendBatch(make([]byte, wire.HeaderLen), msgs, 1<<20)
	if err != nil || n != len(msgs) {
		t.Fatalf("encoded %d of %d messages: %v", n, len(msgs), err)
	}
	wire.PutHeader(frame, wire.FrameBatch)
	return frame
}

func TestPipeFIFO(t *testing.T) {
	a, b := Pipe()
	var got []uint64
	var mu sync.Mutex
	done := make(chan struct{})
	b.Receive(func(burst *Batch) {
		mu.Lock()
		for _, m := range burst.Msgs {
			got = append(got, m.Seq)
		}
		if len(got) == 100 {
			close(done)
		}
		mu.Unlock()
	})
	// Frames of 1, 2, 3, ... messages: order holds within and across
	// SendFrame calls.
	for i, n := 1, 1; i <= 100; i, n = i+n, n+1 {
		var batch []Message
		for j := i; j < i+n && j <= 100; j++ {
			batch = append(batch, Message{Seq: uint64(j)})
		}
		frame := frameOf(t, batch)
		if err := a.SendFrame(frame); err != nil {
			t.Fatal(err)
		}
		clear(frame) // the pipe must not alias the caller's frame
	}
	<-done
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("FIFO broken at %d: %v", i, s)
		}
	}
	b.Close()
	if err := a.SendFrame(frameOf(t, []Message{{Seq: 101}})); err != ErrPipeClosed {
		t.Fatalf("send after close = %v, want ErrPipeClosed", err)
	}
}

// TestPipeDropsDeliveredValues: once a burst has been handed on and
// its receiver has let go of a value in it, nothing of the pipe keeps
// the value alive — as the queue's popped slots used to, holding a
// delivered packet for as long as later sends reused the queue's array.
func TestPipeDropsDeliveredValues(t *testing.T) {
	a, b := Pipe()
	delivered := make(chan weak.Pointer[byte], 1)
	b.Receive(func(burst *Batch) {
		var held weak.Pointer[byte]
		for _, m := range burst.Msgs {
			if pkt, ok := m.Value.(signal.Packet); ok {
				held = weak.Make(&pkt[0])
			}
		}
		clear(burst.Msgs)
		delivered <- held
	})
	// Larger than the decoder's slab items: the copy is its own object.
	frame := frameOf(t, []Message{{Seq: 1, Value: signal.Packet(make([]byte, 16<<10))}, {Seq: 2, Value: signal.Word(1)}})
	if err := a.SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	held := <-delivered
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("a delivered packet is still reachable once its receiver dropped it")
	}
}

func TestRecordingCapturesInFlight(t *testing.T) {
	link := LinkModel{Latency: 5, PerMessage: 1}
	s1, s2, _, _, _, h2 := twoSubs(t, Conservative, link, 3, 10)
	ep := h2.Endpoints()[0]
	ep.SetRecording(true)
	e1, e2 := runBoth(s1, s2, 1000)
	if e1 != nil || e2 != nil {
		t.Fatalf("run errors: %v / %v", e1, e2)
	}
	rec := ep.TakeRecorded()
	if len(rec) != 3 {
		t.Fatalf("recorded %d messages, want 3", len(rec))
	}
	for _, m := range rec {
		if m.Kind != KindData || m.Net != "link" {
			t.Fatalf("recorded wrong message: %v", m)
		}
	}
	if len(ep.TakeRecorded()) != 0 {
		t.Fatal("TakeRecorded did not clear")
	}
}

func TestMarkAndRestoreDelivery(t *testing.T) {
	// Marks are processed on the receiving subsystem's scheduler, so
	// b must be running for them to land.
	s1 := core.NewSubsystem("a")
	s2 := core.NewSubsystem("b")
	h1, h2 := NewHub(s1), NewHub(s2)
	ep1, ep2, err := Connect(h1, h2, Optimistic, LinkModel{Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	marks := make(chan string, 1)
	restores := make(chan string, 1)
	ep2.SetMarkHandler(func(tag string) { marks <- tag })
	ep2.SetRestoreHandler(func(tag string) { restores <- tag })
	done := make(chan error, 1)
	go func() { done <- s2.Run(vtime.Infinity) }()
	ep1.SendMark("snap-7")
	ep1.SendRestore("snap-7")
	if got := <-marks; got != "snap-7" {
		t.Fatalf("mark tag = %q", got)
	}
	if got := <-restores; got != "snap-7" {
		t.Fatalf("restore tag = %q", got)
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestKindAndPolicyStrings(t *testing.T) {
	for _, k := range []msgKind{KindData, kindSafeTimeReq, kindSafeTimeGrant, kindMark, kindRestore, KindClose, msgKind(99)} {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
	if Conservative.String() != "conservative" || Optimistic.String() != "optimistic" {
		t.Fatal("Policy strings wrong")
	}
	m := Message{Kind: KindData, From: "a", Time: 5, Net: "n", Value: 3}
	if m.String() == "" {
		t.Fatal("empty Message string")
	}
}
