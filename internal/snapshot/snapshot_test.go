package snapshot

import (
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/vtime"
)

// stepSender emits Count values on "out", spaced Period apart.
type stepSender struct {
	Next   int
	Count  int
	Period vtime.Duration
}

func (s *stepSender) Run(p *core.Proc) error {
	for s.Next < s.Count {
		p.Delay(s.Period)
		p.Send("out", s.Next)
		s.Next++
	}
	return nil
}

func (s *stepSender) SaveState() ([]byte, error)  { return core.GobSave(s) }
func (s *stepSender) RestoreState(b []byte) error { return core.GobRestore(s, b) }

type recorder struct {
	Got []int
}

func (r *recorder) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Got = append(r.Got, m.Value.(int))
	}
}

func (r *recorder) SaveState() ([]byte, error)  { return core.GobSave(r) }
func (r *recorder) RestoreState(b []byte) error { return core.GobRestore(r, b) }

// pair builds two subsystems connected by a channel, sender on ss1
// driving net "link" into a recorder on ss2.
func pair(t *testing.T, policy channel.Policy, count int, period vtime.Duration) (s1, s2 *core.Subsystem, snd *stepSender, rcv *recorder, a1, a2 *Agent, h1, h2 *channel.Hub) {
	t.Helper()
	s1 = core.NewSubsystem("ss1")
	s2 = core.NewSubsystem("ss2")
	snd = &stepSender{Count: count, Period: period}
	rcv = &recorder{}
	sc, _ := s1.NewComponent("prod", snd, "out")
	rc, _ := s2.NewComponent("cons", rcv, "in")
	n1, _ := s1.NewNet("link", 0)
	s1.Connect(n1, sc.Port("out"))
	n2, _ := s2.NewNet("link", 0)
	s2.Connect(n2, rc.Port("in"))
	h1, h2 = channel.NewHub(s1), channel.NewHub(s2)
	link := channel.LinkModel{Latency: 5, PerMessage: 1}
	ep1, ep2, err := channel.Connect(h1, h2, policy, link)
	if err != nil {
		t.Fatal(err)
	}
	ep1.BindNet(n1, "link")
	ep2.BindNet(n2, "link")
	a1, a2 = NewAgent(h1), NewAgent(h2)
	return
}

func runBoth(s1, s2 *core.Subsystem, until vtime.Time) (error, error) {
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(until) }()
	go func() { defer wg.Done(); e2 = s2.Run(until) }()
	wg.Wait()
	return e1, e2
}

func TestSnapshotCompletesOnBothSides(t *testing.T) {
	s1, s2, _, rcv, a1, a2, _, _ := pair(t, channel.Conservative, 5, 100)
	var got1, got2 *Snapshot
	var mu sync.Mutex
	a1.OnComplete = func(s *Snapshot) { mu.Lock(); got1 = s; mu.Unlock() }
	a2.OnComplete = func(s *Snapshot) { mu.Lock(); got2 = s; mu.Unlock() }
	tag := a1.Initiate()
	e1, e2 := runBoth(s1, s2, 1000)
	if e1 != nil || e2 != nil {
		t.Fatalf("run errors: %v / %v", e1, e2)
	}
	mu.Lock()
	defer mu.Unlock()
	if got1 == nil || got2 == nil {
		t.Fatal("snapshot did not complete on both sides")
	}
	if got1.Tag != tag || got2.Tag != tag {
		t.Fatalf("tags: %q / %q, want %q", got1.Tag, got2.Tag, tag)
	}
	if a1.Err() != nil || a2.Err() != nil {
		t.Fatalf("agent errors: %v / %v", a1.Err(), a2.Err())
	}
	if a1.Completed(tag) != got1 || a2.Completed(tag) != got2 {
		t.Fatal("Completed lookup broken")
	}
	if len(rcv.Got) != 5 {
		t.Fatalf("delivery disturbed by snapshot: %v", rcv.Got)
	}
	if got1.Checkpoint == nil || got2.Checkpoint == nil {
		t.Fatal("missing local checkpoints")
	}
}

// timedSender sends value i at absolute virtual time At[i].
type timedSender struct {
	Next int
	At   []int64
}

func (s *timedSender) Run(p *core.Proc) error {
	for s.Next < len(s.At) {
		target := vtime.Time(s.At[s.Next])
		if target > p.Time() {
			p.Delay(target.Sub(p.Time()))
		}
		p.Send("out", s.Next)
		s.Next++
	}
	return nil
}

func (s *timedSender) SaveState() ([]byte, error)  { return core.GobSave(s) }
func (s *timedSender) RestoreState(b []byte) error { return core.GobRestore(s, b) }

func TestCoordinatedRestoreReplaysTail(t *testing.T) {
	// A sender with a fixed schedule: three values before the cut,
	// two after it.
	s1 := core.NewSubsystem("ss1")
	s2 := core.NewSubsystem("ss2")
	snd := &timedSender{At: []int64{100, 200, 300, 700, 800}}
	rcv := &recorder{}
	sc, _ := s1.NewComponent("prod", snd, "out")
	rc, _ := s2.NewComponent("cons", rcv, "in")
	n1, _ := s1.NewNet("link", 0)
	s1.Connect(n1, sc.Port("out"))
	n2, _ := s2.NewNet("link", 0)
	s2.Connect(n2, rc.Port("in"))
	h1, h2 := channel.NewHub(s1), channel.NewHub(s2)
	ep1, ep2, err := channel.Connect(h1, h2, channel.Conservative, channel.LinkModel{Latency: 5, PerMessage: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep1.BindNet(n1, "link")
	ep2.BindNet(n2, "link")
	a1, a2 := NewAgent(h1), NewAgent(h2)

	// Phase 1: deliver the first 3 values.
	e1, e2 := runBoth(s1, s2, 400)
	if e1 != nil || e2 != nil {
		t.Fatalf("phase1: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 3 {
		t.Fatalf("phase1 deliveries = %v", rcv.Got)
	}

	// Snapshot at the cut (virtual ~400-500).
	var snapDone *Snapshot
	var mu sync.Mutex
	a2.OnComplete = func(s *Snapshot) { mu.Lock(); snapDone = s; mu.Unlock() }
	tag := a1.Initiate()
	e1, e2 = runBoth(s1, s2, 500)
	if e1 != nil || e2 != nil {
		t.Fatalf("snapshot phase: %v / %v", e1, e2)
	}
	mu.Lock()
	if snapDone == nil {
		mu.Unlock()
		t.Fatal("snapshot incomplete after phase")
	}
	mu.Unlock()

	// Phase 2: two more values after the cut.
	e1, e2 = runBoth(s1, s2, 1000)
	if e1 != nil || e2 != nil {
		t.Fatalf("phase2: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 5 {
		t.Fatalf("phase2 deliveries = %v", rcv.Got)
	}

	// Coordinated restore: both subsystems rewind to the cut; the
	// sender's re-execution regenerates values 3 and 4. ss2 runs to
	// Infinity so it is guaranteed to be alive when the restore
	// order and the regenerated data arrive.
	restored2 := make(chan string, 1)
	a2.OnRestore = func(tg string) { restored2 <- tg }
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Run(vtime.Infinity) }()
	a1.RestoreTag(tag)
	e1 = s1.Run(1000)
	if e1 != nil {
		t.Fatalf("replay s1: %v", e1)
	}
	if got := <-restored2; got != tag {
		t.Fatalf("ss2 restored %q, want %q", got, tag)
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if e2 = <-done2; e2 != nil {
		t.Fatalf("replay s2: %v", e2)
	}
	if a1.Err() != nil || a2.Err() != nil {
		t.Fatalf("agent errors: %v / %v", a1.Err(), a2.Err())
	}
	if s1.Stats().Restores != 1 || s2.Stats().Restores != 1 {
		t.Fatalf("restore counts: %d / %d", s1.Stats().Restores, s2.Stats().Restores)
	}
	if len(rcv.Got) != 5 {
		t.Fatalf("after replay: %v", rcv.Got)
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("replay order broken: %v", rcv.Got)
		}
	}
}

func TestThreeSubsystemMarkPropagation(t *testing.T) {
	// A chain a -> b -> c: initiating at a must complete snapshots
	// on all three via relayed marks.
	mk := func(name string) *core.Subsystem { return core.NewSubsystem(name) }
	sa, sb, sc := mk("a"), mk("b"), mk("c")
	// a: sender; b: forwarder; c: recorder.
	snd := &stepSender{Count: 3, Period: 50}
	ac, _ := sa.NewComponent("src", snd, "out")
	fwd := core.BehaviorFunc(func(p *core.Proc) error {
		for {
			m, ok := p.Recv("in")
			if !ok {
				return nil
			}
			p.Advance(1)
			p.Send("out", m.Value)
		}
	})
	bc, _ := sb.NewComponent("fwd", &trivialState{B: fwd}, "in", "out")
	rcv := &recorder{}
	cc, _ := sc.NewComponent("dst", rcv, "in")

	na, _ := sa.NewNet("ab", 0)
	sa.Connect(na, ac.Port("out"))
	nbIn, _ := sb.NewNet("ab", 0)
	sb.Connect(nbIn, bc.Port("in"))
	nbOut, _ := sb.NewNet("bc", 0)
	sb.Connect(nbOut, bc.Port("out"))
	ncIn, _ := sc.NewNet("bc", 0)
	sc.Connect(ncIn, cc.Port("in"))

	ha, hb, hc := channel.NewHub(sa), channel.NewHub(sb), channel.NewHub(sc)
	link := channel.LinkModel{Latency: 5, PerMessage: 1}
	epAB, epBA, err := channel.Connect(ha, hb, channel.Conservative, link)
	if err != nil {
		t.Fatal(err)
	}
	epBC, epCB, err := channel.Connect(hb, hc, channel.Conservative, link)
	if err != nil {
		t.Fatal(err)
	}
	epAB.BindNet(na, "ab")
	epBA.BindNet(nbIn, "ab") // b never drives ab, but symmetric binding is harmless
	epBC.BindNet(nbOut, "bc")
	epCB.BindNet(ncIn, "bc")

	aa, ab, ac2 := NewAgent(ha), NewAgent(hb), NewAgent(hc)
	var mu sync.Mutex
	completed := map[string]bool{}
	for name, ag := range map[string]*Agent{"a": aa, "b": ab, "c": ac2} {
		n, g := name, ag
		g.OnComplete = func(*Snapshot) { mu.Lock(); completed[n] = true; mu.Unlock() }
	}
	tag := aa.Initiate()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, s := range []*core.Subsystem{sa, sb, sc} {
		wg.Add(1)
		go func(i int, s *core.Subsystem) { defer wg.Done(); errs[i] = s.Run(500) }(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !completed["a"] || !completed["b"] || !completed["c"] {
		t.Fatalf("snapshot %s incomplete: %v", tag, completed)
	}
	if len(rcv.Got) != 3 {
		t.Fatalf("chain delivered %v", rcv.Got)
	}
}

// trivialState wraps a stateless behaviour with empty state saving.
type trivialState struct {
	B core.Behavior
}

func (g *trivialState) Run(p *core.Proc) error     { return g.B.Run(p) }
func (g *trivialState) SaveState() ([]byte, error) { return []byte{}, nil }
func (g *trivialState) RestoreState([]byte) error  { return nil }
