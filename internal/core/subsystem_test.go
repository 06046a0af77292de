package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/vtime"
	"repro/internal/wire"
)

// producer sends Count integers on port "out", spaced Period apart.
// It paces itself against absolute times derived from its state, so
// it is resume-exact under checkpoint/restore.
type producer struct {
	Next   int
	Count  int
	Period vtime.Duration
}

func (pr *producer) Run(p *Proc) error {
	for pr.Next < pr.Count {
		p.DelayUntil(vtime.Time(vtime.Duration(pr.Next+1) * pr.Period))
		p.Send("out", pr.Next)
		pr.Next++
	}
	return nil
}

func (pr *producer) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(pr.Next)), nil }
func (pr *producer) RestoreState(b []byte) error { return wire.ReadInts(b, &pr.Next) }

// consumer records everything it receives on port "in".
type consumer struct {
	Got   []int
	Times []vtime.Time
}

func (co *consumer) Run(p *Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		co.Got = append(co.Got, m.Value.(int))
		co.Times = append(co.Times, m.Time)
	}
}

func (co *consumer) SaveState() ([]byte, error) {
	return appendList(appendList(nil, co.Got), co.Times), nil
}

func (co *consumer) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	co.Got, co.Times = readList[int](&f), readList[vtime.Time](&f)
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

// saveFlag and restoreFlag lay out a test behaviour's one flag as a
// byte, 0 or 1.
func saveFlag(v bool) []byte {
	if v {
		return []byte{1}
	}
	return []byte{0}
}

func restoreFlag(b []byte, v *bool) error {
	f := wire.ReadFields(b)
	if x := f.Byte(); x > 1 {
		f.Failf("flag byte %d", x)
	} else {
		*v = x == 1
	}
	return f.Done()
}

// buildPipe wires producer -> consumer over one net.
func buildPipe(t *testing.T, delay vtime.Duration, count int, period vtime.Duration) (*Subsystem, *producer, *consumer) {
	t.Helper()
	s := NewSubsystem("pipe")
	pr := &producer{Count: count, Period: period}
	co := &consumer{}
	pc, err := s.NewComponent("prod", pr, "out")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := s.NewComponent("cons", co, "in")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.NewNet("link", delay)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(n, pc.Port("out"), cc.Port("in")); err != nil {
		t.Fatal(err)
	}
	return s, pr, co
}

func TestPipeDeliversInOrder(t *testing.T) {
	s, _, co := buildPipe(t, 2, 5, 10)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != 5 {
		t.Fatalf("consumer got %d values, want 5", len(co.Got))
	}
	for i, v := range co.Got {
		if v != i {
			t.Fatalf("value %d = %d, want %d", i, v, i)
		}
		want := vtime.Time((i+1)*10 + 2)
		if co.Times[i] != want {
			t.Fatalf("delivery time %d = %v, want %v", i, co.Times[i], want)
		}
	}
}

func TestSubsystemTimeInvariant(t *testing.T) {
	// System time must never exceed any component's local time.
	s, _, _ := buildPipe(t, 1, 20, 3)
	violated := false
	s.Observe(Observer{Step: func(now vtime.Time) {
		for _, c := range s.Components() {
			if !c.Done() && c.LocalTime().Before(now) {
				violated = true
			}
		}
	}})
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if violated {
		t.Fatal("subsystem time exceeded a component's local time")
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	s, _, co := buildPipe(t, 0, 10, 10)
	if err := s.Run(35); err != nil {
		t.Fatal(err)
	}
	if got := len(co.Got); got != 3 {
		t.Fatalf("after Run(35): %d deliveries, want 3", got)
	}
	if s.Now() != 35 {
		t.Fatalf("Now = %v, want 35", s.Now())
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if got := len(co.Got); got != 10 {
		t.Fatalf("after full run: %d deliveries, want 10", got)
	}
}

func TestRecvDeadline(t *testing.T) {
	s := NewSubsystem("dl")
	var timeouts, got int
	poller := BehaviorFunc(func(p *Proc) error {
		for i := 0; i < 5; i++ {
			if _, ok := p.RecvDeadline(p.Time().Add(10), "in"); ok {
				got++
			} else {
				timeouts++
			}
		}
		return nil
	})
	c, _ := s.NewComponent("poll", poller, "in")
	sender := BehaviorFunc(func(p *Proc) error {
		p.Delay(25)
		p.Send("out", 1)
		return nil
	})
	sc, _ := s.NewComponent("send", sender, "out")
	n, _ := s.NewNet("w", 0)
	if err := s.Connect(n, c.Port("in"), sc.Port("out")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if got != 1 || timeouts != 4 {
		t.Fatalf("got=%d timeouts=%d, want 1/4", got, timeouts)
	}
}

func TestMultiListenerFanout(t *testing.T) {
	s := NewSubsystem("bus")
	mk := func(name string) *consumer {
		co := &consumer{}
		s.NewComponent(name, co, "in")
		return co
	}
	a, b := mk("a"), mk("b")
	src := BehaviorFunc(func(p *Proc) error {
		p.Delay(1)
		p.Send("out", 42)
		return nil
	})
	sc, _ := s.NewComponent("src", src, "out")
	n, _ := s.NewNet("bus", 0)
	if err := s.Connect(n, sc.Port("out"), s.Component("a").Port("in"), s.Component("b").Port("in")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(a.Got) != 1 || len(b.Got) != 1 || a.Got[0] != 42 || b.Got[0] != 42 {
		t.Fatalf("fanout wrong: a=%v b=%v", a.Got, b.Got)
	}
}

func TestDriverDoesNotHearItself(t *testing.T) {
	s := NewSubsystem("loop")
	heard := 0
	self := BehaviorFunc(func(p *Proc) error {
		p.Send("io", 1)
		if _, ok := p.RecvDeadline(100, "io"); ok {
			heard++
		}
		return nil
	})
	c, _ := s.NewComponent("self", self, "io")
	n, _ := s.NewNet("w", 0)
	s.Connect(n, c.Port("io"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if heard != 0 {
		t.Fatal("component heard its own drive")
	}
}

func TestSendAtSchedulesFuture(t *testing.T) {
	s := NewSubsystem("future")
	src := BehaviorFunc(func(p *Proc) error {
		p.SendAt("out", "later", 100)
		return nil
	})
	var times []vtime.Time
	cons := BehaviorFunc(func(p *Proc) error {
		for {
			m, ok := p.Recv("in")
			if !ok {
				return nil
			}
			times = append(times, m.Time)
		}
	})
	sc, _ := s.NewComponent("src", src, "out")
	cc, _ := s.NewComponent("cons", cons, "in")
	n, _ := s.NewNet("w", 0)
	s.Connect(n, sc.Port("out"), cc.Port("in"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(times) != 1 || times[0] != 100 {
		t.Fatalf("SendAt delivery = %v, want [100]", times)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]int, []vtime.Time) {
		s := NewSubsystem("det")
		co := &consumer{}
		cc, _ := s.NewComponent("cons", co, "in")
		n, _ := s.NewNet("bus", 1)
		s.Connect(n, cc.Port("in"))
		// Three producers colliding at identical times.
		for i := 0; i < 3; i++ {
			id := i
			pb := BehaviorFunc(func(p *Proc) error {
				for k := 0; k < 4; k++ {
					p.Delay(5)
					p.Send("out", id*100+k)
				}
				return nil
			})
			pc, _ := s.NewComponent(fmt.Sprintf("p%d", id), pb, "out")
			s.Connect(n, pc.Port("out"))
		}
		if err := s.Run(vtime.Infinity); err != nil {
			t.Fatal(err)
		}
		return co.Got, co.Times
	}
	g1, t1 := run()
	g2, t2 := run()
	if len(g1) != 12 {
		t.Fatalf("got %d deliveries, want 12", len(g1))
	}
	for i := range g1 {
		if g1[i] != g2[i] || t1[i] != t2[i] {
			t.Fatalf("nondeterministic at %d: (%d,%v) vs (%d,%v)", i, g1[i], t1[i], g2[i], t2[i])
		}
	}
}

func TestComponentErrorPropagates(t *testing.T) {
	s := NewSubsystem("err")
	bad := BehaviorFunc(func(p *Proc) error {
		p.Delay(1)
		return fmt.Errorf("boom")
	})
	s.NewComponent("bad", bad)
	err := s.Run(vtime.Infinity)
	if err == nil {
		t.Fatal("expected error from failing component")
	}
}

func TestComponentPanicBecomesError(t *testing.T) {
	s := NewSubsystem("panic")
	bad := BehaviorFunc(func(p *Proc) error {
		p.Delay(1)
		panic("kaboom")
	})
	s.NewComponent("bad", bad)
	err := s.Run(vtime.Infinity)
	if err == nil {
		t.Fatal("expected panic to surface as an error")
	}
}

func TestStop(t *testing.T) {
	s := NewSubsystem("stop")
	spinner := BehaviorFunc(func(p *Proc) error {
		for {
			p.Delay(1)
		}
	})
	s.NewComponent("spin", spinner)
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		runErr = s.Run(vtime.Infinity)
	}()
	s.Stop()
	wg.Wait()
	if runErr != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", runErr)
	}
	s.Teardown()
}

// injectDrive queues a drive of net the way a channel endpoint does:
// a control action that drives it from the scheduler goroutine.
func injectDrive(s *Subsystem, net, src string, at vtime.Time, v any) {
	s.InjectFunc(func() bool {
		s.DriveNow(net, src, at, v)
		return false
	})
}

func TestInjectDrive(t *testing.T) {
	s := NewSubsystem("inj")
	co := &consumer{}
	cc, _ := s.NewComponent("cons", co, "in")
	n, _ := s.NewNet("ext", 0)
	s.Connect(n, cc.Port("in"))
	s.AddExternal()
	done := make(chan error, 1)
	go func() { done <- s.Run(vtime.Infinity) }()
	for i := 0; i < 3; i++ {
		injectDrive(s, "ext", "outside", vtime.Time(10*(i+1)), i)
	}
	// Injections queued before the external source disappears are
	// guaranteed to be routed before the run terminates.
	s.RemoveExternal()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != 3 || co.Got[2] != 2 {
		t.Fatalf("injected deliveries wrong: %v", co.Got)
	}
	if co.Times[2] != 30 {
		t.Fatalf("injected time wrong: %v", co.Times)
	}
}

// openGate never restricts the subsystem.
type openGate struct{}

func (openGate) Name() string       { return "open" }
func (openGate) Bound() vtime.Time  { return vtime.Infinity }
func (openGate) Request(vtime.Time) {}

// TestAddGateWhileRunning: a node accepting a conservative channel
// adds a gate to a subsystem whose scheduler is already consulting the
// gate list on every step. Meaningful under -race (make race).
func TestAddGateWhileRunning(t *testing.T) {
	s := NewSubsystem("live")
	co := &consumer{}
	cc, _ := s.NewComponent("cons", co, "in")
	n, _ := s.NewNet("ext", 0)
	s.Connect(n, cc.Port("in"))
	s.AddExternal()
	done := make(chan error, 1)
	go func() { done <- s.Run(vtime.Infinity) }()
	for i := 0; i < 50; i++ {
		s.AddGate(openGate{})
		injectDrive(s, "ext", "outside", vtime.Time(10*(i+1)), i)
	}
	s.RemoveExternal()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != 50 {
		t.Fatalf("delivered %d of 50 drives", len(co.Got))
	}
}

func TestInjectUnknownNet(t *testing.T) {
	s := NewSubsystem("inj2")
	if err := s.DriveNow("nope", "x", 1, 1); err == nil {
		t.Fatal("expected error for unknown net")
	}
}

func TestHiddenPortSink(t *testing.T) {
	s := NewSubsystem("hidden")
	type drive struct {
		src  string
		sent vtime.Time
		v    any
	}
	var seen []drive
	src := BehaviorFunc(func(p *Proc) error {
		p.Delay(3)
		p.Send("out", "x")
		return nil
	})
	sc, _ := s.NewComponent("src", src, "out")
	n, _ := s.NewNet("w", 2)
	s.Connect(n, sc.Port("out"))
	_, err := s.AttachHidden(n, "w$chan", "chan0", func(src string, sent vtime.Time, v any) {
		seen = append(seen, drive{src, sent, v})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	// The sink hears the drive as sent; the net's delay is the channel's
	// business no more than any listener's.
	if len(seen) != 1 || seen[0] != (drive{"src", 3, "x"}) {
		t.Fatalf("sink saw %v", seen)
	}
}

func TestBuilderErrors(t *testing.T) {
	s := NewSubsystem("b")
	if _, err := s.NewComponent("c", nil); err == nil {
		t.Fatal("nil behaviour accepted")
	}
	c, _ := s.NewComponent("c", BehaviorFunc(func(p *Proc) error { return nil }), "p")
	if _, err := s.NewComponent("c", BehaviorFunc(func(p *Proc) error { return nil })); err == nil {
		t.Fatal("duplicate component accepted")
	}
	n, _ := s.NewNet("n", 0)
	if _, err := s.NewNet("n", 0); err == nil {
		t.Fatal("duplicate net accepted")
	}
	if _, err := s.NewNet("neg", -1); err == nil {
		t.Fatal("negative delay accepted")
	}
	if err := s.Connect(n, c.Port("p")); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(n, c.Port("p")); err == nil {
		t.Fatal("double attach accepted")
	}
	s2 := NewSubsystem("other")
	if err := s2.Connect(n); err == nil {
		t.Fatal("cross-subsystem net accepted")
	}
}

func TestEOFDeliveredOnce(t *testing.T) {
	s := NewSubsystem("eof")
	falses := 0
	stubborn := BehaviorFunc(func(p *Proc) error {
		for {
			_, ok := p.Recv()
			if !ok {
				falses++
				// Misbehave: keep receiving anyway.
				if falses > 1 {
					return fmt.Errorf("got EOF twice")
				}
				continue
			}
		}
	})
	s.NewComponent("stubborn", stubborn)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if falses != 1 {
		t.Fatalf("EOF delivered %d times, want 1", falses)
	}
}

func TestStatsCounters(t *testing.T) {
	s, _, _ := buildPipe(t, 0, 4, 1)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Drives != 4 || st.Deliveries != 4 || st.Steps == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNextEventTime(t *testing.T) {
	s, _, _ := buildPipe(t, 0, 2, 10)
	if got := s.NextEventTime(); got != 0 {
		t.Fatalf("initial NextEventTime = %v, want 0", got)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if got := s.NextEventTime(); got != vtime.Infinity {
		t.Fatalf("final NextEventTime = %v, want Infinity", got)
	}
}
