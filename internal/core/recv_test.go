package core

import (
	"slices"
	"testing"

	"repro/internal/vtime"
)

// streamPair wires tx -> rx over one zero-delay net per port name and
// returns the subsystem. tx is created first, so it runs (and sends
// everything it has) before rx's first receive.
func streamPair(tb testing.TB, tx, rx Behavior, ports ...string) *Subsystem {
	tb.Helper()
	s := NewSubsystem("stream")
	tc, err := s.NewComponent("tx", tx)
	if err != nil {
		tb.Fatal(err)
	}
	rc, err := s.NewComponent("rx", rx)
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range ports {
		out, err := tc.AddPort(name)
		if err != nil {
			tb.Fatal(err)
		}
		in, err := rc.AddPort(name)
		if err != nil {
			tb.Fatal(err)
		}
		n, err := s.NewNet(name, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Connect(n, out, in); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// preBoxed are values already converted to an interface, so a send
// allocates nothing for them and the guards below see only what the
// receive path itself costs.
var preBoxed = [...]any{7, 70_000}

// TestRecvFilteredZeroAlloc: a steady-state filtered Recv allocates
// nothing — no per-call filter, no per-delivery Msg — whether it is
// served inline below the fast bound or parks and is resumed by the
// scheduler (OnStep pins that classic path), and whether consecutive
// receives name the same filter or alternate between different ones.
// A receive whose filter skips the inbox head (the column scan) is in
// the mix too: every tick carries one message per port.
func TestRecvFilteredZeroAlloc(t *testing.T) {
	const (
		runs  = 200
		ticks = 4 * runs // per port: more than the 3 receives a run can take
	)
	for _, parked := range []bool{false, true} {
		name := "inline"
		if parked {
			name = "parked"
		}
		t.Run(name, func(t *testing.T) {
			tx := BehaviorFunc(func(p *Proc) error {
				for i := 0; i < ticks; i++ {
					at := vtime.Time(1 + i)
					p.SendAt("a", preBoxed[i%2], at)
					p.SendAt("b", preBoxed[i%2], at)
				}
				return nil
			})
			allocs, received := -1.0, 0
			filters := [][]string{{"a"}, {"b"}, {"b", "a"}}
			rx := BehaviorFunc(func(p *Proc) error {
				round := func() {
					for _, filter := range filters {
						m, ok := p.Recv(filter...)
						if !ok || !slices.Contains(filter, m.Port) {
							t.Errorf("Recv(%v) = %+v, %v", filter, m, ok)
						}
						received++
					}
				}
				round() // size the filter buffer
				allocs = testing.AllocsPerRun(runs, round)
				return nil
			})
			s := streamPair(t, tx, rx, "a", "b")
			steps := 0
			if parked {
				s.OnStep = func(vtime.Time) { steps++ }
			}
			if err := s.Run(vtime.Infinity); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("filtered Recv allocates %.1f times per 3 receives, want 0", allocs)
			}
			if parked && steps < received {
				t.Fatalf("%d receives took %d scheduler steps: not the parked path", received, steps)
			}
			if got := s.Stats().Deliveries; got != int64(received) {
				t.Fatalf("Deliveries = %d, receives = %d", got, received)
			}
		})
	}
}

// BenchmarkRecvFiltered is local_word's receive side without the
// harness: tx streams b.N words into rx's inbox without yielding (the
// DMA link's burst), rx takes them with one filtered Recv per word.
// The cold growth of the inbox is part of the op, as it is part of
// every simulation.
func BenchmarkRecvFiltered(b *testing.B) {
	n := b.N
	tx := BehaviorFunc(func(p *Proc) error {
		for i := 0; i < n; i++ {
			p.Advance(800)
			p.Send("link", preBoxed[i%2])
		}
		return nil
	})
	got := 0
	rx := BehaviorFunc(func(p *Proc) error {
		for {
			if _, ok := p.Recv("link"); !ok {
				return nil
			}
			got++
		}
	})
	s := streamPair(b, tx, rx, "link")
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(vtime.Infinity); err != nil {
		b.Fatal(err)
	}
	if got != n {
		b.Fatalf("received %d of %d words", got, n)
	}
}

// burster sends N values in one step, two per virtual tick, so they
// are all in flight at once.
type burster struct {
	N    int
	Sent bool
}

func (bu *burster) Run(p *Proc) error {
	if !bu.Sent {
		p.DelayUntil(5)
		for i := 0; i < bu.N; i++ {
			p.SendAt("out", i, p.Time().Add(vtime.Duration(i/2)))
		}
		bu.Sent = true
	}
	return nil
}

func (bu *burster) SaveState() ([]byte, error)  { return GobSave(bu) }
func (bu *burster) RestoreState(b []byte) error { return GobRestore(bu, b) }

// TestCheckpointLargeInboxPreserved is TestCheckpointInboxPreserved
// with an inbox that spans several row-store chunks: a checkpoint
// taken with 700 messages in flight restores all of them, and the
// replay delivers them at the same times in the same order —
// including the order within each pair that shares a timestamp.
func TestCheckpointLargeInboxPreserved(t *testing.T) {
	const n = 700
	s := NewSubsystem("burst")
	co := &consumer{}
	cc, _ := s.NewComponent("cons", co)
	cc.AddPort("in")
	pc, _ := s.NewComponent("prod", &burster{N: n})
	pc.AddPort("out")
	net, _ := s.NewNet("slow", 100)
	s.Connect(net, pc.Port("out"), cc.Port("in"))
	var cs *CheckpointSet
	s.OnStep = func(now vtime.Time) {
		if now >= 5 && cs == nil {
			s.RequestCheckpoint("")
		}
	}
	s.OnCheckpoint = func(c *CheckpointSet) { cs = c }
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != n {
		t.Fatalf("first run: %d deliveries, want %d", len(co.Got), n)
	}
	for i, v := range co.Got {
		if want := vtime.Time(105 + i/2); v != i || co.Times[i] != want {
			t.Fatalf("first run: delivery %d is %d @%v, want %d @%v", i, v, co.Times[i], i, want)
		}
	}
	wantGot, wantTimes := slices.Clone(co.Got), slices.Clone(co.Times)
	if img := cs.Image("cons"); len(img.Inbox) != n {
		t.Fatalf("checkpoint inbox has %d events, want %d in flight", len(img.Inbox), n)
	}
	s.OnStep = nil
	if err := s.RestoreCheckpoint(cs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(co.Got, wantGot) || !slices.Equal(co.Times, wantTimes) {
		t.Fatalf("replay diverged: %d deliveries, first %v @%v", len(co.Got), co.Got[:min(4, len(co.Got))], co.Times[:min(4, len(co.Times))])
	}
}
