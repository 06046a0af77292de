package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/vtime"
)

// streamPair wires tx -> rx over one zero-delay net per port name and
// returns the subsystem. tx is created first, so it runs (and sends
// everything it has) before rx's first receive.
func streamPair(tb testing.TB, tx, rx Behavior, ports ...string) *Subsystem {
	tb.Helper()
	s := NewSubsystem("stream")
	tc, err := s.NewComponent("tx", tx, ports...)
	if err != nil {
		tb.Fatal(err)
	}
	rc, err := s.NewComponent("rx", rx, ports...)
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range ports {
		n, err := s.NewNet(name, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Connect(n, tc.Port(name), rc.Port(name)); err != nil {
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

// TestRecvFilterChangeAfterTimeout: a filtered poll that times out
// with a later event pending on its port — DrainInterrupts' poll of the
// irq port — does not leave that event to the next receive on another
// port of a filter just as long. The receive on "in" takes the "in"
// message, and the irq event is still there for the irq port, whether
// rx is served inline or parked and resumed by the scheduler.
func TestRecvFilterChangeAfterTimeout(t *testing.T) {
	for _, parked := range []bool{false, true} {
		name := "inline"
		if parked {
			name = "parked"
		}
		t.Run(name, func(t *testing.T) {
			tx := BehaviorFunc(func(p *Proc) error {
				p.SendAt("irq", "irq", 10)
				p.SendAt("in", "in", 20)
				return nil
			})
			var got []Msg
			rx := BehaviorFunc(func(p *Proc) error {
				if m, ok := p.RecvDeadline(p.Time(), "irq"); ok {
					t.Errorf("poll at %v took %+v, due later", p.Time(), m)
				}
				for _, port := range []string{"in", "irq"} {
					m, ok := p.Recv(port)
					if !ok {
						t.Errorf("Recv(%q) found nothing", port)
					}
					got = append(got, m)
				}
				return nil
			})
			s := streamPair(t, tx, rx, "irq", "in")
			if parked {
				s.OnStep = func(vtime.Time) {}
			}
			if err := s.Run(vtime.Infinity); err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got[0].Port != "in" || got[0].Value != "in" || got[0].Time != 20 || got[1].Port != "irq" || got[1].Value != "irq" {
				t.Fatalf("Recv(in) then Recv(irq) = %+v, want the in message @20, then the irq one", got)
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
	cc, _ := s.NewComponent("cons", co, "in")
	pc, _ := s.NewComponent("prod", &burster{N: n}, "out")
	net, _ := s.NewNet("slow", 100)
	s.Connect(net, pc.Port("out"), cc.Port("in"))
	s.OnStep = func(now vtime.Time) {
		if now >= 5 && s.LatestCheckpoint() == nil {
			s.RequestCheckpoint("")
		}
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	cs := s.LatestCheckpoint()
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

// wordSink receives until the simulation ends. It keeps no state, so a
// speculative dispatch images it for nothing and a rollback replay is
// identical; deliveries are counted by the scheduler.
type wordSink struct{ filter []string }

func (w *wordSink) Run(p *Proc) error {
	for {
		if _, ok := p.Recv(w.filter...); !ok {
			return nil
		}
	}
}

func (w *wordSink) SaveState() ([]byte, error) { return nil, nil }
func (w *wordSink) RestoreState([]byte) error  { return nil }

// TestWordBurstBytesPerDelivery: one page of boxed words, tx -> rx
// through one subsystem, costs what its parts must — the 8-byte box
// Send's `any` makes of a word past 255 and a 16-byte inbox row, in
// chunks sized to their allocator class; the page is paced one word
// time apart on one route, so its keys are one span — and nothing per
// word beyond that: no event or Msg copy escapes, whether the receive
// is filtered or not, and whether rx is stepped by the sequential
// scheduler or dispatched past the safe horizon round after round with
// every pop journaled for rollback.
func TestWordBurstBytesPerDelivery(t *testing.T) {
	const (
		words    = 16_384
		wordTime = 800
		perWord  = 8 + 16 // the box and the row
		// What the run may cost on top of words * perWord bytes and one
		// allocation a word: the subsystem's goroutines and channels, the
		// chunk table, the first chunk's growth, and under speculation a
		// few allocations a round and two journals of one round's pops
		// (the worker buffers change hands).
		slackBytes  = 128 << 10
		slackAllocs = words / 32
		specWords   = 128 // taken by one speculative dispatch
	)
	for _, tc := range []struct {
		name        string
		filter      []string
		speculative bool
	}{
		{"unfiltered", nil, false},
		{"filtered", []string{"link"}, false},
		{"unfiltered-speculative", nil, true},
		{"filtered-speculative", []string{"link"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx := BehaviorFunc(func(p *Proc) error {
				for i := 0; i < words; i++ {
					p.SendAt("link", 1000+i, vtime.Time(wordTime*(1+i)))
				}
				return nil
			})
			s := streamPair(t, tx, &wordSink{filter: tc.filter}, "link")
			if tc.speculative {
				// A pacer one window ahead of nothing: it holds the safe
				// horizon a nanosecond past its own key, so rx's next
				// word always lies beyond it and the idle second worker
				// takes rx speculatively, specWords a round.
				const window = specWords * wordTime
				pc, err := s.NewComponent("pacer", BehaviorFunc(func(p *Proc) error {
					for p.Time() < wordTime*(words+1) {
						p.Delay(window)
					}
					return nil
				}), "out")
				if err != nil {
					t.Fatal(err)
				}
				n, _ := s.NewNet("pace", 1)
				if err := s.Connect(n, pc.Port("out")); err != nil {
					t.Fatal(err)
				}
				s.SetWorkers(2)
				s.SetOptimism(window)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := s.Run(vtime.Infinity); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			st := s.Stats()
			if st.Deliveries != words {
				t.Fatalf("delivered %d of %d words", st.Deliveries, words)
			}
			if tc.speculative && st.SpecCommits < words/specWords/2 {
				t.Fatalf("rx was dispatched speculatively %d times (%d committed): the journal path did not run", st.SpecMembers, st.SpecCommits)
			}
			bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
			t.Logf("%d bytes (%.1f a word), %d allocations; %d speculative dispatches, %d rolled back", bytes, float64(bytes)/words, allocs, st.SpecMembers, st.Rollbacks)
			if (!raceBuild && bytes > words*perWord+slackBytes) || allocs > words+slackAllocs {
				t.Fatalf("%d words cost %d bytes and %d allocations, want <= %d and <= %d", words, bytes, allocs, words*perWord+slackBytes, words+slackAllocs)
			}
		})
	}
}

// TestComponentSizeClass: a simulation allocates one Component per
// component, so its size is a per-simulation cost on every workload.
// With the 8-byte header the allocator puts before a pointerful object
// this large it fills its 704-byte size class; a field that does not
// fit the padding costs every component the next class.
func TestComponentSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Component{}); size+8 > 704 {
		t.Fatalf("Component is %d bytes: past the 704-byte size class", size)
	}
}
