package core

import (
	"strconv"
	"testing"

	"repro/internal/event"
	"repro/internal/vtime"
)

// linkRig is one component, rx, listening on net n through its port
// "in"; nothing runs, so the test drives n and delivers to rx itself.
func linkRig(t *testing.T) (*Subsystem, *Component, *Net) {
	t.Helper()
	s := NewSubsystem("links")
	rx, err := s.NewComponent("rx", BehaviorFunc(func(*Proc) error { return nil }), "in")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.NewNet("n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(n, rx.Port("in")); err != nil {
		t.Fatal(err)
	}
	return s, rx, n
}

// take delivers rx's earliest message as a receive on any port would.
func take(t *testing.T, rx *Component) Msg {
	t.Helper()
	_, at, ok := rx.nextDeliverable()
	if !ok {
		t.Fatal("inbox empty")
	}
	rx.deliver(at)
	return rx.recvMsg
}

// TestLinkTableBounded: Source arrives from a peer's socket, so no
// stream of distinct names may grow a component's link table — neither
// through an inbox that empties between messages (a drive into an empty
// inbox starts the table over) nor through one that never does (the
// table is rebuilt from the live events) — while a table that must be
// large, because the live events really are that distinct, still
// delivers every message as it was driven. The drives come in as a
// channel endpoint's do, through DriveNetNow.
func TestLinkTableBounded(t *testing.T) {
	const drives = 1_000_000
	for _, depth := range []int{1, 2} {
		s, rx, n := linkRig(t)
		for i := 0; i < depth-1; i++ {
			s.DriveNetNow(n, "resident", 0, -1)
		}
		for i := 0; i < drives; i++ {
			s.DriveNetNow(n, strconv.Itoa(i), vtime.Time(i), i)
			if l := rx.links.Len(); l > event.MaxLinks {
				t.Fatalf("depth %d: %d links after %d distinct sources, want <= %d", depth, l, i+1, event.MaxLinks)
			}
			m := take(t, rx)
			if was := i - (depth - 1); was >= 0 && (m.Source != strconv.Itoa(was) || m.Value != was || m.Port != "in" || m.Net != "n") {
				t.Fatalf("depth %d: delivery %d is %+v", depth, i, m)
			}
		}
	}

	// 1 000 live messages from 1 000 sources: far past what a drive
	// searches, so the table holds a link per message, and each message
	// keeps its own.
	const live = 1000
	s, rx, n := linkRig(t)
	for i := 0; i < live; i++ {
		s.DriveNetNow(n, "s"+strconv.Itoa(i), vtime.Time(i), i)
	}
	if l := rx.links.Len(); l != live {
		t.Fatalf("%d distinct live links interned as %d", live, l)
	}
	for i := 0; i < live; i++ {
		// Churn beside the distinct messages must not disturb them,
		// though it rebuilds the table as they drain.
		s.DriveNetNow(n, strconv.Itoa(i), live, nil)
		if m := take(t, rx); m.Source != "s"+strconv.Itoa(i) || m.Value != i {
			t.Fatalf("delivery %d is %+v", i, m)
		}
		if l, most := rx.links.Len(), max(event.MaxLinks, 2*rx.inbox.Len()+1); l > most {
			t.Fatalf("%d links for %d live messages, want <= %d", l, rx.inbox.Len(), most)
		}
	}
}

// TestSendFilteredRecvZeroAlloc: a warmed word Send followed by a
// filtered Recv allocates nothing — the drive's link found with one
// compare, the receive's port set resolved once and matched by
// identity, the delivery popped where the match was found. Two
// components ping-pong one word over two nets, each receiving on its
// own port by name; the count covers both goroutines.
func TestSendFilteredRecvZeroAlloc(t *testing.T) {
	const runs = 200
	allocs := -1.0
	ping := BehaviorFunc(func(p *Proc) error {
		round := func() {
			p.Send("ping", preBoxed[0])
			if m, ok := p.Recv("pong"); !ok || m.Port != "pong" || m.Value != preBoxed[1] {
				t.Errorf("Recv(pong) = %+v, %v", m, ok)
			}
		}
		round() // warm the inboxes, their link tables and port sets
		allocs = testing.AllocsPerRun(runs, round)
		return nil
	})
	pong := BehaviorFunc(func(p *Proc) error {
		for {
			if _, ok := p.Recv("ping"); !ok {
				return nil
			}
			p.Send("pong", preBoxed[1])
		}
	})
	s := NewSubsystem("pingpong")
	a, err := s.NewComponent("a", ping, "ping", "pong")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewComponent("b", pong, "ping", "pong")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ping", "pong"} {
		n, err := s.NewNet(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Connect(n, a.Port(name), b.Port(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("word Send + filtered Recv allocates %.1f times a round, want 0", allocs)
	}
}
