package core

import (
	"strings"
	"testing"

	"repro/internal/vtime"
)

// TestFilteredReceiveSlowPath exercises the non-head filtered receive
// (a message for another port arrives first).
func TestFilteredReceiveSlowPath(t *testing.T) {
	s := NewSubsystem("filt")
	var gotB, gotA any
	rx := BehaviorFunc(func(p *Proc) error {
		// Wait specifically for port "b" even though "a" gets traffic
		// first.
		m, ok := p.Recv("b")
		if !ok {
			return nil
		}
		gotB = m.Value
		// Now the earlier "a" message is still queued.
		m, ok = p.Recv("a")
		if !ok {
			return nil
		}
		gotA = m.Value
		return nil
	})
	rc, _ := s.NewComponent("rx", rx, "a", "b")
	tx := BehaviorFunc(func(p *Proc) error {
		p.Delay(10)
		p.Send("toA", "first")
		p.Delay(10)
		p.Send("toB", "second")
		return nil
	})
	tc, _ := s.NewComponent("tx", tx, "toA", "toB")
	na, _ := s.NewNet("na", 0)
	s.Connect(na, tc.Port("toA"), rc.Port("a"))
	nb, _ := s.NewNet("nb", 0)
	s.Connect(nb, tc.Port("toB"), rc.Port("b"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if gotB != "second" || gotA != "first" {
		t.Fatalf("filtered receive order: b=%v a=%v", gotB, gotA)
	}
}

func TestProcAccessors(t *testing.T) {
	s := NewSubsystem("acc")
	checked := false
	b := BehaviorFunc(func(p *Proc) error {
		if p.Name() != "c" {
			t.Error("Proc.Name wrong")
		}
		p.SetRunlevel("fancy")
		if p.Runlevel() != "fancy" {
			t.Error("Proc runlevel roundtrip failed")
		}
		if p.Pending() {
			t.Error("Pending true on empty inbox")
		}
		p.Checkpoint() // safe point; no checkpoint requested
		checked = true
		return nil
	})
	c, _ := s.NewComponent("c", b)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("behaviour did not run")
	}
	if c.Name() != "c" || c.Runlevel() != "fancy" || !c.Done() || c.Err() != nil {
		t.Fatalf("component accessors: %v %v %v %v", c.Name(), c.Runlevel(), c.Done(), c.Err())
	}
	if len(c.Ports()) != 0 {
		t.Fatal("Ports should be empty")
	}
	if !strings.Contains(c.String(), "c") {
		t.Fatal("component String")
	}
}

func TestNetAccessors(t *testing.T) {
	s := NewSubsystem("net")
	drv := BehaviorFunc(func(p *Proc) error {
		p.Delay(5)
		p.Send("out", 42)
		return nil
	})
	c, _ := s.NewComponent("drv", drv, "out")
	n, _ := s.NewNet("w", 3)
	s.Connect(n, c.Port("out"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	v, at := n.LastValue()
	if v != 42 || at != 5 {
		t.Fatalf("LastValue = %v @%v", v, at)
	}
	ports := n.Ports()
	if len(ports) != 1 || ports[0].Component() != c || ports[0].Net() != n || ports[0].Hidden() {
		t.Fatalf("port accessors wrong: %+v", ports[0])
	}
	if !strings.Contains(n.String(), "w") {
		t.Fatal("net String")
	}
	if s.Component("drv").Port("out") != ports[0] {
		t.Fatal("Port lookup mismatch")
	}
}

func TestSendAtPastPanics(t *testing.T) {
	s := NewSubsystem("sap")
	b := BehaviorFunc(func(p *Proc) error {
		p.Delay(10)
		p.SendAt("out", 1, 5) // into the past: must panic -> error
		return nil
	})
	c, _ := s.NewComponent("c", b, "out")
	n, _ := s.NewNet("w", 0)
	s.Connect(n, c.Port("out"))
	if err := s.Run(vtime.Infinity); err == nil {
		t.Fatal("SendAt into the past did not error")
	}
}

func TestSendOnUnknownPortPanics(t *testing.T) {
	s := NewSubsystem("up")
	b := BehaviorFunc(func(p *Proc) error {
		p.Send("nope", 1)
		return nil
	})
	s.NewComponent("c", b)
	if err := s.Run(vtime.Infinity); err == nil {
		t.Fatal("send on unknown port did not error")
	}
}

func TestRecvUnknownPortPanics(t *testing.T) {
	s := NewSubsystem("rp")
	b := BehaviorFunc(func(p *Proc) error {
		p.Recv("ghost")
		return nil
	})
	s.NewComponent("c", b)
	if err := s.Run(vtime.Infinity); err == nil {
		t.Fatal("recv on unknown port did not error")
	}
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	s := NewSubsystem("ab")
	b := BehaviorFunc(func(p *Proc) error {
		p.Advance(-1)
		return nil
	})
	s.NewComponent("c", b)
	if err := s.Run(vtime.Infinity); err == nil {
		t.Fatal("negative Advance did not error")
	}
}

func TestStatusStrings(t *testing.T) {
	for _, st := range []status{statusNew, statusRunnable, statusRecv, statusRunning, statusDone, status(42)} {
		if st.String() == "" {
			t.Fatal("empty status string")
		}
	}
}
