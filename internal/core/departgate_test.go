package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestDepartGateHoldsFiniteHorizonRun: a finite-horizon Run must not
// return while the departure gate reports false, and must return
// promptly once the gate opens and Wake is called.
func TestDepartGateHoldsFiniteHorizonRun(t *testing.T) {
	s, _, _ := buildPipe(t, 2, 5, 10)
	var open, refused atomic.Bool
	s.SetDepartGate(func(until vtime.Time) bool {
		if until != 1000 {
			t.Errorf("gate saw horizon %v, want 1000", until)
		}
		ok := open.Load()
		if !ok {
			refused.Store(true)
		}
		return ok
	})
	// A stall observer fires after the gate said no, right before the scheduler
	// blocks: once it has, the run is parked on the gate.
	parked := make(chan struct{})
	var once sync.Once
	s.Observe(Observer{Stall: func() {
		if refused.Load() {
			once.Do(func() { close(parked) })
		}
	}})

	done := make(chan error, 1)
	go func() { done <- s.Run(1000) }()

	// The pipe's local work ends at t=52; the run must park on the
	// gate, not return.
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("Run returned (%v) while the departure gate was closed", err)
	case <-time.After(5 * time.Second):
		t.Fatal("departure gate was never consulted")
	}
	select {
	case err := <-done:
		t.Fatalf("Run returned (%v) while the departure gate was closed", err)
	default:
	}

	open.Store(true)
	s.Wake()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still parked after the departure gate opened")
	}
}

// TestDepartGateWakeBeforeWait: a Wake that lands after the gate said
// no but before the scheduler blocks — here from a stall observer, the
// last code to run before the wait — must not be slept through. The
// gate opens exactly once and nothing wakes the loop again, so a run
// loop that samples the wake generation only after the observer parks for
// good.
func TestDepartGateWakeBeforeWait(t *testing.T) {
	s, _, _ := buildPipe(t, 2, 5, 10)
	var open atomic.Bool
	s.SetDepartGate(func(vtime.Time) bool { return open.Load() })
	var once sync.Once
	s.Observe(Observer{Stall: func() {
		once.Do(func() {
			open.Store(true)
			s.Wake()
		})
	}})
	done := make(chan error, 1)
	go func() { done <- s.Run(1000) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		s.Stop()
		<-done
		t.Fatal("Run slept through a Wake that landed between the gate check and the wait")
	}
}

// TestInjectCtlRunsWhileLive: a control injection queued against a
// live (gate-parked) run loop executes on the scheduler goroutine.
func TestInjectCtlRunsWhileLive(t *testing.T) {
	s, _, _ := buildPipe(t, 2, 5, 10)
	var open atomic.Bool
	s.SetDepartGate(func(vtime.Time) bool { return open.Load() })
	done := make(chan error, 1)
	go func() { done <- s.Run(1000) }()

	ran := make(chan struct{})
	s.InjectCtl(func() bool { close(ran); return false }, func(err error) {
		t.Errorf("control action rejected while the loop was live: %v", err)
	})
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("control action never ran on the parked scheduler")
	}

	open.Store(true)
	s.Wake()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestInjectCtlRejectedAfterExit: once Run has returned, InjectCtl
// must reject immediately with errNotRunning instead of queueing the
// action for a scheduler that will never drain it.
func TestInjectCtlRejectedAfterExit(t *testing.T) {
	s, _, co := buildPipe(t, 2, 5, 10)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != 5 {
		t.Fatalf("pipe delivered %d, want 5", len(co.Got))
	}
	rejected := make(chan error, 1)
	s.InjectCtl(func() bool {
		t.Error("control action ran after the loop exited")
		return false
	}, func(err error) { rejected <- err })
	select {
	case err := <-rejected:
		if !errors.Is(err, errNotRunning) {
			t.Fatalf("reject error = %v, want ErrNotRunning", err)
		}
	default:
		t.Fatal("InjectCtl neither ran nor rejected after Run exit")
	}
}
