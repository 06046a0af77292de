package core

import (
	"errors"
	"testing"

	"repro/internal/vtime"
)

func TestCheckpointAndRestore(t *testing.T) {
	s, pr, co := buildPipe(t, 0, 10, 10)
	// Capture a checkpoint mid-run via a switch hook.
	s.Observe(Observer{Step: func(now vtime.Time) {
		if now >= 50 && s.LatestCheckpoint() == nil {
			s.RequestCheckpoint("")
		}
	}})
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	captured := s.LatestCheckpoint()
	if captured == nil {
		t.Fatal("checkpoint never captured")
	}
	if len(co.Got) != 10 {
		t.Fatalf("first run delivered %d, want 10", len(co.Got))
	}
	gotAtCkpt := captured.Image("cons")
	if gotAtCkpt == nil {
		t.Fatal("no image for cons")
	}

	// Rewind and re-run: the tail must replay identically.
	if err := s.RestoreCheckpoint(captured); err != nil {
		t.Fatal(err)
	}
	if s.Now() != captured.Time {
		t.Fatalf("after restore Now = %v, want %v", s.Now(), captured.Time)
	}
	if len(co.Got) >= 10 {
		t.Fatalf("restore did not rewind consumer state: %d values", len(co.Got))
	}
	if pr.Next >= 10 {
		t.Fatal("restore did not rewind producer state")
	}
	s.observers = nil
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != 10 {
		t.Fatalf("replay delivered %d, want 10", len(co.Got))
	}
	for i, v := range co.Got {
		if v != i {
			t.Fatalf("replayed value %d = %d, want %d", i, v, i)
		}
	}
}

func TestRollbackRequestDuringRun(t *testing.T) {
	// An in-run rollback request rewinds and re-executes
	// deterministically.
	s, _, co := buildPipe(t, 0, 8, 10)
	s.SetAutoCheckpoint(20)
	rolled := false
	s.Observe(Observer{Step: func(now vtime.Time) {
		if now >= 60 && !rolled {
			rolled = true
			s.RequestRollback(30)
		}
	}})
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if !rolled {
		t.Fatal("rollback never triggered")
	}
	if st := s.Stats(); st.Restores != 1 {
		t.Fatalf("restores = %d, want 1", st.Restores)
	}
	if len(co.Got) != 8 {
		t.Fatalf("final deliveries = %d, want 8", len(co.Got))
	}
	for i, v := range co.Got {
		if v != i {
			t.Fatalf("value %d = %d after rollback replay", i, v)
		}
	}
}

func TestRollbackWithoutCheckpointFails(t *testing.T) {
	s, _, _ := buildPipe(t, 0, 3, 10)
	s.Observe(Observer{Step: func(now vtime.Time) {
		if now >= 20 {
			s.RequestRollback(10)
		}
	}})
	err := s.Run(vtime.Infinity)
	if !errors.Is(err, errNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	s.Teardown()
}

func TestCheckpointRetention(t *testing.T) {
	s, _, _ := buildPipe(t, 0, 30, 10)
	s.SetCheckpointRetention(3)
	s.SetAutoCheckpoint(10)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Checkpoints()); got != 3 {
		t.Fatalf("retained %d checkpoints, want 3", got)
	}
	cks := s.Checkpoints()
	for i := 1; i < len(cks); i++ {
		if cks[i].ID <= cks[i-1].ID {
			t.Fatal("checkpoints out of order")
		}
	}
	if s.LatestCheckpoint() != cks[len(cks)-1] {
		t.Fatal("LatestCheckpoint mismatch")
	}
}

func TestCheckpointTagOncePerID(t *testing.T) {
	s, _, _ := buildPipe(t, 0, 5, 10)
	s.RequestCheckpoint("snap-1")
	s.RequestCheckpoint("snap-1") // duplicate mark, must be ignored
	s.RequestCheckpoint("snap-2")
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if count := s.Stats().Checkpoints; count != 2 {
		t.Fatalf("captured %d tagged checkpoints, want 2", count)
	}
}

func TestNotCheckpointable(t *testing.T) {
	s := NewSubsystem("nock")
	// BehaviorFunc has no StateSaver.
	s.NewComponent("plain", BehaviorFunc(func(p *Proc) error {
		for {
			if _, ok := p.Recv(); !ok {
				return nil
			}
		}
	}))
	s.RequestCheckpoint("")
	err := s.Run(vtime.Infinity)
	if !errors.Is(err, errNotCheckpointable) {
		t.Fatalf("err = %v, want ErrNotCheckpointable", err)
	}
	s.Teardown()
}

func TestIncrementalCheckpointsShareState(t *testing.T) {
	// A consumer that never hears anything keeps identical state, so
	// incremental mode must share it between checkpoints.
	s := NewSubsystem("incr")
	co := &consumer{}
	cc, _ := s.NewComponent("cons", co, "in")
	n, _ := s.NewNet("quiet", 0)
	s.Connect(n, cc.Port("in"))
	ticker := &producer{Count: 10, Period: 10}
	tc, _ := s.NewComponent("tick", ticker, "out")
	n2, _ := s.NewNet("void", 0)
	s.Connect(n2, tc.Port("out"))
	s.SetIncrementalCheckpoints(true)
	s.SetAutoCheckpoint(10)
	s.SetCheckpointRetention(100)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	cks := s.Checkpoints()
	if len(cks) < 3 {
		t.Fatalf("only %d checkpoints", len(cks))
	}
	shared := 0
	for _, cs := range cks[1:] {
		img := cs.Image("cons")
		if img.Shared {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("incremental mode never shared an unchanged state")
	}
	// Bytes must count shared states as free.
	if cks[1].Bytes() >= cks[0].Bytes() {
		t.Fatalf("incremental checkpoint not smaller: %d vs %d", cks[1].Bytes(), cks[0].Bytes())
	}
}

func TestRestoreDropsFutureCheckpoints(t *testing.T) {
	s, _, _ := buildPipe(t, 0, 10, 10)
	s.SetAutoCheckpoint(25)
	s.SetCheckpointRetention(100)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	cks := s.Checkpoints()
	if len(cks) < 3 {
		t.Fatalf("need >=3 checkpoints, have %d", len(cks))
	}
	target := cks[0]
	if err := s.RestoreCheckpoint(target); err != nil {
		t.Fatal(err)
	}
	after := s.Checkpoints()
	if len(after) != 1 || after[0] != target {
		t.Fatalf("future checkpoints not dropped: %d remain", len(after))
	}
	// Run to completion again after restore.
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointInboxPreserved(t *testing.T) {
	// Checkpoint while a message is in flight (sent, undelivered);
	// restore must re-deliver it exactly once.
	s := NewSubsystem("inflight")
	co := &consumer{}
	cc, _ := s.NewComponent("cons", co, "in")
	// Producer sends at t=5 with delivery at t=105 (big net delay).
	pr := &producer{Count: 1, Period: 5}
	pc, _ := s.NewComponent("prod", pr, "out")
	n, _ := s.NewNet("slow", 100)
	s.Connect(n, pc.Port("out"), cc.Port("in"))
	s.Observe(Observer{Step: func(now vtime.Time) {
		if now >= 5 && s.LatestCheckpoint() == nil {
			s.RequestCheckpoint("")
		}
	}})
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	cs := s.LatestCheckpoint()
	if len(co.Got) != 1 {
		t.Fatalf("first run: %d deliveries", len(co.Got))
	}
	img := cs.Image("cons")
	if len(img.Inbox) != 1 {
		t.Fatalf("checkpoint inbox has %d events, want 1 in-flight", len(img.Inbox))
	}
	s.observers = nil
	if err := s.RestoreCheckpoint(cs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != 1 || co.Times[0] != 105 {
		t.Fatalf("replay: got %v at %v", co.Got, co.Times)
	}
}

func TestImageAccessors(t *testing.T) {
	s, _, _ := buildPipe(t, 0, 2, 5)
	cs, err := s.CaptureNow("")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Components() != 2 {
		t.Fatalf("Components = %d, want 2", cs.Components())
	}
	if cs.Image("nope") != nil {
		t.Fatal("Image for unknown component should be nil")
	}
	if cs.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreOfDoneComponentStaysDone(t *testing.T) {
	s := NewSubsystem("donedone")
	pr := &producer{Count: 1, Period: 5}
	pc, _ := s.NewComponent("prod", pr, "out")
	co := &consumer{}
	cc, _ := s.NewComponent("cons", co, "in")
	n, _ := s.NewNet("w", 0)
	s.Connect(n, pc.Port("out"), cc.Port("in"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	cs, err := s.CaptureNow("")
	if err != nil {
		t.Fatal(err)
	}
	if live := cs.Image("prod").Live; live {
		t.Fatal("prod should be captured as done")
	}
	if err := s.RestoreCheckpoint(cs); err != nil {
		t.Fatal(err)
	}
	if !s.Component("prod").Done() {
		t.Fatal("done component resurrected by restore")
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(co.Got) != 1 {
		t.Fatalf("deliveries after no-op restore = %d", len(co.Got))
	}
}

// WireRestore ships img across the migration wire — the image a
// ComponentImage embeds, Encode, Decode, AdoptComponent — and is set by
// wire_restore_test.go: only the external test package may import
// internal/snapshot, which imports this one.
var WireRestore func(s *Subsystem, img *Image) error

// TestRestoreImageRule drives the same images through every caller of
// restoreImage — a whole-subsystem restore, a migration adoption, the
// same adoption after the image crossed the wire, and a Time Warp
// rollback — which must accept and refuse them alike: an error iff the
// image carries State the behaviour cannot take, or is Live and the
// behaviour is not a StateSaver.
func TestRestoreImageRule(t *testing.T) {
	plain := func() Behavior {
		return BehaviorFunc(func(p *Proc) error {
			for {
				if _, ok := p.Recv(); !ok {
					return nil
				}
			}
		})
	}
	reactor := func() Behavior { return &relay{} } // SaveState returns nil
	saved, err := (&consumer{Got: []int{7}, Times: []vtime.Time{3}}).SaveState()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		beh     func() Behavior
		img     Image
		wantErr bool
	}{
		{"saver, live, nil state", reactor, Image{Live: true}, false},
		{"saver, live, empty state", reactor, Image{Live: true, State: []byte{}}, false},
		{"saver, live, state", func() Behavior { return &consumer{} }, Image{Live: true, State: saved}, false},
		{"saver, done, no state", reactor, Image{}, false},
		{"no saver, done, no state", plain, Image{}, false},
		{"no saver, done, empty state", plain, Image{State: []byte{}}, false},
		{"no saver, done, state", plain, Image{State: saved}, true},
		{"no saver, live", plain, Image{Live: true}, true},
	}
	callers := []struct {
		name    string
		restore func(s *Subsystem, c *Component, img *Image) error
	}{
		{"RestoreCheckpoint", func(s *Subsystem, c *Component, img *Image) error {
			return s.RestoreCheckpoint(&CheckpointSet{ID: 1, images: map[string]*Image{c.name: img}})
		}},
		{"RestoreComponentImage", func(s *Subsystem, c *Component, img *Image) error {
			return s.RestoreComponentImage(img)
		}},
		{"wire", func(s *Subsystem, c *Component, img *Image) error {
			return WireRestore(s, img)
		}},
		{"rollbackSpec", func(s *Subsystem, c *Component, img *Image) error {
			c.specImg, c.wbuf = *img, s.grabBuf(c)
			s.rollbackSpec(c)
			return s.fatal
		}},
	}
	for _, tc := range cases {
		for _, caller := range callers {
			s := NewSubsystem("rule")
			beh := tc.beh()
			c, err := s.NewComponent("c", beh)
			if err != nil {
				t.Fatal(err)
			}
			img := tc.img
			img.Component, img.LocalTime = "c", 42
			err = caller.restore(s, c, &img)
			if (err != nil) != tc.wantErr {
				t.Errorf("%s via %s: err = %v, want error %v", tc.name, caller.name, err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, errNotCheckpointable) {
				t.Errorf("%s via %s: err = %v, want ErrNotCheckpointable", tc.name, caller.name, err)
			}
			// Refused or not, the component is left reset to the image,
			// never unwound behind a live status.
			if c.Done() == tc.img.Live || c.LocalTime() != 42 {
				t.Errorf("%s via %s: component left %v, want live=%v @42", tc.name, caller.name, c, tc.img.Live)
			}
			if co, ok := beh.(*consumer); ok && (len(co.Got) != 1 || co.Got[0] != 7) {
				t.Errorf("%s via %s: state not restored: %+v", tc.name, caller.name, co)
			}
			s.Teardown()
		}
	}
}

// fixedSaver's image costs exactly one allocation.
type fixedSaver struct{ BehaviorFunc }

func (fixedSaver) SaveState() ([]byte, error) { return make([]byte, 64), nil }
func (fixedSaver) RestoreState([]byte) error  { return nil }

// TestSpecImageAllocs: imaging a member for a speculative dispatch
// must cost exactly what its SaveState and memory snapshot cost — the
// Image stays by value in the Component; a heap image per member per
// round would show up in every optimistic workload.
func TestSpecImageAllocs(t *testing.T) {
	s := NewSubsystem("img")
	sv := fixedSaver{func(*Proc) error { return nil }}
	c, err := s.NewComponent("c", sv)
	if err != nil {
		t.Fatal(err)
	}
	c.Memory().data[4] = 9
	var img Image // escapes, as a component's image does
	want := testing.AllocsPerRun(100, func() {
		img.State, _ = c.saver().SaveState()
		img.MemData = c.memory.snapshotData()
	})
	got := testing.AllocsPerRun(100, func() {
		if !s.captureSpec(c) {
			t.Fatal("captureSpec refused a StateSaver")
		}
	})
	if got != want {
		t.Fatalf("captureSpec costs %v allocs, SaveState + memory snapshot cost %v", got, want)
	}
}

// TestFailedCaptureLeavesTagUnspent: a tagged capture that fails — a
// live component that saves no state — spends no tag, so the same tag
// captures once the cause is gone. A migration the mesh dropped at a
// refused capture is retried under the same tag.
func TestFailedCaptureLeavesTagUnspent(t *testing.T) {
	s := NewSubsystem("retry")
	if _, err := s.NewComponent("f", BehaviorFunc(func(p *Proc) error {
		p.Delay(10)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CaptureNow("mig-1"); err == nil {
		t.Fatal("captured a live component that saves no state")
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	cs, err := s.CaptureNow("mig-1")
	if err != nil || cs == nil {
		t.Fatalf("capture after the component finished: %v, %v", cs, err)
	}
}
