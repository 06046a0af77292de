package debug

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// ticker advances time and emits its counter.
type ticker struct {
	I, N int
}

func (g *ticker) Run(p *core.Proc) error {
	for ; g.I < g.N; g.I++ {
		p.DelayUntil(vtime.Time(10 * (g.I + 1)))
		p.Send("out", signal.Word(g.I))
	}
	return nil
}

func (g *ticker) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(g.I)), nil }
func (g *ticker) RestoreState(b []byte) error { return wire.ReadInts(b, &g.I) }

type taker struct {
	Got int
}

func (c *taker) Run(p *core.Proc) error {
	for {
		if _, ok := p.Recv("in"); !ok {
			return nil
		}
		c.Got++
	}
}

func (c *taker) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(c.Got)), nil }
func (c *taker) RestoreState(b []byte) error { return wire.ReadInts(b, &c.Got) }

func build(t *testing.T, n int) (*core.Subsystem, *Debugger, *taker) {
	t.Helper()
	s, sink := clockOnBus(n)
	return s, New(s), sink
}

// clockOnBus is a clock ticking n words onto bus and the sink taking
// them, with no debugger yet.
func clockOnBus(n int) (*core.Subsystem, *taker) {
	s := core.NewSubsystem("dbg")
	tc, _ := s.NewComponent("clock", &ticker{N: n}, "out")
	sink := &taker{}
	rc, _ := s.NewComponent("sink", sink, "in")
	nw, _ := s.NewNet("bus", 0)
	s.Connect(nw, tc.Port("out"), rc.Port("in"))
	return s, sink
}

func TestBreakpointPausesRun(t *testing.T) {
	_, d, _ := build(t, 10)
	bp, err := d.AddBreak("clock >= 50")
	if err != nil {
		t.Fatal(err)
	}
	hit, err := d.Continue(vtime.Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil || hit.Break != bp {
		t.Fatalf("hit = %+v", hit)
	}
	if bp.Hits != 1 || bp.Enabled() {
		t.Fatalf("breakpoint state: hits=%d enabled=%v", bp.Hits, bp.Enabled())
	}
	if d.Now() > 60 {
		t.Fatalf("paused too late: now=%v", d.Now())
	}
	// Resume to completion: no more hits.
	hit, err = d.Continue(vtime.Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if hit != nil {
		t.Fatalf("unexpected second hit %+v", hit)
	}
}

func TestRearm(t *testing.T) {
	_, d, _ := build(t, 10)
	bp, _ := d.AddBreak("clock >= 30")
	if _, err := d.Continue(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if !d.Rearm(bp.ID) {
		t.Fatal("rearm failed")
	}
	hit, err := d.Continue(vtime.Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil || hit.Break != bp || bp.Hits != 2 {
		t.Fatalf("rearm did not re-fire: %+v hits=%d", hit, bp.Hits)
	}
	if !d.Rearm(999) == false {
		t.Fatal("rearm of unknown id succeeded")
	}
}

// TestPlainBreakStaysDisarmed: a plain breakpoint fires once and stays
// disarmed, though its condition still holds, until Rearm.
func TestPlainBreakStaysDisarmed(t *testing.T) {
	_, d, _ := build(t, 10)
	bp, _ := d.AddBreak("clock >= 30")
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit == nil || hit.Break != bp {
		t.Fatalf("first continue: hit %+v, err %v", hit, err)
	}
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit != nil {
		t.Fatalf("a disarmed breakpoint fired: hit %+v, err %v", hit, err)
	}
	if bp.Hits != 1 || bp.Enabled() {
		t.Fatalf("hits=%d enabled=%v, want 1 hit and disarmed", bp.Hits, bp.Enabled())
	}
	if !d.Rearm(bp.ID) || !bp.Enabled() {
		t.Fatal("a plain breakpoint did not rearm")
	}
}

// TestOneShotBreakDeleted: a one-shot breakpoint is deleted at its
// first hit, so Rearm and Remove no longer find it.
func TestOneShotBreakDeleted(t *testing.T) {
	_, d, _ := build(t, 10)
	bp, _ := d.AddBreak("clock >= 30")
	bp.OneShot = true
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit == nil || hit.Break != bp {
		t.Fatalf("first continue: hit %+v, err %v", hit, err)
	}
	if d.Rearm(bp.ID) || d.Remove(bp.ID) {
		t.Fatal("a one-shot breakpoint outlived its hit")
	}
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit != nil {
		t.Fatalf("a deleted breakpoint fired: hit %+v, err %v", hit, err)
	}
	if bp.Hits != 1 || bp.Enabled() {
		t.Fatalf("hits=%d enabled=%v, want 1 hit and disarmed", bp.Hits, bp.Enabled())
	}
}

func TestSingleStep(t *testing.T) {
	_, d, _ := build(t, 5)
	var times []vtime.Time
	for i := 0; i < 4; i++ {
		hit, err := d.Step(1, vtime.Infinity)
		if err != nil {
			t.Fatal(err)
		}
		if hit == nil || hit.Break != nil {
			t.Fatalf("step %d: hit %+v", i, hit)
		}
		times = append(times, d.Now())
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("stepping went backwards: %v", times)
		}
	}
	// Finish the run.
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit != nil {
		t.Fatalf("final continue: %v %+v", hit, err)
	}
	if _, err := d.Step(0, vtime.Infinity); err == nil {
		t.Fatal("Step(0) accepted")
	}
}

func TestWatchpoint(t *testing.T) {
	_, d, _ := build(t, 10)
	wp, err := d.AddWatch("bus", func(v any) bool {
		w, ok := v.(signal.Word)
		return ok && w == 3
	})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := d.Continue(vtime.Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil || hit.Watch != wp {
		t.Fatalf("hit = %+v", hit)
	}
	if w, ok := hit.Value.(signal.Word); !ok || w != 3 {
		t.Fatalf("watch value %v", hit.Value)
	}
	if hit.Time != 40 {
		t.Fatalf("watch time %v, want 40", hit.Time)
	}
	if _, err := d.AddWatch("ghost", nil); err == nil {
		t.Fatal("watch on unknown net accepted")
	}
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit != nil {
		t.Fatalf("resume after watch: %+v %v", hit, err)
	}
}

// TestWatchpointBesideDigest: a drive digest attached before or after
// the debugger observes the drives beside it, and silences neither the
// watchpoint (it still pauses on word 3 at 40 ns) nor itself.
func TestWatchpointBesideDigest(t *testing.T) {
	for _, digestFirst := range []bool{false, true} {
		s, _ := clockOnBus(10)
		var d *Debugger
		var digest *core.DriveDigest
		if digestFirst {
			digest = s.DigestDrives()
			d = New(s)
		} else {
			d = New(s)
			digest = s.DigestDrives()
		}
		wp, err := d.AddWatch("bus", func(v any) bool { return v == signal.Word(3) })
		if err != nil {
			t.Fatal(err)
		}
		hit, err := d.Continue(vtime.Infinity)
		if err != nil {
			t.Fatal(err)
		}
		if hit == nil || hit.Watch != wp || hit.Value != signal.Word(3) || hit.Time != 40 {
			t.Fatalf("digest attached first %v: hit = %+v, want word 3 on bus at 40", digestFirst, hit)
		}
		if digest.Value("clock") == 0 {
			t.Fatalf("digest attached first %v: the digest heard no drive", digestFirst)
		}
	}
}

func TestInspection(t *testing.T) {
	_, d, sink := build(t, 6)
	if _, err := d.AddBreak("clock >= 30"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Continue(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	comps := d.Components()
	if len(comps) != 2 || comps[0].Name != "clock" || comps[1].Name != "sink" {
		t.Fatalf("components %+v", comps)
	}
	if comps[0].LocalTime < 30 {
		t.Fatalf("clock local time %v", comps[0].LocalTime)
	}
	v, at, err := d.NetValue("bus")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(signal.Word); !ok || at == 0 {
		t.Fatalf("net value %v @%v", v, at)
	}
	if _, _, err := d.NetValue("ghost"); err == nil {
		t.Fatal("NetValue for unknown net succeeded")
	}
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit != nil {
		t.Fatal(err)
	}
	if sink.Got != 6 {
		t.Fatalf("sink got %d after debug session, want 6", sink.Got)
	}
}

func TestRemove(t *testing.T) {
	_, d, _ := build(t, 5)
	bp, _ := d.AddBreak("clock >= 10")
	if !d.Remove(bp.ID) {
		t.Fatal("remove failed")
	}
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit != nil {
		t.Fatalf("removed breakpoint fired: %+v %v", hit, err)
	}
	if d.Remove(12345) {
		t.Fatal("remove of unknown id succeeded")
	}
}

func TestBadBreakExpression(t *testing.T) {
	_, d, _ := build(t, 2)
	if _, err := d.AddBreak("clock >="); err == nil {
		t.Fatal("bad expression accepted")
	}
	if hit, err := d.Continue(vtime.Infinity); err != nil || hit != nil {
		t.Fatal("clean run disturbed")
	}
}
