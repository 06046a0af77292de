package timeline_test

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// The waveform exporters against a real scheduler: core emits drives
// and restores into the recorder, the exporters read them back.

// wiggler drives a level net and a word net. It keeps its loop index
// in saved state and paces itself with DelayUntil, so a rollback
// re-enters exactly where the checkpoint left off.
type wiggler struct {
	N int
	I int
}

func (g *wiggler) Run(p *core.Proc) error {
	for ; g.I < g.N; g.I++ {
		p.DelayUntil(vtime.Time(10 * (g.I + 1)))
		p.Send("bit", signal.Level(g.I%2 == 0))
		p.Send("word", signal.Word(g.I*1000))
	}
	return nil
}

func (g *wiggler) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(g.I)), nil }
func (g *wiggler) RestoreState(b []byte) error { return wire.ReadInts(b, &g.I) }

func buildTraced(t *testing.T, n, limit int) (*core.Subsystem, *timeline.Recorder) {
	t.Helper()
	s := core.NewSubsystem("dut")
	c, _ := s.NewComponent("gen", &wiggler{N: n}, "bit", "word")
	nb, _ := s.NewNet("bitline", 0)
	s.Connect(nb, c.Port("bit"))
	nw, _ := s.NewNet("wordbus", 0)
	s.Connect(nw, c.Port("word"))
	r := timeline.NewRecorder(limit)
	s.EnableTimeline(r)
	return s, r
}

func drives(evs []timeline.Event) []timeline.Event {
	var out []timeline.Event
	for _, e := range evs {
		if e.Kind == timeline.KindDrive {
			out = append(out, e)
		}
	}
	return out
}

func TestRecorderCollectsDrives(t *testing.T) {
	s, r := buildTraced(t, 5, 0)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	evs := drives(r.Events())
	if len(evs) != 10 {
		t.Fatalf("recorded %d drives, want 10", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].VT < evs[i-1].VT {
			t.Fatal("events not time-ordered")
		}
	}
	if evs[0].Sub != "dut" || evs[0].Comp != "gen" || evs[0].Value != signal.Level(true) {
		t.Fatalf("event metadata wrong: %+v", evs[0])
	}
}

func TestRecorderLimit(t *testing.T) {
	s, r := buildTraced(t, 50, 20)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d with limit 20", r.Len())
	}
	// The retained events are the most recent ones.
	evs := r.Events()
	if evs[len(evs)-1].VT != 500 {
		t.Fatalf("last event at %v, want 500", evs[len(evs)-1].VT)
	}
}

func TestWriteVCD(t *testing.T) {
	s, r := buildTraced(t, 3, 0)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := timeline.WriteVCD(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	vcd := buf.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module dut $end",
		"$var wire 1 ",
		"$var wire 32 ",
		"bitline",
		"wordbus",
		"$enddefinitions $end",
		"#10",
		"#30",
	} {
		if !strings.Contains(vcd, want) {
			t.Fatalf("VCD missing %q:\n%s", want, vcd)
		}
	}
	// Level changes appear as scalar 0/1 followed by the id; words as
	// binary vectors.
	if !strings.Contains(vcd, "1!") && !strings.Contains(vcd, "1\"") {
		t.Fatalf("no scalar level change found:\n%s", vcd)
	}
	if !strings.Contains(vcd, "b11111010000 ") { // 2000 in binary
		t.Fatalf("word vector for 2000 missing:\n%s", vcd)
	}
	// Timestamps strictly increasing.
	lastTS := int64(-1)
	for _, line := range strings.Split(vcd, "\n") {
		if strings.HasPrefix(line, "#") {
			ts, err := strconv.ParseInt(line[1:], 10, 64)
			if err != nil {
				t.Fatalf("bad timestamp line %q", line)
			}
			if ts <= lastTS {
				t.Fatalf("timestamps not increasing at %q", line)
			}
			lastTS = ts
		}
	}
}

func TestRollbackDropsFuture(t *testing.T) {
	s, r := buildTraced(t, 10, 0)
	s.SetAutoCheckpoint(30)
	rolled := false
	s.Observe(core.Observer{Step: func(now vtime.Time) {
		if now >= 80 && !rolled {
			rolled = true
			s.RequestRollback(50)
		}
	}})
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	evs := drives(r.Events())
	// Final committed run: 10 steps => 20 events, but NOT duplicated
	// from the rolled-back attempt.
	if len(evs) != 20 {
		t.Fatalf("recorded %d drives after rollback, want 20", len(evs))
	}
	seen := map[string]int{}
	for _, e := range evs {
		seen[e.Net]++
	}
	if seen["bitline"] != 10 || seen["wordbus"] != 10 {
		t.Fatalf("per-net counts %v", seen)
	}
}
