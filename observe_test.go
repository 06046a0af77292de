package pia

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/signal"
	"repro/internal/timeline"
)

func TestPublicTraceAndDebug(t *testing.T) {
	src := &pingState{N: 6}
	dst := &pongState{}
	sim, err := NewSystem("obs").
		AddComponent("src", "main", src, "out").
		AddComponent("dst", "main", dst, "in").
		AddNet("wire", 1, "src.out", "dst.in").
		BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.EnableTimeline(nil)
	dbg := NewDebugger(sim.Subsystem("main"))
	bp, err := dbg.AddBreak("src >= 30")
	if err != nil {
		t.Fatal(err)
	}

	hit, err := dbg.Continue(Infinity)
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil || hit.Break != bp {
		t.Fatalf("hit %+v", hit)
	}
	comps := dbg.Components()
	if len(comps) != 2 {
		t.Fatalf("components %+v", comps)
	}
	if hit2, err := dbg.Continue(Infinity); err != nil || hit2 != nil {
		t.Fatalf("resume: %+v %v", hit2, err)
	}
	if len(dst.Got) != 6 {
		t.Fatalf("deliveries %v", dst.Got)
	}
	var vcd bytes.Buffer
	if err := timeline.WriteVCD(&vcd, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcd.String(), "$enddefinitions") {
		t.Fatal("VCD export broken through the public API")
	}
}

func TestPublicISS(t *testing.T) {
	prog, err := AssembleISS(`
		li r1, 21
		add r2, r1, r1
		out r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(DisassembleISS(prog)) != 4 {
		t.Fatal("disassembly length wrong")
	}
	cpu := &ISSCPU{Prog: prog}
	dst := &pongStateWord{}
	sim, err := NewSystem("puba").
		AddComponent("cpu", "main", cpu, "out", "in").
		AddComponent("dst", "main", dst, "in").
		AddNet("bus", 0, "cpu.out", "dst.in").
		BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(dst.Got) != 1 || dst.Got[0] != 42 {
		t.Fatalf("ISS output %v", dst.Got)
	}
}

// pongStateWord collects signal.Word values as uint32.
type pongStateWord struct {
	Got []uint32
}

func (s *pongStateWord) Run(p *Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		if w, isWord := m.Value.(signal.Word); isWord {
			s.Got = append(s.Got, uint32(w))
		}
	}
}

func (s *pongStateWord) SaveState() ([]byte, error)  { return GobSave(s) }
func (s *pongStateWord) RestoreState(b []byte) error { return GobRestore(s, b) }
