package iss

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// collectWords gathers OUT traffic.
type collectWords struct {
	Got []uint32
}

func (c *collectWords) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		if w, isW := m.Value.(signal.Word); isW {
			c.Got = append(c.Got, uint32(w))
		}
	}
}

func (c *collectWords) SaveState() ([]byte, error) { return appendList(nil, c.Got), nil }

func (c *collectWords) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	c.Got = readList[uint32](&f)
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

// runProgram assembles src, runs it on a CPU wired to a collector,
// and returns the collected output and the CPU.
func runProgram(t *testing.T, src string) ([]uint32, *CPU) {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &CPU{Prog: prog}
	s := core.NewSubsystem("iss")
	cc, _ := s.NewComponent("cpu", cpu, "out", "in")
	col := &collectWords{}
	kc, _ := s.NewComponent("col", col, "in")
	n, _ := s.NewNet("bus", 0)
	s.Connect(n, cc.Port("out"), kc.Port("in"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	return col.Got, cpu
}

func TestSumLoop(t *testing.T) {
	got, cpu := runProgram(t, `
		li   r1, 0        ; sum
		li   r2, 1        ; i
		li   r3, 11       ; limit
	loop:	add  r1, r1, r2
		addi r2, r2, 1
		blt  r2, r3, loop
		out  r1
		halt
	`)
	if len(got) != 1 || got[0] != 55 {
		t.Fatalf("sum program output %v, want [55]", got)
	}
	if !cpu.Halted || cpu.Executed == 0 {
		t.Fatalf("cpu state: halted=%v executed=%d", cpu.Halted, cpu.Executed)
	}
}

func TestALUAndShifts(t *testing.T) {
	got, _ := runProgram(t, `
		li  r1, 12
		li  r2, 10
		sub r3, r1, r2   ; 2
		mul r4, r1, r2   ; 120
		and r5, r1, r2   ; 8
		or  r6, r1, r2   ; 14
		xor r7, r1, r2   ; 6
		li  r8, 2
		shl r9, r1, r8   ; 48
		shr r10, r1, r8  ; 3
		out r3
		out r4
		out r5
		out r6
		out r7
		out r9
		out r10
		halt
	`)
	want := []uint32{2, 120, 8, 14, 6, 48, 3}
	if len(got) != len(want) {
		t.Fatalf("outputs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMemoryAndLUI(t *testing.T) {
	got, _ := runProgram(t, `
		lui r1, 1        ; r1 = 4096
		li  r2, 77
		st  r2, [r1+4]
		ld  r3, [r1+4]
		out r3
		mov r4, r3
		out r4
		halt
	`)
	if len(got) != 2 || got[0] != 77 || got[1] != 77 {
		t.Fatalf("memory round trip output %v", got)
	}
}

func TestTimingCharges(t *testing.T) {
	_, cpu := runProgram(t, `
		li r1, 0
		li r2, 100
	loop:	addi r1, r1, 1
		blt r1, r2, loop
		halt
	`)
	// 2 + 100*(1+1 branch) + 1 halt instructions at 50 MHz (20ns/cycle,
	// branch penalty 1 cycle).
	if cpu.CyclesCharged() <= 0 {
		t.Fatal("no time charged")
	}
	perInstr := vtime.Duration(20)
	if cpu.CyclesCharged() < vtime.Duration(cpu.Executed)*perInstr {
		t.Fatalf("charged %v for %d instructions", cpu.CyclesCharged(), cpu.Executed)
	}
}

func TestInInstruction(t *testing.T) {
	prog, err := Assemble(`
	loop:	in   r1
		addi r1, r1, 1
		out  r1
		li   r2, 99
		bne  r1, r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &CPU{Prog: prog}
	s := core.NewSubsystem("io")
	cc, _ := s.NewComponent("cpu", cpu, "out", "in")
	feeder := core.BehaviorFunc(func(p *core.Proc) error {
		for _, v := range []uint32{10, 20, 98} {
			p.Delay(100)
			p.Send("out", signal.Word(v))
		}
		return nil
	})
	fc, _ := s.NewComponent("feed", &saver{feeder}, "out")
	col := &collectWords{}
	kc, _ := s.NewComponent("col", col, "in")
	nin, _ := s.NewNet("cin", 0)
	s.Connect(nin, fc.Port("out"), cc.Port("in"))
	nout, _ := s.NewNet("cout", 0)
	s.Connect(nout, cc.Port("out"), kc.Port("in"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	want := []uint32{11, 21, 99}
	if len(col.Got) != 3 {
		t.Fatalf("echo output %v", col.Got)
	}
	for i := range want {
		if col.Got[i] != want[i] {
			t.Fatalf("echo %v, want %v", col.Got, want)
		}
	}
}

type saver struct{ B core.Behavior }

func (s *saver) Run(p *core.Proc) error     { return s.B.Run(p) }
func (s *saver) SaveState() ([]byte, error) { return []byte{}, nil }
func (s *saver) RestoreState([]byte) error  { return nil }

func TestWFIAndMailbox(t *testing.T) {
	prog, err := Assemble(`
		wfi                 ; take one interrupt
		li  r1, 0x700       ; the IRQ mailbox
		ld  r3, [r1]
		out r3
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &CPU{Prog: prog, IRQPort: "irq"}
	s := core.NewSubsystem("irq")
	cc, _ := s.NewComponent("cpu", cpu, "out", "in", "irq")
	dev := core.BehaviorFunc(func(p *core.Proc) error {
		p.Delay(500)
		p.Send("irq", signal.IRQ{Line: 7})
		return nil
	})
	dc, _ := s.NewComponent("dev", &saver{dev}, "irq")
	col := &collectWords{}
	kc, _ := s.NewComponent("col", col, "in")
	nirq, _ := s.NewNet("irqline", 0)
	s.Connect(nirq, dc.Port("irq"), cc.Port("irq"))
	nout, _ := s.NewNet("cout", 0)
	s.Connect(nout, cc.Port("out"), kc.Port("in"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if cpu.IRQs != 1 {
		t.Fatalf("IRQs = %d", cpu.IRQs)
	}
	if len(col.Got) != 1 || col.Got[0] != 7 {
		t.Fatalf("mailbox output %v, want [7]", col.Got)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(op uint8, rd, rs, rt uint8, imm int16) bool {
		in := instruction{
			Op: opcode(op % uint8(numOps)),
			Rd: rd % 16, Rs: rs % 16, Rt: rt % 16,
			Imm: int32(imm) % 2048,
		}
		w, err := in.Encode()
		if err != nil {
			return false
		}
		return decode(w) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frob r1",
		"li r99, 1",
		"li r1, 99999",
		"beq r1, r2, nowhere\nhalt",
		"dup: nop\ndup: nop",
		"ld r1, r2",
		"add r1, r2",
		"1bad: nop",
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) accepted", src)
		}
	}
}

func TestDisassemble(t *testing.T) {
	prog, err := Assemble(`
		li r1, 5
		addi r2, r1, -3
		st r2, [r1+8]
		beq r1, r2, 0
		out r1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(prog)
	joined := strings.Join(dis, "\n")
	for _, want := range []string{"li r1, 5", "addi r2, r1, -3", "st r2, [r1+8]", "beq r1, r2, 0", "out r1", "halt"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, joined)
		}
	}
}

func TestIllegalInstruction(t *testing.T) {
	cpu := &CPU{Prog: []uint32{uint32(numOps) << 24}}
	s := core.NewSubsystem("ill")
	s.NewComponent("cpu", cpu, "out", "in")
	if err := s.Run(vtime.Infinity); err == nil {
		t.Fatal("illegal instruction did not error")
	}
}

func TestPCOffEnd(t *testing.T) {
	cpu := &CPU{Prog: []uint32{0}} // single nop, no halt
	s := core.NewSubsystem("off")
	s.NewComponent("cpu", cpu, "out", "in")
	if err := s.Run(vtime.Infinity); err == nil {
		t.Fatal("running off the end did not error")
	}
}

func TestCheckpointRestoreMidProgram(t *testing.T) {
	// Roll the CPU back mid-loop; the final output must be identical
	// because PC/registers are architectural state.
	prog, err := Assemble(`
		li r1, 0
		li r2, 0
		li r3, 20
	loop:	addi r1, r1, 3
		addi r2, r2, 1
		blt r2, r3, loop
		out r1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &CPU{Prog: prog}
	s := core.NewSubsystem("ckpt")
	cc, _ := s.NewComponent("cpu", cpu, "out", "in")
	col := &collectWords{}
	kc, _ := s.NewComponent("col", col, "in")
	n, _ := s.NewNet("bus", 0)
	s.Connect(n, cc.Port("out"), kc.Port("in"))
	// The ISS never yields mid-run (no I/O in the loop), so capture
	// the initial state and roll back to it after completion, then
	// re-run.
	if _, err := s.CaptureNow(""); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(col.Got) != 1 || col.Got[0] != 60 {
		t.Fatalf("first run output %v", col.Got)
	}
	if err := s.RestoreCheckpoint(s.LatestCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(col.Got) != 1 || col.Got[0] != 60 {
		t.Fatalf("replay output %v", col.Got)
	}

	// Mid-program: the checkpoint is taken while the CPU is parked at
	// an IN whose word arrives later. The replay finishes that IN and
	// ends with the output, instruction count and cycles charged of an
	// uninterrupted run.
	prog, err = Assemble(`
		li r1, 7
		in r2
		add r1, r1, r2
		li r3, 0
		li r4, 10
	loop:	addi r3, r3, 1
		blt r3, r4, loop
		out r1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*core.Subsystem, *CPU, *collectWords) {
		cpu, col := &CPU{Prog: prog}, &collectWords{}
		s := core.NewSubsystem("parked")
		cc, _ := s.NewComponent("cpu", cpu, "out", "in")
		kc, _ := s.NewComponent("col", col, "in")
		wc, _ := s.NewComponent("src", &wordAt{At: 100_000, W: 5}, "out")
		out, _ := s.NewNet("out", 0)
		s.Connect(out, cc.Port("out"), kc.Port("in"))
		in, _ := s.NewNet("in", 0)
		s.Connect(in, wc.Port("out"), cc.Port("in"))
		return s, cpu, col
	}
	ref, refCPU, refCol := build()
	if err := ref.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	s, cpu, col = build()
	if err := s.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if cpu.PC != 2 || cpu.Halted {
		t.Fatalf("at the checkpoint PC=%d halted=%v, want parked at the IN (PC 2)", cpu.PC, cpu.Halted)
	}
	if _, err := s.CaptureNow(""); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreCheckpoint(s.LatestCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(col.Got, refCol.Got) || len(col.Got) != 1 || col.Got[0] != 12 {
		t.Errorf("replay output %v, uninterrupted %v, want [12]", col.Got, refCol.Got)
	}
	if cpu.Executed != refCPU.Executed || cpu.CyclesCharged() != refCPU.CyclesCharged() {
		t.Errorf("replay executed %d charging %v, uninterrupted %d charging %v",
			cpu.Executed, cpu.CyclesCharged(), refCPU.Executed, refCPU.CyclesCharged())
	}
}

// wordAt sends the word W on "out" at virtual time At.
type wordAt struct {
	At   vtime.Time
	W    signal.Word
	Sent int
}

func (w *wordAt) Run(p *core.Proc) error {
	if w.Sent == 0 {
		p.DelayUntil(w.At)
		p.Send("out", w.W)
		w.Sent = 1
	}
	return nil
}

func (w *wordAt) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(w.Sent)), nil }
func (w *wordAt) RestoreState(b []byte) error { return wire.ReadInts(b, &w.Sent) }
