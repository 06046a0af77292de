package iss

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/timing"
	"repro/internal/vtime"
)

// CPU is the interpreter: a checkpointable core.Behavior executing a
// program. All architectural state lives in exported fields, so the
// component rolls back and resumes exactly.
type CPU struct {
	// Program and configuration.
	Prog      []uint32
	ModelName string // timing model: "i960", "embedded-risc", "server-cpu", "cellular-asic"
	OutPort   string // port driven by OUT ("out" default)
	InPort    string // port read by IN ("in" default)
	IRQPort   string // interrupt port for WFI and handlers ("" disables)

	// MMIOBase, when nonzero, makes loads/stores at addr >= MMIOBase
	// synchronous (statically marked, as for interrupt-shared
	// locations).
	MMIOBase uint32

	// Architectural state.
	PC     uint32
	Regs   [16]uint32
	Halted bool

	// Counters.
	Executed int64
	IRQs     int64

	est *timing.Estimator
}

func (c *CPU) model() *timing.Model {
	switch c.ModelName {
	case "", "embedded-risc":
		return timing.EmbeddedCPU
	case "i960":
		return timing.I960
	case "server-cpu":
		return timing.ServerCPU
	case "cellular-asic":
		return timing.CellularASIC
	default:
		return nil
	}
}

func (c *CPU) outPort() string {
	if c.OutPort == "" {
		return "out"
	}
	return c.OutPort
}

func (c *CPU) inPort() string {
	if c.InPort == "" {
		return "in"
	}
	return c.InPort
}

// Run implements core.Behavior: the fetch-decode-execute loop,
// charging instruction timing and yielding at I/O and interrupt
// boundaries.
func (c *CPU) Run(p *core.Proc) error {
	m := c.model()
	if m == nil {
		return fmt.Errorf("iss: unknown timing model %q", c.ModelName)
	}
	if c.est == nil {
		var err error
		if c.est, err = timing.NewEstimator(m); err != nil {
			return err
		}
	}
	mem := p.Memory()
	if c.IRQPort != "" {
		p.SetInterruptHandler(c.IRQPort, func(p *core.Proc, msg core.Msg) {
			c.IRQs++
			if irq, ok := msg.Value.(signal.IRQ); ok {
				// Deliver the interrupt cause to the IRQ mailbox.
				mem.HandlerWrite(p, mailboxAddr, uint64(irq.Line), msg.Sent)
			}
		})
	}

	for !c.Halted {
		if int(c.PC) >= len(c.Prog) {
			return fmt.Errorf("iss: PC %d past end of program (%d words)", c.PC, len(c.Prog))
		}
		in := decode(c.Prog[c.PC])
		c.PC++
		c.Executed++
		c.charge(p, in)
		if err := c.exec(p, mem, in); err != nil {
			return err
		}
	}
	return nil
}

// mailboxAddr is where interrupt causes are delivered. It sits in
// the low MMIO page so programs can reach it with a single LI.
const mailboxAddr uint32 = 0x700

// charge applies the timing model to one instruction.
func (c *CPU) charge(p *core.Proc, in instruction) {
	var b timing.Block
	b.Instr = 1
	switch in.Op {
	case opLd:
		b.Loads = 1
	case opSt:
		b.Stores = 1
	case opBeq, opBne, opBlt, opJmp:
		b.Branches = 1
	case opMul:
		b.Mults = 1
	}
	c.est.Charge(p, b)
}

// exec executes one decoded instruction.
func (c *CPU) exec(p *core.Proc, mem *core.Memory, in instruction) error {
	r := &c.Regs
	switch in.Op {
	case opNop:
	case opHalt:
		c.Halted = true
	case opLi:
		r[in.Rd] = uint32(in.Imm)
	case opLui:
		r[in.Rd] = uint32(in.Imm) << immBits
	case opMov:
		r[in.Rd] = r[in.Rs]
	case opAdd:
		r[in.Rd] = r[in.Rs] + r[in.Rt]
	case opSub:
		r[in.Rd] = r[in.Rs] - r[in.Rt]
	case opMul:
		r[in.Rd] = r[in.Rs] * r[in.Rt]
	case opAnd:
		r[in.Rd] = r[in.Rs] & r[in.Rt]
	case opOr:
		r[in.Rd] = r[in.Rs] | r[in.Rt]
	case opXor:
		r[in.Rd] = r[in.Rs] ^ r[in.Rt]
	case opShl:
		r[in.Rd] = r[in.Rs] << (r[in.Rt] & 31)
	case opShr:
		r[in.Rd] = r[in.Rs] >> (r[in.Rt] & 31)
	case opAddi:
		r[in.Rd] = r[in.Rs] + uint32(in.Imm)
	case opLd:
		addr := r[in.Rs] + uint32(in.Imm)
		if c.MMIOBase != 0 && addr >= c.MMIOBase {
			mem.MarkSynchronous(addr)
		}
		r[in.Rd] = uint32(mem.Read(p, addr))
	case opSt:
		addr := r[in.Rs] + uint32(in.Imm)
		if c.MMIOBase != 0 && addr >= c.MMIOBase {
			mem.MarkSynchronous(addr)
		}
		mem.Write(p, addr, uint64(r[in.Rt]))
	case opBeq:
		if r[in.Rs] == r[in.Rt] {
			c.PC = uint32(in.Imm)
		}
	case opBne:
		if r[in.Rs] != r[in.Rt] {
			c.PC = uint32(in.Imm)
		}
	case opBlt:
		if int32(r[in.Rs]) < int32(r[in.Rt]) {
			c.PC = uint32(in.Imm)
		}
	case opJmp:
		c.PC = uint32(in.Imm)
	case opOut:
		p.Send(c.outPort(), signal.Word(r[in.Rs]))
	case opIn:
		for {
			m, ok := p.Recv(c.inPort())
			if !ok {
				c.Halted = true
				return nil
			}
			if w, isWord := m.Value.(signal.Word); isWord {
				r[in.Rd] = uint32(w)
				break
			}
		}
	case opWfi:
		if c.IRQPort == "" {
			return fmt.Errorf("iss: WFI without an IRQ port")
		}
		// Wait until the next interrupt arrives, then take it.
		m, ok := p.Recv(c.IRQPort)
		if !ok {
			c.Halted = true
			return nil
		}
		c.IRQs++
		if irq, isIRQ := m.Value.(signal.IRQ); isIRQ {
			p.Memory().HandlerWrite(p, mailboxAddr, uint64(irq.Line), m.Sent)
		}
	default:
		return fmt.Errorf("iss: illegal instruction %v at PC %d", in, c.PC-1)
	}
	return nil
}

// CyclesCharged reports the virtual time charged so far.
func (c *CPU) CyclesCharged() vtime.Duration {
	if c.est == nil {
		return 0
	}
	return c.est.Charged
}

// SaveState / RestoreState implement core.StateSaver. The timing
// estimator is reconstructed from ModelName on re-entry.
func (c *CPU) SaveState() ([]byte, error)  { return core.GobSave(c) }
func (c *CPU) RestoreState(b []byte) error { return core.GobRestore(c, b) }
