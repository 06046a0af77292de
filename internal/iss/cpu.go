package iss

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/timing"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// CPU is the interpreter: a checkpointable core.Behavior executing a
// program. Its state is its progress — the architectural state, the
// counters and the time charged — so the component rolls back and
// resumes exactly; the program and configuration are the description's.
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

	// parked reports that Run yielded inside the instruction before PC
	// (an IN or WFI waiting for its input, a synchronous load or store
	// waiting for subsystem time): Run re-entered after a restore
	// finishes that instruction before it fetches the next.
	parked bool
	est    timing.Estimator // Run sets the model; Charged is progress
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
	if err := m.Validate(); err != nil {
		return err
	}
	c.est.Model = m
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
		at := c.PC
		if c.parked {
			at--
		}
		if int(at) >= len(c.Prog) {
			return fmt.Errorf("iss: PC %d past end of program (%d words)", at, len(c.Prog))
		}
		in := decode(c.Prog[at])
		if !c.parked {
			c.PC++
			c.Executed++
			c.charge(p, in)
			c.parked = true
		}
		err := c.exec(p, mem, in)
		c.parked = false
		if err != nil {
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
func (c *CPU) CyclesCharged() vtime.Duration { return c.est.Charged }

// SaveState writes PC and the registers in four bytes each, a flags
// byte (halted 1, parked 2), then the counters and the time charged.
func (c *CPU) SaveState() ([]byte, error) {
	b := binary.BigEndian.AppendUint32(nil, c.PC)
	for _, r := range c.Regs {
		b = binary.BigEndian.AppendUint32(b, r)
	}
	var flags byte
	if c.Halted {
		flags |= 1
	}
	if c.parked {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, c.Executed)
	b = binary.AppendVarint(b, c.IRQs)
	return binary.AppendVarint(b, int64(c.est.Charged)), nil
}

func (c *CPU) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	c.PC = f.U32()
	for i := range c.Regs {
		c.Regs[i] = f.U32()
	}
	flags := f.Byte()
	if flags > 3 {
		f.Failf("iss: CPU state flags %#x", flags)
	}
	c.Halted, c.parked = flags&1 != 0, flags&2 != 0
	c.Executed, c.IRQs, c.est.Charged = f.Varint(), f.Varint(), vtime.Duration(f.Varint())
	return f.Done()
}
