// Hardware in the loop: a simulated FPGA board served by a remote
// hardware server (§2.3) is patched into a co-simulation through the
// stub interface — set/read time, run-for-a-window, stall, buffered
// interrupts. The simulated processor polls the board's registers
// and services its interrupts, with hardware and simulator clocks
// kept in lock step.
//
//	go run ./examples/hwinloop
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	pia "repro"
	"repro/internal/signal"
)

// monitor services interrupts from the board.
type monitor struct {
	IRQs []int64
}

func (m *monitor) Run(p *pia.Proc) error {
	for {
		msg, ok := p.Recv("irq")
		if !ok {
			return nil
		}
		if _, isIRQ := msg.Value.(signal.IRQ); isIRQ {
			m.IRQs = append(m.IRQs, int64(msg.Time))
		}
	}
}

// maxIRQs caps the interrupts a monitor's state may record.
const maxIRQs = 1 << 20

// SaveState lays out the interrupt times: their count and each in turn.
func (m *monitor) SaveState() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(m.IRQs)))
	for _, t := range m.IRQs {
		b = binary.AppendVarint(b, t)
	}
	return b, nil
}

func (m *monitor) RestoreState(b []byte) error {
	f := pia.ReadFields(b)
	m.IRQs = make([]int64, f.Len(maxIRQs, 1))
	for i := range m.IRQs {
		m.IRQs[i] = f.Varint()
	}
	return f.Done()
}

func main() {
	// The "real hardware": a board whose logic raises a heartbeat
	// interrupt every 5 ms and squares whatever is in register 0.
	board := pia.NewSimBoard(func(regs map[uint32]uint32, from, to pia.Time) []pia.HWInterrupt {
		var irqs []pia.HWInterrupt
		period := pia.Time(pia.Milliseconds(5))
		first := (from/period + 1) * period
		for t := first; t <= to; t += period {
			irqs = append(irqs, pia.HWInterrupt{Line: 1, At: t})
		}
		regs[1] = regs[0] * regs[0]
		return irqs
	})

	// Publish it on a hardware server, as if it lived in another lab.
	srv, addr, err := pia.ServeHardware(board, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("hardware server at %s\n", addr)

	dev, err := pia.DialHardware(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer dev.Close()

	adapter := &pia.HWAdapter{
		Dev:     dev,
		Quantum: pia.Milliseconds(1),
		Horizon: pia.Time(pia.Milliseconds(25)),
	}
	mon := &monitor{}
	b := pia.NewSystem("hwinloop").
		AddComponent("board", "main", adapter, "bus", "irq").
		AddComponent("cpu", "main", mon, "irq").
		AddNet("bus", 0, "board.bus").
		AddNet("irqline", 0, "board.irq", "cpu.irq")
	sim, err := b.BuildLocal()
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(pia.Time(pia.Milliseconds(30))); err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	fmt.Printf("serviced %d heartbeat interrupts from remote hardware:\n", len(mon.IRQs))
	for i, at := range mon.IRQs {
		fmt.Printf("  irq %d at %v\n", i, pia.Time(at))
	}
	hwTime, _ := dev.ReadTime()
	fmt.Printf("hardware clock: %v (adapter horizon %v, simulator ran to %v)\n",
		hwTime, adapter.Horizon, sim.Subsystem("main").Now())
}
