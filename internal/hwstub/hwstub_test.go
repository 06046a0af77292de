package hwstub

import (
	"testing"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// pulseLogic raises an interrupt on line 1 every `period` ticks, and
// echoes register 0 into register 1 (doubled).
func pulseLogic(period vtime.Duration) Logic {
	return func(regs map[uint32]uint32, from, to vtime.Time) []Interrupt {
		var out []Interrupt
		first := (from/vtime.Time(period) + 1) * vtime.Time(period)
		for t := first; t <= to; t += vtime.Time(period) {
			out = append(out, Interrupt{Line: 1, At: t, Data: regs[0]})
		}
		regs[1] = regs[0] * 2
		return out
	}
}

func TestSimBoardBasics(t *testing.T) {
	b := NewSimBoard(pulseLogic(10))
	if err := b.SetTime(100); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadTime(); got != 100 {
		t.Fatalf("ReadTime = %v", got)
	}
	b.WriteReg(0, 21)
	irqs, err := b.RunFor(25)
	if err != nil {
		t.Fatal(err)
	}
	// Window (100,125]: pulses at 110, 120.
	if len(irqs) != 2 || irqs[0].At != 110 || irqs[1].At != 120 {
		t.Fatalf("irqs = %v", irqs)
	}
	if v, _ := b.ReadReg(1); v != 42 {
		t.Fatalf("reg1 = %d", v)
	}
	if _, err := b.RunFor(-1); err == nil {
		t.Fatal("negative window accepted")
	}
	if err := b.Stall(); err != nil || !b.Stalled() {
		t.Fatal("Stall broken")
	}
	if _, err := b.RunFor(1); err != nil {
		t.Fatal(err)
	}
	if b.Stalled() {
		t.Fatal("RunFor did not clear stall")
	}
}

func TestSimBoardBuffering(t *testing.T) {
	b := NewSimBoard(nil)
	b.Buffer(Interrupt{Line: 3, At: 7})
	got, _ := b.Pending()
	if len(got) != 1 || got[0].Line != 3 {
		t.Fatalf("Pending = %v", got)
	}
	if again, _ := b.Pending(); len(again) != 0 {
		t.Fatal("Pending did not drain")
	}
	// Buffered interrupts ride along with the next RunFor.
	b.Buffer(Interrupt{Line: 4, At: 9})
	irqs, _ := b.RunFor(5)
	if len(irqs) != 1 || irqs[0].Line != 4 {
		t.Fatalf("RunFor did not deliver buffered irq: %v", irqs)
	}
}

// irqCollector receives IRQ messages.
type irqCollector struct {
	Lines []int
	Times []vtime.Time
}

func (c *irqCollector) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("irq")
		if !ok {
			return nil
		}
		if irq, isIRQ := m.Value.(signal.IRQ); isIRQ {
			c.Lines = append(c.Lines, irq.Line)
			c.Times = append(c.Times, m.Time)
		}
	}
}

func (c *irqCollector) SaveState() ([]byte, error)  { return core.GobSave(c) }
func (c *irqCollector) RestoreState(b []byte) error { return core.GobRestore(c, b) }

func buildHWSim(t *testing.T, dev Device) (*core.Subsystem, *irqCollector, *Adapter) {
	t.Helper()
	s := core.NewSubsystem("hw")
	ad := &Adapter{Dev: dev, Quantum: 10, Horizon: 100}
	hc, _ := s.NewComponent("board", ad, "bus", "irq")
	col := &irqCollector{}
	cc, _ := s.NewComponent("cpu", col, "irq")
	nIRQ, _ := s.NewNet("irqline", 0)
	s.Connect(nIRQ, hc.Port("irq"), cc.Port("irq"))
	nBus, _ := s.NewNet("bus", 0)
	s.Connect(nBus, hc.Port("bus"))
	return s, col, ad
}

func TestAdapterForwardsInterrupts(t *testing.T) {
	b := NewSimBoard(pulseLogic(25))
	s, col, ad := buildHWSim(t, b)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	s.Teardown()
	// Horizon 100: pulses at 25, 50, 75, 100.
	if len(col.Lines) != 4 {
		t.Fatalf("forwarded %d interrupts (%v), want 4", len(col.Lines), col.Times)
	}
	if ad.Forwarded != 4 {
		t.Fatalf("Forwarded = %d", ad.Forwarded)
	}
	// Hardware and simulator time stayed in lock step: each IRQ is
	// delivered within one quantum of its raise time.
	for i, at := range col.Times {
		raise := vtime.Time(25 * (i + 1))
		if at < raise || at > raise.Add(10) {
			t.Fatalf("irq %d delivered at %v, raised %v (quantum 10)", i, at, raise)
		}
	}
	if !b.Stalled() {
		t.Fatal("adapter did not stall the hardware at the horizon")
	}
}

func TestAdapterBusWrites(t *testing.T) {
	b := NewSimBoard(nil)
	s := core.NewSubsystem("bus")
	ad := &Adapter{Dev: b, Quantum: 10, Horizon: 200}
	hc, _ := s.NewComponent("board", ad, "bus", "irq")
	drv := core.BehaviorFunc(func(p *core.Proc) error {
		p.Delay(15)
		p.Send("bus", signal.BusCycle{Addr: 5, Data: 77, Write: true})
		return nil
	})
	dc, _ := s.NewComponent("drv", drv, "bus")
	n, _ := s.NewNet("bus", 0)
	s.Connect(n, hc.Port("bus"), dc.Port("bus"))
	nIRQ, _ := s.NewNet("irq", 0)
	s.Connect(nIRQ, hc.Port("irq"))
	if err := s.Run(300); err != nil {
		t.Fatal(err)
	}
	s.Teardown()
	if v, _ := b.ReadReg(5); v != 77 {
		t.Fatalf("register write did not reach the device: reg5=%d", v)
	}
}

func TestRemoteDevice(t *testing.T) {
	b := NewSimBoard(pulseLogic(25))
	srv, addr, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	if err := dev.SetTime(50); err != nil {
		t.Fatal(err)
	}
	if got, err := dev.ReadTime(); err != nil || got != 50 {
		t.Fatalf("remote ReadTime = %v, %v", got, err)
	}
	if err := dev.WriteReg(9, 123); err != nil {
		t.Fatal(err)
	}
	if v, err := dev.ReadReg(9); err != nil || v != 123 {
		t.Fatalf("remote reg = %d, %v", v, err)
	}
	irqs, err := dev.RunFor(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(irqs) != 1 || irqs[0].At != 75 {
		t.Fatalf("remote RunFor irqs = %v", irqs)
	}
	if err := dev.Stall(); err != nil {
		t.Fatal(err)
	}
	if !b.Stalled() {
		t.Fatal("remote stall did not reach the board")
	}
	if _, err := dev.Pending(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteDeviceInSimulation(t *testing.T) {
	// The full §2.3 scenario: a remotely located device patched into
	// a simulated circuit through the stub.
	b := NewSimBoard(pulseLogic(25))
	srv, addr, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	s, col, _ := buildHWSim(t, dev)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	s.Teardown()
	if len(col.Lines) != 4 {
		t.Fatalf("remote hardware forwarded %d interrupts, want 4", len(col.Lines))
	}
}

func TestRemoteDeviceErrors(t *testing.T) {
	b := NewSimBoard(nil)
	srv, addr, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := dev.RunFor(-5); err == nil {
		t.Fatal("remote negative window accepted")
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}
