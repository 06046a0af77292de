package core

import (
	"testing"

	"repro/internal/vtime"
)

// memCPU models a processor whose main computation reads a shared
// address while a device raises interrupts that write it.
type memCPU struct {
	Reads     []uint64
	ReadTimes []vtime.Time
	IRQs      int
	Sync      bool // statically mark the address synchronous
}

const sharedAddr uint32 = 0x1000

func (c *memCPU) Run(p *Proc) error {
	mem := p.Memory()
	if c.Sync {
		mem.MarkSynchronous(sharedAddr)
	}
	p.SetInterruptHandler("irq", func(p *Proc, m Msg) {
		c.IRQs++
		mem.HandlerWrite(p, sharedAddr, uint64(m.Value.(int)), m.Sent)
	})
	for i := 0; i < 5; i++ {
		p.Advance(10)
		v := mem.Read(p, sharedAddr)
		c.Reads = append(c.Reads, v)
		c.ReadTimes = append(c.ReadTimes, p.Time())
	}
	// Take any interrupt that is still pending.
	p.DrainInterrupts()
	return nil
}

func (c *memCPU) SaveState() ([]byte, error)  { return GobSave(c) }
func (c *memCPU) RestoreState(b []byte) error { return GobRestore(c, b) }

// irqDevice raises one interrupt at t=15 carrying the value 99.
type irqDevice struct{ Fired bool }

func (d *irqDevice) Run(p *Proc) error {
	if d.Fired {
		return nil
	}
	p.Delay(15)
	p.Send("irq", 99)
	d.Fired = true
	return nil
}

func (d *irqDevice) SaveState() ([]byte, error)  { return GobSave(d) }
func (d *irqDevice) RestoreState(b []byte) error { return GobRestore(d, b) }

func buildMemSystem(t *testing.T, static bool) (*Subsystem, *memCPU) {
	t.Helper()
	s := NewSubsystem("mem")
	cpu := &memCPU{Sync: static}
	cc, err := s.NewComponent("cpu", cpu, "irq")
	if err != nil {
		t.Fatal(err)
	}
	dev := &irqDevice{}
	dc, _ := s.NewComponent("dev", dev, "irq")
	n, _ := s.NewNet("irqline", 0)
	if err := s.Connect(n, cc.Port("irq"), dc.Port("irq")); err != nil {
		t.Fatal(err)
	}
	return s, cpu
}

func TestStaticSynchronousOrdering(t *testing.T) {
	// With the address statically marked, the read at t=20 must
	// already observe the interrupt raised at t=15.
	s, cpu := buildMemSystem(t, true)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if cpu.IRQs != 1 {
		t.Fatalf("IRQs = %d, want 1", cpu.IRQs)
	}
	// Reads at t=10 see 0; reads at t>=20 see 99.
	for i, rt := range cpu.ReadTimes {
		want := uint64(0)
		if rt >= 20 {
			want = 99
		}
		if cpu.Reads[i] != want {
			t.Fatalf("read@%v = %d, want %d (reads=%v times=%v)", rt, cpu.Reads[i], want, cpu.Reads, cpu.ReadTimes)
		}
	}
	if mem := s.Component("cpu").Memory(); mem.Violations != 0 {
		t.Fatalf("static marking should prevent violations, got %d", mem.Violations)
	}
}

func TestOptimisticViolationRewindsAndConverges(t *testing.T) {
	// Without static marking the CPU runs ahead, the late interrupt
	// write collides with earlier optimistic reads, the address is
	// dynamically marked synchronous, and the rewind re-executes
	// correctly.
	s, cpu := buildMemSystem(t, false)
	if _, err := s.CaptureNow(""); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	mem := s.Component("cpu").Memory()
	if mem.Violations == 0 {
		t.Fatal("expected at least one consistency violation")
	}
	if !mem.Synchronous(sharedAddr) {
		t.Fatal("violating address was not marked synchronous")
	}
	if st := s.Stats(); st.Restores == 0 {
		t.Fatal("no rollback happened")
	}
	// After convergence the history must be the synchronous one.
	for i, rt := range cpu.ReadTimes {
		want := uint64(0)
		if rt >= 20 {
			want = 99
		}
		if cpu.Reads[i] != want {
			t.Fatalf("read@%v = %d, want %d (reads=%v times=%v)", rt, cpu.Reads[i], want, cpu.Reads, cpu.ReadTimes)
		}
	}
	if cpu.IRQs != 1 {
		t.Fatalf("IRQs = %d, want exactly 1 after replay", cpu.IRQs)
	}
}

func TestMemoryBasics(t *testing.T) {
	s := NewSubsystem("mb")
	done := make(chan struct{})
	b := BehaviorFunc(func(p *Proc) error {
		defer close(done)
		mem := p.Memory()
		mem.Write(p, 1, 10)
		mem.Write(p, 2, 20)
		if mem.Read(p, 1) != 10 || mem.Read(p, 2) != 20 || mem.Read(p, 3) != 0 {
			t.Error("memory contents wrong")
		}
		mem.MarkSynchronous(7, 8)
		if mem.SyncCount() != 2 || !mem.Synchronous(7) || mem.Synchronous(1) {
			t.Error("sync marking wrong")
		}
		return nil
	})
	s.NewComponent("c", b)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestHandlerWriteNoViolationWhenNoLaterRead(t *testing.T) {
	s := NewSubsystem("ok")
	b := BehaviorFunc(func(p *Proc) error {
		mem := p.Memory()
		p.Advance(5)
		_ = mem.Read(p, 9) // read at t=5
		// Interrupt raised later than the read: no violation.
		if mem.HandlerWrite(p, 9, 1, 7) {
			t.Error("unexpected violation")
		}
		if mem.Read(p, 9) != 1 {
			t.Error("handler write lost")
		}
		return nil
	})
	s.NewComponent("c", b)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
}
