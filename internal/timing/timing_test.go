package timing

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/vtime"
)

func TestCycles(t *testing.T) {
	m := &Model{Name: "t", ClockHz: 1_000_000_000, CyclesPerInstr: 1, LoadPenalty: 2, StorePenalty: 1, BranchPenalty: 3, MultPenalty: 4}
	b := Block{Instr: 10, Loads: 2, Stores: 1, Branches: 1, Mults: 1}
	if got := m.cycles(b); got != 10+4+1+3+4 {
		t.Fatalf("Cycles = %d, want 22", got)
	}
	// At 1 GHz, 22 cycles = 22 ticks.
	if got := m.cost(b); got != 22 {
		t.Fatalf("Cost = %v, want 22", got)
	}
}

func TestCostScalesWithClock(t *testing.T) {
	slow := &Model{Name: "slow", ClockHz: 25_000_000, CyclesPerInstr: 1}
	fast := &Model{Name: "fast", ClockHz: 100_000_000, CyclesPerInstr: 1}
	b := Block{Instr: 100}
	if slow.cost(b) != 4*fast.cost(b) {
		t.Fatalf("4x clock should be 4x cheaper: %v vs %v", slow.cost(b), fast.cost(b))
	}
}

func TestValidate(t *testing.T) {
	bad := &Model{Name: "bad", ClockHz: 0, CyclesPerInstr: 1}
	if bad.Validate() == nil {
		t.Fatal("zero clock accepted")
	}
	bad2 := &Model{Name: "bad2", ClockHz: 1, CyclesPerInstr: 0}
	if bad2.Validate() == nil {
		t.Fatal("zero CPI accepted")
	}
	if _, err := NewEstimator(bad); err == nil {
		t.Fatal("NewEstimator accepted invalid model")
	}
}

func TestLibraryModelsValid(t *testing.T) {
	for _, m := range []*Model{I960, EmbeddedCPU, CellularASIC, ServerCPU} {
		if err := m.Validate(); err != nil {
			t.Errorf("library model %s invalid: %v", m.Name, err)
		}
	}
}

func TestEstimatorCharges(t *testing.T) {
	est, err := NewEstimator(EmbeddedCPU)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSubsystem("tm")
	var final vtime.Time
	b := core.BehaviorFunc(func(p *core.Proc) error {
		est.Charge(p, Block{Instr: 50})
		est.ChargeCycles(p, 50)
		final = p.Time()
		return nil
	})
	s.NewComponent("c", b)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	// 100 cycles at 50 MHz = 2000 ns.
	if final != 2000 {
		t.Fatalf("local time = %v, want 2000ns", final)
	}
	if est.Charged != 2000 {
		t.Fatalf("Charged = %v, want 2000ns", est.Charged)
	}
}

// Property: cost is monotone in every field of the block.
func TestCostMonotoneProperty(t *testing.T) {
	m := EmbeddedCPU
	f := func(i, l, s, br, mu uint8, extra uint8) bool {
		b := Block{Instr: int(i), Loads: int(l), Stores: int(s), Branches: int(br), Mults: int(mu)}
		bigger := b
		bigger.Instr += int(extra)
		return m.cost(bigger) >= m.cost(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
