// Package timing implements Pia's basic-block timing estimation.
//
// Pia characterizes a specific processor by its timing characteristics
// in the form of a basic-block timing estimator: timing estimates are
// embedded in the (simulated) source code, and when the simulator
// encounters one it updates the component's version of virtual time.
// The paper performed the estimation by hand; this package provides
// the models such hand estimates plug into, plus a small library of
// representative embedded processors.
package timing

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vtime"
)

// Block describes the instruction mix of one basic block.
type Block struct {
	Instr    int // total instructions (covers simple ALU ops)
	Loads    int // memory loads
	Stores   int // memory stores
	Branches int // taken branches
	Mults    int // multiply/divide class ops
}

// Model is a processor timing characterization: a clock and per-class
// cycle costs.
type Model struct {
	Name    string
	ClockHz int64

	// Cycle costs per instruction class. Instr counts every
	// instruction once; the class fields add penalty cycles on top.
	CyclesPerInstr int64
	LoadPenalty    int64
	StorePenalty   int64
	BranchPenalty  int64
	MultPenalty    int64
}

// Validate reports configuration errors.
func (m *Model) Validate() error {
	if m.ClockHz <= 0 {
		return fmt.Errorf("timing: model %q has non-positive clock", m.Name)
	}
	if m.CyclesPerInstr <= 0 {
		return fmt.Errorf("timing: model %q has non-positive base CPI", m.Name)
	}
	return nil
}

// cycles returns the estimated cycle count for a basic block.
func (m *Model) cycles(b Block) int64 {
	c := int64(b.Instr) * m.CyclesPerInstr
	c += int64(b.Loads) * m.LoadPenalty
	c += int64(b.Stores) * m.StorePenalty
	c += int64(b.Branches) * m.BranchPenalty
	c += int64(b.Mults) * m.MultPenalty
	if c < 0 {
		c = 0
	}
	return c
}

// cost converts a basic block into virtual time on this processor.
// One tick is one nanosecond, so cost = cycles / (GHz).
func (m *Model) cost(b Block) vtime.Duration {
	cycles := m.cycles(b)
	// ticks = cycles * 1e9 / ClockHz, computed without overflow for
	// realistic cycle counts.
	return vtime.Duration(cycles * int64(vtime.Second) / m.ClockHz)
}

// cyclesCost converts a raw cycle count into virtual time.
func (m *Model) cyclesCost(cycles int64) vtime.Duration {
	return vtime.Duration(cycles * int64(vtime.Second) / m.ClockHz)
}

// Estimator charges basic-block costs against a component's local
// time — the runtime half of the embedded annotations.
type Estimator struct {
	Model *Model
	// Charged accumulates total charged virtual time (diagnostics).
	Charged vtime.Duration
}

// NewEstimator builds an estimator for the model.
func NewEstimator(m *Model) (*Estimator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{Model: m}, nil
}

// Charge advances the component's local time by the block's cost.
// This is the call sites compiled from "timing estimates embedded in
// the source code" make.
func (e *Estimator) Charge(p *core.Proc, b Block) {
	d := e.Model.cost(b)
	e.Charged += d
	p.Advance(d)
}

// ChargeCycles advances local time by a raw cycle count.
func (e *Estimator) ChargeCycles(p *core.Proc, cycles int64) {
	d := e.Model.cyclesCost(cycles)
	e.Charged += d
	p.Advance(d)
}

// Library of representative processor characterizations. Values are
// plausible for the period's parts; experiments only depend on their
// relative shape.
var (
	// I960 approximates the Intel i960 embedded processor the paper's
	// remote evaluation discussion mentions: ~33 MHz, simple
	// pipeline.
	I960 = &Model{
		Name:           "i960",
		ClockHz:        33_000_000,
		CyclesPerInstr: 1,
		LoadPenalty:    2,
		StorePenalty:   1,
		BranchPenalty:  2,
		MultPenalty:    4,
	}

	// EmbeddedCPU is a generic mid-1990s embedded RISC at 50 MHz —
	// the WubbleU handheld's main processor.
	EmbeddedCPU = &Model{
		Name:           "embedded-risc",
		ClockHz:        50_000_000,
		CyclesPerInstr: 1,
		LoadPenalty:    1,
		StorePenalty:   1,
		BranchPenalty:  1,
		MultPenalty:    3,
	}

	// CellularASIC is the fixed-function cellular-modem chip: one
	// operation per clock at 20 MHz.
	CellularASIC = &Model{
		Name:           "cellular-asic",
		ClockHz:        20_000_000,
		CyclesPerInstr: 1,
	}

	// ServerCPU is the dedicated server's workstation-class CPU
	// (200 MHz Pentium Pro class, as in the paper's testbed).
	ServerCPU = &Model{
		Name:           "server-cpu",
		ClockHz:        200_000_000,
		CyclesPerInstr: 1,
		LoadPenalty:    1,
		StorePenalty:   1,
		BranchPenalty:  1,
		MultPenalty:    2,
	}
)
