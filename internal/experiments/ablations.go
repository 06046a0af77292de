package experiments

import (
	"bytes"
	"fmt"
	"time"

	pia "repro"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/vtime"
)

// PolicyRow is one point of the conservative-vs-optimistic sweep:
// the §2.2.2 trade-off ("if there isn't much communication expected
// between subsystems, it is often reasonable for a subsystem to
// continue as if there were no asynchronous messages").
type PolicyRow struct {
	Policy     string
	Period     vtime.Duration // message spacing: small = dense traffic
	Wall       time.Duration
	Stalls     int64
	Restores   int64
	Stragglers int64
}

// PolicySweep runs a fixed message count at several densities under
// both channel policies. The optimistic arm lets the consuming
// subsystem race ahead before the producer starts (the situation
// optimism gambles on), so its rollback costs are actually exercised:
// dense traffic means many stragglers and restores, sparse traffic
// few.
func PolicySweep(messages, busySteps int, periods []vtime.Duration) ([]PolicyRow, error) {
	var out []PolicyRow
	for _, period := range periods {
		for _, pol := range []pia.Policy{pia.Conservative, pia.Optimistic} {
			res, err := policyLeg(pol, messages, busySteps, period)
			if err != nil {
				return nil, err
			}
			out = append(out, PolicyRow{Policy: res.Policy, Period: period, Wall: res.Wall,
				Stalls: res.Stalls, Restores: res.Restores, Stragglers: res.Stragglers})
		}
	}
	return out, nil
}

// CheckpointRow is one point of the checkpoint-interval trade-off:
// frequent checkpoints cost capture time, sparse ones cost replayed
// work per rollback.
type CheckpointRow struct {
	Interval    vtime.Duration
	Checkpoints int64
	ReplaySteps int64 // scheduler steps re-executed after the rollback
	Wall        time.Duration
}

// CheckpointInterval runs a single-subsystem workload, rolls back to
// a fixed point from the end, and measures the replay cost under
// several auto-checkpoint intervals.
func CheckpointInterval(workSteps int, intervals []vtime.Duration) ([]CheckpointRow, error) {
	var out []CheckpointRow
	for _, iv := range intervals {
		src := &burster{Count: workSteps, Period: 1}
		dst := &sink{}
		s, err := pia.NewSystem("ck").
			AddComponent("src", "ck", src, "out").
			AddComponent("dst", "ck", dst, "in").
			AddNet("w", 0, "src.out", "dst.in").
			BuildSubsystem("ck")
		if err != nil {
			return nil, err
		}
		s.SetAutoCheckpoint(iv)
		s.SetCheckpointRetention(1_000_000)
		start := time.Now()
		if err := s.Run(vtime.Time(workSteps) - 1); err != nil {
			return nil, err
		}
		stepsBefore := s.Stats().Steps
		// Roll back to the 70% point: coarse intervals overshoot the
		// target (rolling further back than necessary) and pay more
		// replayed work; fine intervals land close to it.
		target := vtime.Time(workSteps * 7 / 10)
		s.RequestRollback(target)
		if err := s.Run(vtime.Infinity); err != nil {
			return nil, err
		}
		row := CheckpointRow{
			Interval:    iv,
			Checkpoints: s.Stats().Checkpoints,
			ReplaySteps: s.Stats().Steps - stepsBefore,
			Wall:        time.Since(start),
		}
		if len(dst.Got) != workSteps || !ordered(dst.Got) {
			return nil, fmt.Errorf("checkpoint interval %v: replay corrupted (%d delivered)", iv, len(dst.Got))
		}
		out = append(out, row)
	}
	return out, nil
}

// IncrementalRow compares full and incremental checkpoint storage —
// the paper's stated future work ("changing the checkpoint mechanism
// to use incremental rather than total checkpoints").
type IncrementalRow struct {
	Mode        string
	Checkpoints int
	TotalBytes  int
}

// IncrementalCheckpoint measures checkpoint storage with a mostly
// idle large-state component, where incremental mode shines.
func IncrementalCheckpoint(stateKB, checkpoints int) ([]IncrementalRow, error) {
	var out []IncrementalRow
	for _, incr := range []bool{false, true} {
		big := &bigState{Payload: make([]byte, stateKB*1024)}
		tick := &burster{Count: checkpoints * 10, Period: 10}
		s, err := pia.NewSystem("incr").
			AddComponent("big", "incr", big).
			AddComponent("tick", "incr", tick, "out").
			AddNet("void", 0, "tick.out").
			BuildSubsystem("incr")
		if err != nil {
			return nil, err
		}
		s.SetIncrementalCheckpoints(incr)
		s.SetAutoCheckpoint(10)
		s.SetCheckpointRetention(1_000_000)
		if err := s.Run(vtime.Infinity); err != nil {
			return nil, err
		}
		total := 0
		for _, cs := range s.Checkpoints() {
			total += cs.Bytes()
		}
		mode := "full"
		if incr {
			mode = "incremental"
		}
		out = append(out, IncrementalRow{Mode: mode, Checkpoints: len(s.Checkpoints()), TotalBytes: total})
	}
	return out, nil
}

// bigState is a checkpointable component with a large, unchanging
// state, saved as the payload's bytes (see burster.SaveState).
type bigState struct {
	Payload []byte
}

func (b *bigState) Run(p *core.Proc) error {
	for {
		if _, ok := p.Recv(); !ok {
			return nil
		}
	}
}

func (b *bigState) SaveState() ([]byte, error)   { return bytes.Clone(b.Payload), nil }
func (b *bigState) RestoreState(bs []byte) error { b.Payload = bytes.Clone(bs); return nil }

// SnapshotRow is one point of the Chandy-Lamport scaling measurement.
type SnapshotRow struct {
	Subsystems int
	Wall       time.Duration
	InFlight   int
}

// SnapshotScale takes a distributed snapshot across a chain of n
// subsystems carrying live traffic and measures completion time.
func SnapshotScale(ns []int) ([]SnapshotRow, error) {
	var out []SnapshotRow
	for _, n := range ns {
		if n < 2 {
			return nil, fmt.Errorf("snapshot scale needs >= 2 subsystems")
		}
		b := pia.NewSystem("snapchain")
		// A chain: stage i forwards to stage i+1.
		src := &burster{Count: 50, Period: 20}
		b.AddComponent("c0", sub(0), src, "out")
		for i := 1; i < n; i++ {
			fw := &forwarder{}
			b.AddComponent(fmt.Sprintf("c%d", i), sub(i), fw, "in", "out")
			b.AddNet(fmt.Sprintf("w%d", i-1), 0,
				fmt.Sprintf("c%d.out", i-1), fmt.Sprintf("c%d.in", i))
		}
		term := &sink{}
		b.AddComponent("end", sub(n-1), term, "in")
		b.AddNet("wend", 0, fmt.Sprintf("c%d.out", n-1), "end.in")
		b.SetDefaultChannel(pia.Conservative, pia.LinkModel{Latency: 5, PerMessage: 1})
		sim, err := b.BuildLocal()
		if err != nil {
			return nil, err
		}
		done := make(chan *snapshot.Snapshot, n)
		for _, name := range sim.SubsystemNames() {
			sim.Agents[name].OnComplete = func(s *snapshot.Snapshot) { done <- s }
		}
		start := time.Now()
		sim.Agents[sub(0)].Initiate()
		if err := sim.Run(pia.Time(pia.Milliseconds(10))); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		inflight := 0
		complete := 0
	drain:
		for {
			select {
			case s := <-done:
				complete++
				inflight += s.Messages()
			default:
				break drain
			}
		}
		sim.Close()
		if complete != n {
			return nil, fmt.Errorf("snapshot scale %d: %d/%d subsystems completed", n, complete, n)
		}
		out = append(out, SnapshotRow{Subsystems: n, Wall: wall, InFlight: inflight})
	}
	return out, nil
}

func sub(i int) string { return fmt.Sprintf("ss%02d", i) }

// forwarder relays integers from "in" to "out" with one tick of
// processing.
type forwarder struct {
	N int
}

func (f *forwarder) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		p.Advance(1)
		f.N++
		p.Send("out", m.Value)
	}
}

func (f *forwarder) SaveState() ([]byte, error)  { return core.GobSave(f) }
func (f *forwarder) RestoreState(b []byte) error { return core.GobRestore(f, b) }

// MemsyncRow compares interrupt-consistency strategies (§2.1.1).
type MemsyncRow struct {
	Mode       string
	Violations int64
	Restores   int64
	SyncMarked int
	Wall       time.Duration
}

// Memsync runs a processor whose main loop reads shared addresses
// while a device raises interrupts writing them, once with static
// marking and once optimistically with dynamic marking + rewind.
func Memsync(reads, irqs int) ([]MemsyncRow, error) {
	var out []MemsyncRow
	for _, static := range []bool{true, false} {
		cpu := &msCPU{Reads: reads, Static: static}
		dev := &burstIRQ{Count: irqs, Period: vtime.Duration(reads) * 10 / vtime.Duration(irqs+1)}
		s, err := pia.NewSystem("memsync").
			AddComponent("cpu", "memsync", cpu, "irq").
			AddComponent("dev", "memsync", dev, "irq").
			AddNet("irqline", 0, "cpu.irq", "dev.irq").
			BuildSubsystem("memsync")
		if err != nil {
			return nil, err
		}
		if _, err := s.CaptureNow(""); err != nil {
			return nil, err
		}
		s.SetAutoCheckpoint(vtime.Duration(reads))
		s.SetCheckpointRetention(1_000_000)
		start := time.Now()
		if err := s.Run(vtime.Infinity); err != nil {
			return nil, err
		}
		mem := s.Component("cpu").Memory()
		mode := "static"
		if !static {
			mode = "optimistic"
		}
		out = append(out, MemsyncRow{
			Mode:       mode,
			Violations: mem.Violations,
			Restores:   s.Stats().Restores,
			SyncMarked: mem.SyncCount(),
			Wall:       time.Since(start),
		})
	}
	return out, nil
}

// msCPU reads a shared address in a loop; its interrupt handler
// writes it.
type msCPU struct {
	Reads  int
	Static bool
	Sum    uint64
	I      int
}

const msAddr uint32 = 0x2000

func (c *msCPU) Run(p *core.Proc) error {
	mem := p.Memory()
	if c.Static {
		mem.MarkSynchronous(msAddr)
	}
	p.SetInterruptHandler("irq", func(p *core.Proc, m core.Msg) {
		mem.HandlerWrite(p, msAddr, uint64(p.Time()), m.Sent)
	})
	for ; c.I < c.Reads; c.I++ {
		p.Advance(10)
		c.Sum += mem.Read(p, msAddr)
	}
	p.DrainInterrupts()
	return nil
}

func (c *msCPU) SaveState() ([]byte, error)  { return core.GobSave(c) }
func (c *msCPU) RestoreState(b []byte) error { return core.GobRestore(c, b) }

// burstIRQ raises interrupts periodically.
type burstIRQ struct {
	Fired, Count int
	Period       vtime.Duration
}

func (d *burstIRQ) Run(p *core.Proc) error {
	for ; d.Fired < d.Count; d.Fired++ {
		p.Delay(d.Period)
		p.Send("irq", d.Fired)
	}
	return nil
}

func (d *burstIRQ) SaveState() ([]byte, error)  { return core.GobSave(d) }
func (d *burstIRQ) RestoreState(b []byte) error { return core.GobRestore(d, b) }
