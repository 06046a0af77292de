package experiments

import (
	"fmt"
	"time"

	pia "repro"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// ChaosConfig drives the chaos experiment: the Table 1 remote
// word-level workload run once over a clean loopback TCP link and
// once over the same link with deterministic WAN faults injected
// underneath a resilient session layer.
type ChaosConfig struct {
	Table1Config

	// Seed fixes the whole fault schedule; the same seed reproduces
	// the same drops, duplicates, reorders, corruptions and the same
	// partition position, frame for frame.
	Seed int64

	// Faults overrides the injected fault mix. Zero value uses
	// DefaultChaosFaults(Seed).
	Faults pia.FaultConfig
	// Resilience overrides the recovery tuning. Zero value uses
	// DefaultChaosResilience().
	Resilience pia.ResilienceConfig
}

// DefaultChaosFaults is the paper-style WAN misbehaviour mix the
// chaos experiment injects: a few percent of frames dropped,
// duplicated, reordered or corrupted, sub-millisecond jitter, and one
// scripted partition/heal cycle early in the run: at the eighth frame,
// which every link reaches at any page size.
func DefaultChaosFaults(seed int64) pia.FaultConfig {
	return pia.FaultConfig{
		Seed:        seed,
		Jitter:      200 * time.Microsecond,
		DropProb:    0.03,
		DupProb:     0.02,
		ReorderProb: 0.02,
		CorruptProb: 0.02,
		Partitions:  []pia.FaultPartition{{AtFrame: 8, Heal: 15 * time.Millisecond}},
	}
}

// DefaultChaosResilience tunes the session layer for the injected
// fault rate: a fast heartbeat so dropped tails are detected quickly,
// a short handshake timeout so an eaten hello costs milliseconds
// rather than the 5s WAN default, and a short reconnect backoff so
// the run spends its wall clock simulating rather than waiting.
func DefaultChaosResilience() pia.ResilienceConfig {
	return pia.ResilienceConfig{
		Heartbeat:        20 * time.Millisecond,
		HandshakeTimeout: 250 * time.Millisecond,
		RetryBase:        2 * time.Millisecond,
		RetryCap:         50 * time.Millisecond,
		RetryMax:         40,
	}
}

// ChaosRow is one leg of the chaos experiment.
type ChaosRow struct {
	Mode   string // "clean" or "faulty"
	Wall   time.Duration
	Virt   vtime.Duration // virtual load time — must match across legs
	Drives int            // DMA link drives — must match across legs

	// Fault-injection totals summed over every shaped link (faulty
	// leg only).
	Faults pia.FaultStats
	// Session recovery counters summed over both nodes (faulty leg
	// only).
	Resil pia.ResilienceStats
}

// Injected counts the faults that actually fired.
func (r ChaosRow) Injected() int64 {
	return r.Faults.Dropped + r.Faults.Duplicated + r.Faults.Reordered + r.Faults.Corrupted + r.Faults.Cuts
}

// Chaos runs the Table 1 remote word-level workload clean and then
// under deterministic faults with session recovery, and checks the
// paper-level invariant: the simulation's virtual-time result and
// link-drive count are identical — WAN misbehaviour costs wall-clock
// time, never simulation correctness. It also re-derives every
// link's fault schedule from (seed, link name) and verifies the
// digest, so the run is provably the scheduled one.
func Chaos(c ChaosConfig) (clean, faulty ChaosRow, err error) {
	ref, err := Remote(c.Table1Config, proto.LevelWord)
	if err != nil {
		return clean, faulty, fmt.Errorf("chaos: clean leg: %w", err)
	}
	clean = ChaosRow{Mode: "clean", Wall: ref.Wall, Virt: ref.Virt, Drives: ref.Drives}
	if faulty, err = c.withDefaults().faultyLeg(); err != nil {
		return clean, faulty, fmt.Errorf("chaos: faulty leg: %w", err)
	}
	return clean, faulty, faulty.outcome().against(ref.outcome(), "chaos: the faulty leg")
}

// withDefaults fills the fault mix and the recovery tuning left zero.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if !c.Faults.Enabled() {
		c.Faults = DefaultChaosFaults(c.Seed)
	}
	if !c.Resilience.Enabled() {
		c.Resilience = DefaultChaosResilience()
	}
	return c
}

// faultyStand builds the Table 1 remote word-level stand with loads
// page loads, its cross-node link shaped by c's faults and recovered
// by the session layer.
func (c ChaosConfig) faultyStand(loads int) (*stand, error) {
	cfg := c.wubbleu(proto.LevelWord)
	cfg.Loads = loads
	return newStand(cfg, true, func(b *pia.SystemBuilder) {
		b.SetWorkers(c.Workers).SetFaults(c.Faults).SetResilience(c.Resilience)
	})
}

func (r ChaosRow) outcome() outcome { return outcome{virt: r.Virt, drives: int64(r.Drives)} }

// faultyLeg runs the faulty stand's one load and verifies every link's
// fault schedule.
func (c ChaosConfig) faultyLeg() (ChaosRow, error) {
	row := ChaosRow{Mode: "faulty"}
	s, err := c.faultyStand(1)
	if err != nil {
		return row, err
	}
	defer s.sys.Close()
	wall, res, err := s.load()
	if err != nil {
		return row, err
	}
	row.Wall, row.Virt, row.Drives = wall, res.LoadVirt[0], res.DMADrives
	for _, n := range s.nodes {
		for _, l := range n.FaultLinks() {
			if err := l.VerifyDigest(); err != nil {
				return row, err
			}
			row.Faults.Add(l.Stats())
		}
		row.Resil.Add(n.ResilienceStats())
	}
	return row, nil
}
