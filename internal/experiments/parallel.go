package experiments

import (
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/vtime"
)

// ParallelConfig scales the safe-horizon worker-pool experiment.
type ParallelConfig struct {
	// Workers lists the pool sizes to sweep; 0 is the sequential
	// scheduler and is always measured first as the reference.
	Workers []int
	// Fanout is how many service components the fan runs, each
	// sent one job a round.
	Fanout int
	// Rounds is how many rounds of jobs the source emits.
	Rounds int
	// WorkIters sizes the deterministic compute each service does
	// per job.
	WorkIters int
	// Service is the wall-clock latency each service models per job
	// (a remote-hardware probe, a co-simulator call). This is what a
	// parallel round overlaps: goroutines sleeping in a round do not
	// occupy the scheduler, so even a single-CPU host sees the
	// speedup.
	Service time.Duration
	// PageKB sizes the Table 1 cross-check legs.
	PageKB int
	// SkipTable skips the WubbleU Table 1 legs (used by unit tests).
	SkipTable bool
}

// DefaultParallelConfig is what `piabench -exp parallel` runs.
func DefaultParallelConfig() ParallelConfig {
	return ParallelConfig{
		Workers:   []int{0, 2, 4, 8},
		Fanout:    32,
		Rounds:    24,
		WorkIters: 2000,
		Service:   time.Millisecond,
		PageKB:    66,
	}
}

// ParallelRow is one leg of the sweep. Wall is the measured quantity;
// Virt, Drives and Digest are the invariants — every row must agree
// with the sequential reference bit-for-bit.
type ParallelRow struct {
	Mode      string         `json:"mode"`
	Workers   int            `json:"workers"`
	Wall      time.Duration  `json:"wall_ns"`
	Virt      vtime.Duration `json:"virtual_ns"`
	Drives    int64          `json:"drives"`
	ParRounds int64          `json:"parallel_rounds"`
	Digest    hexDigest      `json:"drive_digest"`
	Speedup   float64        `json:"speedup"`
}

// hexDigest is a drive digest as the experiments report it: a uint64 that
// marshals as the 16 hex digits the BENCH files hold.
type hexDigest uint64

// MarshalText renders the digest as %016x.
func (d hexDigest) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%016x", uint64(d)), nil
}

// Parallel sweeps the worker-pool sizes over the fan-out workload and
// errors if any leg's virtual time, drive count or drive digest
// deviates from the sequential reference. Unless SkipTable is set it
// also runs the Table 1 local word-level leg sequentially and with 4
// workers and checks the same invariant on the paper's workload.
func Parallel(c ParallelConfig) ([]ParallelRow, []Table1Row, error) {
	if len(c.Workers) == 0 || c.Workers[0] != 0 {
		c.Workers = append([]int{0}, c.Workers...)
	}
	// The optimistic ablation's fan, run conservatively, its probe bus
	// as slow as the jobs feed so that no lookahead narrows a round.
	fan := OptimisticConfig{Fanout: c.Fanout, Rounds: c.Rounds, WorkIters: c.WorkIters,
		Service: c.Service, Advance: vtime.Millisecond}
	rows := make([]ParallelRow, 0, len(c.Workers))
	var ref outcome
	for i, w := range c.Workers {
		r, err := fanLeg(fan, optLookahead{Name: "feed", Delay: vtime.Millisecond}, w, 0)
		if err != nil {
			return nil, nil, err
		}
		row := ParallelRow{Mode: "sequential", Workers: w, Wall: r.Wall, Virt: r.Virt, Drives: r.Drives,
			ParRounds: r.ParRounds, Digest: r.Digest, Speedup: 1}
		if w > 0 {
			row.Mode = fmt.Sprintf("%d workers", w)
		}
		if i == 0 {
			ref = r.outcome()
		} else if err := r.outcome().against(ref, "parallel leg "+row.Mode); err != nil {
			return nil, nil, err
		} else if rows[0].Wall > 0 {
			row.Speedup = float64(rows[0].Wall) / float64(row.Wall)
		}
		rows = append(rows, row)
	}

	var table []Table1Row
	if !c.SkipTable {
		cfg := Table1Config{PageSize: c.PageKB * 1024, Images: 4}
		seq, err := Local(cfg, proto.LevelWord)
		if err != nil {
			return nil, nil, err
		}
		seq.Location = "local (sequential)"
		cfg.Workers = 4
		par, err := Local(cfg, proto.LevelWord)
		if err != nil {
			return nil, nil, err
		}
		par.Location = "local (4 workers)"
		if err := par.outcome().against(seq.outcome(), "Table 1 local leg with 4 workers"); err != nil {
			return nil, nil, err
		}
		table = []Table1Row{seq, par}
	}
	return rows, table, nil
}
