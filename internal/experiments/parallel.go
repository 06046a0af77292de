package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// ParallelConfig scales the safe-horizon worker-pool experiment.
type ParallelConfig struct {
	// Workers lists the pool sizes to sweep; 0 is the sequential
	// scheduler and is always measured first as the reference.
	Workers []int
	// Fanout is how many service components each job reaches.
	Fanout int
	// Rounds is how many jobs the source emits.
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
	Digest    Digest         `json:"drive_digest"`
	Speedup   float64        `json:"speedup"`
}

// Digest is a drive digest as the experiments report it: a uint64 that
// marshals as the 16 hex digits the BENCH files hold.
type Digest uint64

// MarshalText renders the digest as %016x.
func (d Digest) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%016x", uint64(d)), nil
}

// spin is the deterministic per-job compute: an xorshift64 walk.
func spin(seed uint64, iters int) uint64 {
	x := seed | 1
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// fanSource emits one job every 10ms of virtual time.
type fanSource struct{ rounds int }

func (f *fanSource) Run(p *core.Proc) error {
	for i := 0; i < f.rounds; i++ {
		p.Send("out", i)
		p.Delay(10 * vtime.Millisecond)
	}
	return nil
}

// fanService models one remote-hardware service: receive a job, do
// deterministic compute, hold the wall clock for the service latency,
// advance virtual time, and report a result.
type fanService struct {
	id      int
	iters   int
	service time.Duration
}

func (w *fanService) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		h := spin(uint64(m.Value.(int))*2654435761+uint64(w.id), w.iters)
		if w.service > 0 {
			time.Sleep(w.service)
		}
		p.Advance(vtime.Millisecond)
		p.Send("out", int(h>>33))
	}
}

// fanSink absorbs results from every lane.
type fanSink struct{ got int }

func (k *fanSink) Run(p *core.Proc) error {
	for {
		if _, ok := p.Recv(); !ok {
			return nil
		}
		k.got++
	}
}

// runFan measures one leg: Fanout services behind a shared jobs net,
// each with a private result lane to the sink, scheduled with the
// given worker-pool size.
func runFan(c ParallelConfig, workers int) (ParallelRow, error) {
	s := core.NewSubsystem("fan")
	s.SetWorkers(workers)

	digest := fnv.New64a()
	s.OnDrive = func(net, src string, t vtime.Time, v any) {
		fmt.Fprintf(digest, "%s|%s|%d|%v\n", net, src, t, v)
	}

	jobs, err := s.NewNet("jobs", vtime.Millisecond)
	if err != nil {
		return ParallelRow{}, err
	}
	src, err := s.NewComponent("source", &fanSource{rounds: c.Rounds})
	if err != nil {
		return ParallelRow{}, err
	}
	src.AddPort("out")
	if err := s.Connect(jobs, src.Port("out")); err != nil {
		return ParallelRow{}, err
	}

	sink := &fanSink{}
	sc, err := s.NewComponent("sink", sink)
	if err != nil {
		return ParallelRow{}, err
	}
	for i := 0; i < c.Fanout; i++ {
		lane, err := s.NewNet(fmt.Sprintf("lane%d", i), vtime.Millisecond)
		if err != nil {
			return ParallelRow{}, err
		}
		w, err := s.NewComponent(fmt.Sprintf("svc%d", i), &fanService{
			id: i, iters: c.WorkIters, service: c.Service,
		})
		if err != nil {
			return ParallelRow{}, err
		}
		w.AddPort("in")
		w.AddPort("out")
		if err := s.Connect(jobs, w.Port("in")); err != nil {
			return ParallelRow{}, err
		}
		sp, err := sc.AddPort(fmt.Sprintf("lane%d", i))
		if err != nil {
			return ParallelRow{}, err
		}
		if err := s.Connect(lane, w.Port("out"), sp); err != nil {
			return ParallelRow{}, err
		}
	}

	start := time.Now()
	if err := s.Run(vtime.Infinity); err != nil {
		return ParallelRow{}, err
	}
	wall := time.Since(start)
	if want := c.Fanout * c.Rounds; sink.got != want {
		return ParallelRow{}, fmt.Errorf("experiments: parallel leg workers=%d delivered %d results, want %d",
			workers, sink.got, want)
	}
	st := s.Stats()
	mode := "sequential"
	if workers > 0 {
		mode = fmt.Sprintf("%d workers", workers)
	}
	return ParallelRow{
		Mode:      mode,
		Workers:   workers,
		Wall:      wall,
		Virt:      vtime.Duration(s.Now()),
		Drives:    st.Drives,
		ParRounds: st.ParRounds,
		Digest:    Digest(digest.Sum64()),
	}, nil
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
	rows := make([]ParallelRow, 0, len(c.Workers))
	for _, w := range c.Workers {
		row, err := runFan(c, w)
		if err != nil {
			return nil, nil, err
		}
		ref := &rows
		if len(*ref) > 0 {
			r0 := (*ref)[0]
			if row.Virt != r0.Virt || row.Drives != r0.Drives || row.Digest != r0.Digest {
				return nil, nil, fmt.Errorf(
					"experiments: parallel leg %q diverged from sequential: virt %v/%v drives %d/%d digest %x/%x",
					row.Mode, row.Virt, r0.Virt, row.Drives, r0.Drives, row.Digest, r0.Digest)
			}
			if r0.Wall > 0 {
				row.Speedup = float64(r0.Wall) / float64(row.Wall)
			}
		} else {
			row.Speedup = 1
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
		if par.Virt != seq.Virt || par.Drives != seq.Drives {
			return nil, nil, fmt.Errorf(
				"experiments: Table 1 local leg diverged with workers: virt %v/%v drives %d/%d",
				par.Virt, seq.Virt, par.Drives, seq.Drives)
		}
		table = []Table1Row{seq, par}
	}
	return rows, table, nil
}
