package experiments

import (
	"fmt"
	"time"

	pia "repro"
	"repro/internal/core"
	"repro/internal/vtime"
)

// OptimisticConfig scales the Time Warp ablation: a lookahead sweep
// (high/low/zero) crossed with scheduling mode (conservative vs
// optimistic) and worker-pool size over a fan-out probe workload.
type OptimisticConfig struct {
	// Workers lists the pool sizes each mode runs with; the
	// sequential scheduler (0 workers) is always measured first per
	// leg as the correctness reference.
	Workers []int
	// Window is the optimism window W handed to SetOptimism on the
	// optimistic legs: how far past the safe horizon the scheduler
	// may speculate.
	Window vtime.Duration
	// Fanout is the number of independent probe services.
	Fanout int
	// Rounds is how many job batches the source emits.
	Rounds int
	// WorkIters sizes the deterministic compute per job.
	WorkIters int
	// Service is the wall-clock latency each service models per job.
	// Overlapping these sleeps is the entire speedup; a round that
	// serializes them pays Fanout * Service of wall clock.
	Service time.Duration
	// Advance is the virtual time a service charges per job.
	Advance vtime.Duration
	// Lookaheads lists the probe-bus delays to sweep. Each service
	// owns a port on a shared (and silent) probe bus with this
	// propagation delay, so the bus delay IS the component's output
	// lookahead: large values let the conservative horizon clear
	// every service, small ones collapse it to (almost) nothing.
	Lookaheads []optLookahead
}

// optLookahead is one leg of the lookahead sweep.
type optLookahead struct {
	Name  string
	Delay vtime.Duration
}

// DefaultOptimisticConfig is what `piabench -exp optimistic` runs.
func DefaultOptimisticConfig() OptimisticConfig {
	return OptimisticConfig{
		Workers:   []int{2, 8},
		Window:    8 * vtime.Microsecond,
		Fanout:    8,
		Rounds:    6,
		WorkIters: 2000,
		Service:   2 * time.Millisecond,
		Advance:   4 * vtime.Microsecond,
		Lookaheads: []optLookahead{
			{Name: "high", Delay: vtime.Microsecond},
			{Name: "low", Delay: 2},
			{Name: "zero", Delay: 0},
		},
	}
}

// OptimisticRow is one measured leg. Virt, Drives and Digest are the
// invariants — every row must agree with its leg's sequential
// reference bit-for-bit; the wall clock and the speculation counters
// are the measured quantities.
type OptimisticRow struct {
	Lookahead   string         `json:"lookahead"`
	Mode        string         `json:"mode"` // sequential | conservative | optimistic
	Workers     int            `json:"workers"`
	Wall        time.Duration  `json:"wall_ns"`
	Virt        vtime.Duration `json:"virtual_ns"`
	Drives      int64          `json:"drives"`
	ParRounds   int64          `json:"parallel_rounds"`
	SpecRounds  int64          `json:"spec_rounds"`
	SpecCommits int64          `json:"spec_commits"`
	Rollbacks   int64          `json:"rollbacks"`
	RolledBack  int64          `json:"rolled_back_events"`
	CommitRatio float64        `json:"commit_ratio"` // committed / dispatched speculations
	Digest      hexDigest      `json:"drive_digest"`
	Speedup     float64        `json:"speedup_vs_sequential"`             // sequential wall / this wall
	VsCons      float64        `json:"speedup_vs_conservative,omitempty"` // conservative wall at same leg+workers / this wall
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

// optSource emits one batch of jobs per period, one job per lane,
// staggering the lanes by a nanosecond of virtual time so the lanes'
// keys are strictly ordered (which is what lets a small nonzero
// lookahead admit a strict subset of the services per round).
type optSource struct {
	lanes  int
	rounds int
	period vtime.Duration
}

func (o *optSource) Run(p *core.Proc) error {
	for k := 0; k < o.rounds; k++ {
		start := p.Time()
		for i := 0; i < o.lanes; i++ {
			p.Send(fmt.Sprintf("lane%d", i), k)
			p.Advance(1)
		}
		p.DelayUntil(start.Add(o.period))
	}
	return nil
}

// optService models one remote probe: receive a job, spin
// deterministically, hold the wall clock for the service latency,
// advance virtual time, report the result. The loop carries no
// iteration state of its own — everything derives from consumed
// messages — so the checkpoint image is empty and a rollback replay
// is trivially identical.
type optService struct {
	id      int
	iters   int
	service time.Duration
	advance vtime.Duration
}

func (w *optService) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		h := spin(uint64(m.Value.(int))*2654435761+uint64(w.id), w.iters)
		if w.service > 0 {
			time.Sleep(w.service)
		}
		p.Advance(w.advance)
		p.Send("out", int(h>>33))
	}
}

func (w *optService) SaveState() ([]byte, error) { return nil, nil }
func (w *optService) RestoreState([]byte) error  { return nil }

// optSink absorbs results from every lane. Deliberately not a
// StateSaver: the sink is never speculated, it just accumulates.
type optSink struct{ got int }

func (k *optSink) Run(p *core.Proc) error {
	for {
		if _, ok := p.Recv(); !ok {
			return nil
		}
		k.got++
	}
}

// fanLeg measures one leg of the fan workload, the one the ablation
// and the worker-pool sweep both run: Fanout probe services, each fed
// by a private high-delay jobs net and reporting on a private
// high-delay result net, all sharing a silent probe bus whose delay is
// the lookahead under test. optimism == 0 selects conservative mode.
func fanLeg(c OptimisticConfig, la optLookahead, workers int, optimism vtime.Duration) (OptimisticRow, error) {
	const feed = vtime.Millisecond // jobs/result net delay; >= every lookahead
	lanes := make([]string, c.Fanout)
	for i := range lanes {
		lanes[i] = fmt.Sprintf("lane%d", i)
	}
	b := pia.NewSystem("fan").SetWorkers(workers).SetOptimism(optimism)
	b.AddComponent("source", "probe", &optSource{
		lanes: c.Fanout, rounds: c.Rounds, period: 10 * vtime.Millisecond,
	}, lanes...)
	sink := &optSink{}
	b.AddComponent("sink", "probe", sink, lanes...)
	probes := make([]string, c.Fanout)
	for i, lane := range lanes {
		svc := fmt.Sprintf("svc%d", i)
		b.AddComponent(svc, "probe", &optService{
			id: i, iters: c.WorkIters, service: c.Service, advance: c.Advance,
		}, "in", "out", "probe")
		b.AddNet(fmt.Sprintf("jobs%d", i), feed, "source."+lane, svc+".in")
		b.AddNet(fmt.Sprintf("result%d", i), feed, svc+".out", "sink."+lane)
		probes[i] = svc + ".probe"
	}
	b.AddNet("probe", la.Delay, probes...)
	s, err := b.BuildSubsystem("probe")
	if err != nil {
		return OptimisticRow{}, err
	}
	digest := s.DigestDrives()

	start := time.Now()
	if err := s.Run(vtime.Infinity); err != nil {
		return OptimisticRow{}, err
	}
	wall := time.Since(start)
	if want := c.Fanout * c.Rounds; sink.got != want {
		return OptimisticRow{}, fmt.Errorf("experiments: fan leg %s/%d delivered %d results, want %d",
			la.Name, workers, sink.got, want)
	}
	st := s.Stats()
	mode := "sequential"
	switch {
	case workers > 0 && optimism > 0:
		mode = "optimistic"
	case workers > 0:
		mode = "conservative"
	}
	row := OptimisticRow{
		Lookahead:   la.Name,
		Mode:        mode,
		Workers:     workers,
		Wall:        wall,
		Virt:        vtime.Duration(s.Now()),
		Drives:      st.Drives,
		ParRounds:   st.ParRounds,
		SpecRounds:  st.SpecRounds,
		SpecCommits: st.SpecCommits,
		Rollbacks:   st.Rollbacks,
		RolledBack:  st.RolledBack,
		Digest:      hexDigest(digest.Sum64()),
	}
	if st.SpecMembers > 0 {
		row.CommitRatio = float64(st.SpecCommits) / float64(st.SpecMembers)
	}
	return row, nil
}

func (r OptimisticRow) outcome() outcome {
	return outcome{virt: r.Virt, drives: r.Drives, digest: r.Digest}
}

// Optimistic sweeps lookahead x mode x workers and errors if any leg
// diverges from its lookahead's sequential reference in virtual time,
// drive count or drive digest. The interesting comparison is within a
// leg: at high lookahead the conservative horizon already clears every
// service, speculation never triggers, and the optimistic rows track
// the conservative ones; at low/zero lookahead the conservative rounds
// degenerate toward sequential service calls while the optimistic
// scheduler overlaps them and wins on wall clock.
func Optimistic(c OptimisticConfig) ([]OptimisticRow, error) {
	var rows []OptimisticRow
	for _, la := range c.Lookaheads {
		ref, err := fanLeg(c, la, 0, 0)
		if err != nil {
			return nil, err
		}
		ref.Speedup = 1
		rows = append(rows, ref)
		for _, w := range c.Workers {
			cons, err := fanLeg(c, la, w, 0)
			if err != nil {
				return nil, err
			}
			opt, err := fanLeg(c, la, w, c.Window)
			if err != nil {
				return nil, err
			}
			for _, r := range []*OptimisticRow{&cons, &opt} {
				if err := r.outcome().against(ref.outcome(), fmt.Sprintf("%s/%s workers=%d", la.Name, r.Mode, w)); err != nil {
					return nil, err
				}
				if ref.Wall > 0 {
					r.Speedup = float64(ref.Wall) / float64(r.Wall)
				}
			}
			cons.VsCons = 1
			if opt.Wall > 0 {
				opt.VsCons = float64(cons.Wall) / float64(opt.Wall)
			}
			rows = append(rows, cons, opt)
		}
	}
	return rows, nil
}
