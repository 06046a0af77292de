package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/wubbleu"
)

// outcome is what one simulation must reproduce bit for bit: the
// simulated results that no host-side change may move.
type outcome struct {
	Completed bool   `json:"completed"`
	VirtNS    int64  `json:"virt_ns"`
	Drives    int64  `json:"drives"`
	Digest    uint64 `json:"digest,omitempty"`
}

// simConfig is the generated input of a workload. It is all the
// program under test receives; the seed stays in the harness.
type simConfig struct {
	WubbleU *wubbleu.Config `json:"wubbleu,omitempty"`
	Fan     *fanConfig      `json:"fan,omitempty"`
}

// workload is one registered traffic shape. Names are permanent:
// results of different commits are compared by them.
type workload struct {
	name string
	why  string

	// procs is the GOMAXPROCS the harness pins: the number of actors
	// that can genuinely run at once, so a spare P does not turn the
	// measurement into one of Go's cross-thread goroutine hand-off.
	// Two nodes on a conservative zero-lookahead channel take turns:
	// measured with two Ps, remote_packet_bulk's wall rose by half and
	// remote_word's did not fall, CPU doubled, and allocation counts
	// stopped repeating. Only the fan's two workers overlap.
	procs int
	// warmup is the fixed number of unmeasured sims in a set-up.
	warmup int
	// pinned are the seed-1 invariants (the paper's set-up). The fan
	// digest is taken from the sequential reference run.
	pinned outcome

	// WubbleU shape; unused by the fan workload.
	remote   bool
	level    string
	pageSize int
	coalesce bool

	fan bool
}

var workloads = []workload{
	{
		name:   "local_word",
		why:    "core, event, proto and wubbleu do all the work, channel/wire/node none: the control on which a distribution-layer change must predict no change",
		procs:  1,
		warmup: 20,
		pinned: outcome{Completed: true, VirtNS: 788_015_220, Drives: 16_897},
		level:  proto.LevelWord, pageSize: wubbleu.DefaultPageSize,
	},
	{
		name:   "remote_word",
		why:    "the paper's 2913x row with the default uncoalesced channel: one gob-encoded frame and one socket write per net drive, so node, wire and the channel endpoints dominate and core is a small share",
		procs:  1,
		warmup: 3,
		pinned: outcome{Completed: true, VirtNS: 1_113_200_515, Drives: 16_897},
		remote: true, level: proto.LevelWord, pageSize: wubbleu.DefaultPageSize,
	},
	{
		name:   "remote_packet_bulk",
		why:    "a 2 MB page in 1 KB packets over coalesced channels: few asks, bytes dominate, so the batch codec, slab allocation and egress streaming work where remote_word leaves them idle",
		procs:  1,
		warmup: 20,
		pinned: outcome{Completed: true, VirtNS: 21_075_355_489, Drives: 2_048},
		remote: true, level: proto.LevelPacket, pageSize: 2 << 20, coalesce: true,
	},
	{
		name:   "fan_speculative",
		why:    "16 spinning services behind a 2 ns probe bus with 2 workers and an 8 us optimism window: the only workload running core's worker pool, safe-horizon rounds and Time Warp image capture and commit",
		procs:  2,
		warmup: 20,
		pinned: outcome{Completed: true, VirtNS: 400_000_000, Drives: 1_280},
		fan:    true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// generate makes the workload's inputs from the seed. Seed 1 is the
// paper's set-up; any other seed perturbs only inputs that leave page
// size and drive count — and so the host work — comparable.
func (w *workload) generate(seed int64) simConfig {
	rng := rand.New(rand.NewSource(seed))
	if w.fan {
		cfg := defaultFanConfig()
		if seed != 1 {
			cfg.JobBase += rng.Intn(1 << 20)
			for i := range cfg.StaggerNS {
				cfg.StaggerNS[i] = cfg.ProbeDelayNS + int64(rng.Intn(2))
			}
		}
		return simConfig{Fan: &cfg}
	}
	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = w.pageSize
	cfg.Level = w.level
	if seed != 1 {
		jitter := func(v *int64) { *v += int64(float64(*v) * (rng.Float64()*0.10 - 0.05)) }
		jitter(&cfg.RecognizeCycles)
		jitter(&cfg.ParseCyclesPerKB)
		jitter(&cfg.DecodeCyclesPerKB)
		jitter(&cfg.RenderCycles)
		jitter(&cfg.ServerCyclesPerKB)
		cfg.Images = []int{3, 5, 6}[rng.Intn(3)]
	}
	return simConfig{WubbleU: &cfg}
}

// counts are one simulation's exported Stats() surfaces, summed over
// its subsystems, channel endpoints and nodes.
type counts struct {
	core       core.Stats
	channel    channel.Stats
	wire       wire.Stats
	compBusyNS int64
}

func (c *counts) add(o counts) {
	c.core.Steps += o.core.Steps
	c.core.Deliveries += o.core.Deliveries
	c.core.Stalls += o.core.Stalls
	c.core.ParRounds += o.core.ParRounds
	c.core.SpecMembers += o.core.SpecMembers
	c.core.SpecCommits += o.core.SpecCommits
	c.core.Rollbacks += o.core.Rollbacks
	c.channel.DataOut += o.channel.DataOut
	c.channel.AsksOut += o.channel.AsksOut
	c.channel.GrantsOut += o.channel.GrantsOut
	c.channel.GrantsIn += o.channel.GrantsIn
	c.channel.Stragglers += o.channel.Stragglers
	c.channel.Flushes += o.channel.Flushes
	c.channel.FlushedMsgs += o.channel.FlushedMsgs
	c.wire.Add(o.wire)
	c.compBusyNS += o.compBusyNS
}

// builtSim is one built simulation, from build to close.
type builtSim struct {
	sim     *pia.Simulation
	nodes   []*pia.Node
	run     func() error
	close   func() error
	outcome func() outcome

	// costs is the cost-attribution registry of a traced sim.
	costs *pia.MetricsRegistry
}

// counts reads the simulation's Stats() surfaces; call after run and
// before close, while the nodes still own their connections.
func (s *builtSim) counts() counts {
	var c counts
	for name, sub := range s.sim.Subsystems {
		st := sub.Stats()
		c.add(counts{core: st})
		for _, ep := range s.sim.Hubs[name].Endpoints() {
			c.add(counts{channel: ep.Stats()})
		}
	}
	for _, n := range s.nodes {
		c.wire.Add(n.WireStats())
	}
	if s.costs != nil {
		for _, m := range s.costs.Snapshot() {
			if strings.HasPrefix(m.Name, costTotal) {
				c.compBusyNS += m.Value
			}
		}
	}
	return c
}

// costTotal prefixes the per-component lifetime totals that
// EnableCostAttribution registers.
const costTotal = "pia_comp_cost_ns_total{"

// build realizes the config. reference selects the fan workload's
// sequential (workers 0, window 0) run; traced turns on cost
// attribution.
func (w *workload) build(cfg simConfig, reference, traced bool) (*builtSim, error) {
	var s *builtSim
	var err error
	if w.fan {
		s, err = buildFan(*cfg.Fan, reference)
	} else {
		s, err = w.buildWubbleU(*cfg.WubbleU)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		s.costs = s.sim.EnableCostAttribution(pia.NewMetricsRegistry(), 0)
	}
	return s, nil
}

func (w *workload) buildWubbleU(cfg wubbleu.Config) (*builtSim, error) {
	b := pia.NewSystem(w.name)
	placement := wubbleu.LocalPlacement()
	if w.remote {
		placement = wubbleu.RemotePlacement()
	}
	app, err := wubbleu.Install(b, cfg, placement)
	if err != nil {
		return nil, err
	}
	result := func() outcome {
		res := app.Result()
		o := outcome{Drives: int64(res.DMADrives)}
		if res.Loads == cfg.Loads && len(res.LoadVirt) == cfg.Loads && res.PageBytes[0] == cfg.PageSize {
			o.Completed = true
			o.VirtNS = int64(res.LoadVirt[0])
		}
		return o
	}
	if !w.remote {
		sim, err := b.BuildLocal()
		if err != nil {
			return nil, err
		}
		return &builtSim{
			sim:     sim,
			run:     func() error { return sim.Run(pia.Infinity) },
			close:   sim.Close,
			outcome: result,
		}, nil
	}
	b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	if w.coalesce {
		b.SetCoalescing(pia.DefaultCoalesce)
	}
	n1, n2 := pia.NewNode("handheld-node"), pia.NewNode("modem-node")
	cl, err := b.BuildOnNodes(map[string]*pia.Node{"handheld": n1, "modemsite": n2})
	if err != nil {
		return nil, errors.Join(err, n1.Close(), n2.Close())
	}
	until := horizon(cfg)
	return &builtSim{
		sim:     &cl.Simulation,
		nodes:   []*pia.Node{n1, n2},
		run:     func() error { return cl.Run(until) },
		close:   cl.Close,
		outcome: result,
	}, nil
}

// horizon bounds a distributed load generously in virtual time: the
// radio transfer dominates, with a 100x margin.
func horizon(cfg wubbleu.Config) pia.Time {
	perLoad := vtime.Duration(int64(cfg.PageSize)*8*int64(vtime.Second)/cfg.RadioBitsPerSec) * 100
	if perLoad < vtime.Second {
		perLoad = vtime.Second
	}
	return pia.Time(perLoad * vtime.Duration(cfg.Loads))
}

// fanConfig shapes the speculative fan: a source sends one job per
// lane per round to spinning services that report into a sink, all
// services sharing a silent probe bus whose delay is their lookahead.
type fanConfig struct {
	Lanes        int     `json:"lanes"`
	Rounds       int     `json:"rounds"`
	SpinIters    int     `json:"spin_iters"`
	AdvanceNS    int64   `json:"advance_ns"`
	ProbeDelayNS int64   `json:"probe_delay_ns"`
	PeriodNS     int64   `json:"period_ns"`
	FeedDelayNS  int64   `json:"feed_delay_ns"`
	Workers      int     `json:"workers"`
	OptimismNS   int64   `json:"optimism_ns"`
	JobBase      int     `json:"job_base"`
	StaggerNS    []int64 `json:"stagger_ns"`
}

func defaultFanConfig() fanConfig {
	cfg := fanConfig{
		Lanes:        16,
		Rounds:       40,
		SpinIters:    25_000,
		AdvanceNS:    4_000,
		ProbeDelayNS: 2,
		PeriodNS:     10_000_000,
		FeedDelayNS:  1_000_000,
		Workers:      2,
		OptimismNS:   8_000,
		JobBase:      1 << 10, // past 255, so every seed's jobs box alike
		StaggerNS:    make([]int64, 16),
	}
	// A stagger no smaller than the probe delay leaves one service in
	// each round's safe cohort, so the second worker is fed
	// speculatively: at 1 ns two services are safe per round and, with
	// two workers, the scheduler never speculates.
	for i := range cfg.StaggerNS {
		cfg.StaggerNS[i] = cfg.ProbeDelayNS
	}
	return cfg
}

// fanSource emits one batch of jobs per period, one per lane,
// staggering the lanes in virtual time so their keys are strictly
// ordered and the probe bus's lookahead admits only the first service
// of a round conservatively.
type fanSource struct {
	cfg   fanConfig
	lanes []string
}

func (o *fanSource) Run(p *pia.Proc) error {
	for k := 0; k < o.cfg.Rounds; k++ {
		start := p.Time()
		for i, lane := range o.lanes {
			p.Send(lane, o.cfg.JobBase+k)
			p.Advance(vtime.Duration(o.cfg.StaggerNS[i]))
		}
		p.DelayUntil(start.Add(vtime.Duration(o.cfg.PeriodNS)))
	}
	return nil
}

// fanService receives a job, spins deterministically, advances
// virtual time and reports. It keeps no state between jobs, so its
// checkpoint image is empty and a rollback replay is identical.
type fanService struct {
	id      int
	iters   int
	advance vtime.Duration
}

func (w *fanService) Run(p *pia.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		h := spin(uint64(m.Value.(int))*2654435761+uint64(w.id), w.iters)
		p.Advance(w.advance)
		p.Send("out", int(h>>33))
	}
}

func (w *fanService) SaveState() ([]byte, error) { return nil, nil }
func (w *fanService) RestoreState([]byte) error  { return nil }

// spin is a fixed amount of host work per call (xorshift rounds).
func spin(seed uint64, iters int) uint64 {
	x := seed | 1
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// fanSink absorbs the results. Not a StateSaver: it is never
// speculated.
type fanSink struct{ got int }

func (k *fanSink) Run(p *pia.Proc) error {
	for {
		if _, ok := p.Recv(); !ok {
			return nil
		}
		k.got++
	}
}

// buildFan builds the fan on the public pia API. reference selects
// the sequential conservative scheduler the digest is checked against.
func buildFan(cfg fanConfig, reference bool) (*builtSim, error) {
	const sub = "probe"
	lanes := make([]string, cfg.Lanes)
	for i := range lanes {
		lanes[i] = fmt.Sprintf("lane%d", i)
	}
	sink := &fanSink{}
	b := pia.NewSystem("fan")
	b.AddComponent("source", sub, &fanSource{cfg: cfg, lanes: lanes}, lanes...)
	b.AddComponent("sink", sub, sink, lanes...)
	probes := make([]string, cfg.Lanes)
	for i, lane := range lanes {
		svc := fmt.Sprintf("svc%d", i)
		b.AddComponent(svc, sub, &fanService{id: i, iters: cfg.SpinIters, advance: vtime.Duration(cfg.AdvanceNS)}, "in", "out", "probe")
		b.AddNet("jobs"+lane, pia.Duration(cfg.FeedDelayNS), "source."+lane, svc+".in")
		b.AddNet("result"+lane, pia.Duration(cfg.FeedDelayNS), svc+".out", "sink."+lane)
		probes[i] = svc + ".probe"
	}
	b.AddNet("probe", pia.Duration(cfg.ProbeDelayNS), probes...)
	if !reference {
		b.SetWorkers(cfg.Workers)
		b.SetOptimism(pia.Duration(cfg.OptimismNS))
	}
	sim, err := b.BuildLocal()
	if err != nil {
		return nil, err
	}
	s := sim.Subsystem(sub)
	digest := uint64(fnvOffset)
	s.OnDrive = func(net, src string, t vtime.Time, v any) {
		digest = fnvString(digest, net)
		digest = fnvString(digest, src)
		digest = fnvUint(digest, uint64(t))
		digest = fnvUint(digest, uint64(v.(int)))
	}
	return &builtSim{
		sim:   sim,
		run:   func() error { return sim.Run(pia.Infinity) },
		close: sim.Close,
		outcome: func() outcome {
			return outcome{
				Completed: sink.got == cfg.Lanes*cfg.Rounds,
				VirtNS:    int64(s.Now()),
				Drives:    s.Stats().Drives,
				Digest:    digest,
			}
		},
	}, nil
}

// FNV-1a, inlined so the drive digest costs no allocation per drive.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: "ab","c" != "a","bc"
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}
