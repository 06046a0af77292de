package service

import (
	"fmt"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// Spec is a session's creation request: which workload, its seed,
// and its shape. Zero-valued shape fields take workload defaults.
type Spec struct {
	ID       string `json:"id,omitempty"`
	Workload string `json:"workload,omitempty"` // "fan" (default) or "modemsite"
	Seed     int64  `json:"seed,omitempty"`

	// AutoRun launches a free-running scheduler at create time
	// (sessions designers attach to and co-simulate against) instead
	// of advancing under explicit Step calls. Nil takes the workload
	// default: true for attach-driven workloads (modemsite), false
	// otherwise — newWorkload resolves it, so the default is the same
	// whichever encoding (JSON or form) the create request used.
	AutoRun *bool `json:"auto_run,omitempty"`

	// fan shape
	Fanout    int `json:"fanout,omitempty"`
	Rounds    int `json:"rounds,omitempty"`
	WorkIters int `json:"work_iters,omitempty"`

	// modemsite shape
	PageKB int    `json:"page_kb,omitempty"`
	Images int    `json:"images,omitempty"`
	Level  string `json:"level,omitempty"`
}

// workload builds a session's component graph and declares its
// resource envelope.
type workload interface {
	// Footprint is the session's accounted memory cost in bytes —
	// the admission-control currency. An estimate, but a
	// deterministic one: the same spec always accounts the same.
	Footprint() int64
	// Horizon is the virtual time by which the workload is finished,
	// or vtime.Infinity for open-ended (attach-driven) workloads.
	Horizon() vtime.Time
	// Build builds the session's subsystem, named id, from the
	// workload's system description.
	Build(id string) (*core.Subsystem, error)
}

// attacher is implemented by workloads that accept designer
// endpoints over the node's shared listener.
type attacher interface {
	Attach(sub *core.Subsystem, ep *channel.Endpoint)
}

const (
	workloadFan       = "fan"
	workloadModemSite = "modemsite"
)

// designerSubsystem is the subsystem a modemsite session's designer
// hosts the handheld on: a session cannot take its name.
const designerSubsystem = "handheld"

// A spec's shape caps, well above every shape in use: past one a spec
// is refused, so its footprint is a positive int64, its page one GenPage
// can allocate, and no step spins past what MaxSteps can stop.
const (
	maxFanout    = 1024
	maxRounds    = 1_000_000
	maxWorkIters = 1 << 20
	maxPageKB    = 64 << 10 // 64 MB
	maxImages    = 1 << 10
)

// newWorkload validates the spec, fills defaults in place, and
// builds the workload.
func newWorkload(spec *Spec) (workload, error) {
	if spec.Workload == "" {
		spec.Workload = workloadFan
	}
	if spec.AutoRun == nil {
		// Attach-driven workloads default to free-running so a
		// designer can dial in and co-simulate immediately.
		autoRun := spec.Workload == workloadModemSite
		spec.AutoRun = &autoRun
	}
	for _, c := range []struct {
		field  string
		v, max int
	}{{"fanout", spec.Fanout, maxFanout}, {"rounds", spec.Rounds, maxRounds}, {"work_iters", spec.WorkIters, maxWorkIters},
		{"page_kb", spec.PageKB, maxPageKB}, {"images", spec.Images, maxImages}} {
		if c.v > c.max {
			return nil, &specError{Reason: fmt.Sprintf("%s %d exceeds %d", c.field, c.v, c.max)}
		}
	}
	switch spec.Workload {
	case workloadFan:
		if spec.Fanout <= 0 {
			spec.Fanout = 4
		}
		if spec.Rounds <= 0 {
			spec.Rounds = 8
		}
		if spec.WorkIters <= 0 {
			spec.WorkIters = 256
		}
		return &fanWorkload{spec: *spec}, nil
	case workloadModemSite:
		if spec.ID == designerSubsystem {
			return nil, &specError{Reason: fmt.Sprintf("a modemsite session cannot be named %q, the designer's subsystem", spec.ID)}
		}
		cfg := wubbleu.DefaultConfig()
		if spec.PageKB > 0 {
			cfg.PageSize = spec.PageKB * 1024
		}
		if spec.Images > 0 {
			cfg.Images = spec.Images
		}
		if spec.Level != "" {
			cfg.Level = spec.Level
		}
		return &modemWorkload{spec: *spec, cfg: cfg}, nil
	default:
		return nil, &specError{Reason: fmt.Sprintf("unknown workload %q", spec.Workload)}
	}
}

// ---- fan: a seeded synthetic fan-out/compute workload ----
//
// One source broadcasts Rounds seeded jobs on a shared net; Fanout
// services each hash every job for WorkIters xorshift iterations and
// emit a result on a private lane. All activity is pure virtual time
// (no wall sleeps), values derive from the seed, and every emission
// is a net drive — so the session digest is a dense witness of the
// whole computation.

const fanPeriod = 10 * vtime.Millisecond

type fanWorkload struct{ spec Spec }

func (w *fanWorkload) Footprint() int64 {
	return int64(w.spec.Fanout+2) * 32 * 1024
}

func (w *fanWorkload) Horizon() vtime.Time {
	return vtime.Time(0).Add(vtime.Duration(w.spec.Rounds+2) * fanPeriod)
}

func (w *fanWorkload) Build(id string) (*core.Subsystem, error) {
	b := pia.NewSystem(workloadFan)
	b.AddComponent("source", id, &fanSource{
		rounds: w.spec.Rounds,
		state:  mix(uint64(w.spec.Seed)),
	}, "out")
	jobs := []string{"source.out"}
	for i := 0; i < w.spec.Fanout; i++ {
		svc := fmt.Sprintf("svc%d", i)
		b.AddComponent(svc, id, &fanService{
			iters: w.spec.WorkIters,
			salt:  mix(uint64(w.spec.Seed) ^ uint64(i+1)),
			cost:  vtime.Duration(i%7+1) * 100 * vtime.Microsecond,
		}, "in", "out")
		b.AddNet(fmt.Sprintf("lane%d", i), vtime.Millisecond, svc+".out")
		jobs = append(jobs, svc+".in")
	}
	b.AddNet("jobs", vtime.Millisecond, jobs...)
	return b.BuildSubsystem(id)
}

// mix is splitmix64's finalizer: spreads small seeds across the word.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

type fanSource struct {
	rounds int
	state  uint64
}

func (f *fanSource) Run(p *core.Proc) error {
	for i := 0; i < f.rounds; i++ {
		f.state = xorshift(f.state | 1)
		p.Send("out", int(f.state>>16))
		p.Delay(fanPeriod)
	}
	return nil
}

type fanService struct {
	iters int
	salt  uint64
	cost  vtime.Duration
}

func (s *fanService) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		x := uint64(m.Value.(int)) ^ s.salt
		for i := 0; i < s.iters; i++ {
			x = xorshift(x | 1)
		}
		p.Advance(s.cost)
		p.Send("out", int(x>>16))
	}
}

// ---- modemsite: the paper's remote modem-site half ----
//
// The WubbleU modem-site fragment (ASIC + dedicated server) hosted
// as a tenant: a designer's handheld half attaches over the node's
// shared listener by dialing the session id and binding the split
// "dma" net, exactly as the single-tenant pianode mode works.

type modemWorkload struct {
	spec Spec
	cfg  wubbleu.Config
}

func (w *modemWorkload) Footprint() int64 {
	return int64(w.cfg.PageSize)*int64(w.cfg.Images+1) + 256*1024
}

func (w *modemWorkload) Horizon() vtime.Time { return vtime.Infinity }

// Build builds the modem-site slice of the one WubbleU description:
// the ASIC and the server placed on the session's subsystem, the
// handheld on the designer's.
func (w *modemWorkload) Build(id string) (*core.Subsystem, error) {
	b := pia.NewSystem(workloadModemSite)
	if _, err := wubbleu.Install(b, w.cfg, wubbleu.Placement{CPU: designerSubsystem, Modem: id, Server: id}); err != nil {
		return nil, err
	}
	return b.BuildSubsystem(id)
}

func (w *modemWorkload) Attach(sub *core.Subsystem, ep *channel.Endpoint) {
	_ = ep.BindNet(sub.Net("dma"), "dma")
}
