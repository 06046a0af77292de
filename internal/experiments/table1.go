// Package experiments regenerates every table and figure of the
// paper's evaluation: Table 1 (simulation time for the WubbleU page
// load across locations and detail levels) and the scenarios of
// Figs. 1-6, plus the ablations DESIGN.md calls out. Each experiment
// is a plain function returning structured rows, shared by the
// benchmark harness (bench_test.go) and the piabench command.
package experiments

import (
	"fmt"
	"time"

	pia "repro"
	"repro/internal/baseline"
	"repro/internal/proto"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// Table1Row is one row of Table 1: "Time and simulation overhead on
// several configurations of the WubbleU example". Like every row type
// of this package that piabench writes out, it carries the artifact's
// key names itself: a BENCH file is these rows marshalled as they are
// (durations, wall and virtual, as nanoseconds), in field order.
type Table1Row struct {
	Location string         `json:"location"` // "N/A" (native), "local", "remote"
	Level    string         `json:"level"`    // "HotJava", "word passage", "packet passage"
	Wall     time.Duration  `json:"wall_ns"`
	Virt     vtime.Duration `json:"virtual_ns"`  // virtual load time (not in the paper's table)
	Drives   int            `json:"link_drives"` // net drives on the switchable DMA link

	// Wire traffic for remote rows (sent direction, both nodes
	// summed): how many TCP frames and bytes the run cost.
	FramesOut    int64 `json:"frames_out"`
	WireBytesOut int64 `json:"wire_bytes_out"`

	Overhead float64 `json:"overhead"` // Wall / native Wall

	// Metrics is the leg's unified metrics snapshot, taken right
	// after the run completes and before teardown. Populated only
	// with Table1Config.CollectMetrics; nil otherwise (the
	// zero-overhead default).
	Metrics []pia.MetricSample `json:"-"`

	// TimelineEvents is the total number of timeline events the leg
	// recorded (all nodes summed). Populated only with
	// Table1Config.Timeline.
	TimelineEvents uint64 `json:"-"`
}

// Table1Config scales the experiment (the paper used the full 66 KB
// page; unit tests use less).
type Table1Config struct {
	PageSize int
	Images   int

	// Workers sizes each subsystem's scheduler worker pool; 0 keeps
	// the sequential scheduler. Virtual results are identical either
	// way.
	Workers int

	// CollectMetrics wires each simulated leg into a fresh metrics
	// registry and attaches its end-of-run snapshot to the returned
	// row. Off by default so benchmarks measure the disabled path.
	CollectMetrics bool

	// OnMetrics, when set together with CollectMetrics, receives
	// each leg's live registry as soon as it is wired — the hook
	// piabench's -report ticker reads progress from while a leg is
	// still running.
	OnMetrics func(*pia.MetricsRegistry)

	// Timeline wires each simulated leg into timeline recorders (one
	// per node on remote legs) and reports the recorded-event count on
	// the returned row. Off by default so benchmarks measure the
	// disabled path.
	Timeline bool
}

// defaultTable1Config reproduces the paper's setup.
func defaultTable1Config() Table1Config {
	return Table1Config{PageSize: wubbleu.DefaultPageSize, Images: wubbleu.DefaultImageCount}
}

func (c Table1Config) wubbleu(level string) wubbleu.Config {
	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = c.PageSize
	cfg.Images = c.Images
	cfg.Level = level
	return cfg
}

// Native measures the reference (HotJava-analog) load.
func Native(c Table1Config) (Table1Row, error) {
	page, err := wubbleu.GenPage(c.PageSize, c.Images)
	if err != nil {
		return Table1Row{}, err
	}
	srv, addr, err := baseline.Serve(wubbleu.NewStore(wubbleu.DefaultURL, page), "127.0.0.1:0")
	if err != nil {
		return Table1Row{}, err
	}
	defer srv.Close()
	res, err := baseline.Load(addr, wubbleu.DefaultURL)
	if err != nil {
		return Table1Row{}, err
	}
	return Table1Row{Location: "N/A", Level: "HotJava", Wall: res.Elapsed}, nil
}

// outcome is what a run must reproduce bit for bit against its
// reference, whatever its worker count, window, placement, faults or
// observers: virtual time, drive count, scheduler steps and drive
// digest, each zero where a scenario keeps none.
type outcome struct {
	virt          vtime.Duration
	drives, steps int64
	digest        hexDigest
}

// against errors unless o reproduces ref, naming the run as what.
func (o outcome) against(ref outcome, what string) error {
	if o == ref {
		return nil
	}
	return fmt.Errorf("experiments: %s diverged from the reference: virtual %v/%v, drives %d/%d, steps %d/%d, digest %016x/%016x",
		what, o.virt, ref.virt, o.drives, ref.drives, o.steps, ref.steps, uint64(o.digest), uint64(ref.digest))
}

// stand is one WubbleU page-load system, the one every Table 1 row and
// every WubbleU scenario stands up. A local stand holds the whole
// design in one subsystem. A remote one places the cellular ASIC, and
// the server behind its wireless link, on a second Pia node reached
// over real loopback TCP, as in the paper's two-workstation setup.
type stand struct {
	app *wubbleu.App
	sys interface { // the local simulation, or the cluster
		Run(pia.Time) error
		Close() error
		EnableMetrics(*pia.MetricsRegistry) *pia.MetricsRegistry
	}
	sim   *pia.Simulation // a remote stand's is its cluster's
	cl    *pia.Cluster    // nil on a local stand
	nodes []*pia.Node     // the handheld's and the modem site's; nil on a local stand
}

// newStand builds cfg's stand. setup, when not nil, configures the
// builder past the design and its placement: workers, faults and
// resilience on the cross-node link, components beside the design.
func newStand(cfg wubbleu.Config, remote bool, setup func(*pia.SystemBuilder)) (*stand, error) {
	b := pia.NewSystem("wubbleu")
	pl := wubbleu.LocalPlacement()
	if remote {
		pl = wubbleu.RemotePlacement()
		b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	}
	app, err := wubbleu.Install(b, cfg, pl)
	if err != nil {
		return nil, err
	}
	if setup != nil {
		setup(b)
	}
	s := &stand{app: app}
	if !remote {
		if s.sim, err = b.BuildLocal(); err != nil {
			return nil, err
		}
		s.sys = s.sim
		return s, nil
	}
	s.nodes = []*pia.Node{pia.NewNode("handheld-node"), pia.NewNode("modem-node")}
	if s.cl, err = b.BuildOnNodes(map[string]*pia.Node{"handheld": s.nodes[0], "modemsite": s.nodes[1]}); err != nil {
		return nil, err
	}
	s.sys, s.sim = s.cl, &s.cl.Simulation
	return s, nil
}

// horizon bounds the stand's loads generously in virtual time.
func (s *stand) horizon() pia.Time {
	cfg := s.app.Cfg
	// Radio transfer dominates virtual time; 100x margin.
	perLoad := vtime.Duration(int64(cfg.PageSize)*8*int64(vtime.Second)/cfg.RadioBitsPerSec) * 100
	if perLoad < vtime.Duration(1*vtime.Second) {
		perLoad = vtime.Duration(1 * vtime.Second)
	}
	return pia.Time(perLoad * vtime.Duration(cfg.Loads))
}

// load runs the stand to its horizon and returns the wall clock it
// took and the loads' result; it errors unless every load completed.
func (s *stand) load() (time.Duration, wubbleu.Result, error) {
	start := time.Now()
	if err := s.sys.Run(s.horizon()); err != nil {
		return 0, wubbleu.Result{}, err
	}
	wall := time.Since(start)
	res := s.app.Result()
	if res.Loads != s.app.Cfg.Loads {
		return 0, res, fmt.Errorf("load incomplete (%d/%d)", res.Loads, s.app.Cfg.Loads)
	}
	return wall, res, nil
}

// Local runs the whole design in a single subsystem at the given
// detail level and measures wall-clock simulation time.
func Local(c Table1Config, level string) (Table1Row, error) { return table1Row(c, level, false) }

// Remote runs the remote stand, the DMA link crossing the network, at
// the given detail level and measures wall-clock simulation time.
func Remote(c Table1Config, level string) (Table1Row, error) { return table1Row(c, level, true) }

func (r Table1Row) outcome() outcome { return outcome{virt: r.Virt, drives: int64(r.Drives)} }

func table1Row(c Table1Config, level string, remote bool) (Table1Row, error) {
	row := Table1Row{Location: "local", Level: levelName(level)}
	if remote {
		row.Location = "remote"
	}
	s, err := newStand(c.wubbleu(level), remote, func(b *pia.SystemBuilder) { b.SetWorkers(c.Workers) })
	if err != nil {
		return row, err
	}
	defer s.sys.Close()
	var reg *pia.MetricsRegistry
	if c.CollectMetrics {
		reg = s.sys.EnableMetrics(pia.NewMetricsRegistry())
		if c.OnMetrics != nil {
			c.OnMetrics(reg)
		}
	}
	recs := map[string]*pia.TimelineRecorder{}
	if c.Timeline && remote {
		recs = s.cl.EnableTimeline(0)
	} else if c.Timeline {
		recs["main"] = s.sim.EnableTimeline(nil)
	}
	wall, res, err := s.load()
	if err != nil {
		return row, fmt.Errorf("experiments: %s %s: %w", row.Location, level, err)
	}
	row.Wall, row.Virt, row.Drives = wall, res.LoadVirt[0], res.DMADrives
	row.Metrics = reg.Snapshot()
	for _, rec := range recs {
		row.TimelineEvents += rec.Stats().Recorded
	}
	for _, n := range s.nodes {
		ws := n.WireStats()
		row.FramesOut += ws.FramesOut
		row.WireBytesOut += ws.BytesOut
	}
	return row, nil
}

func levelName(level string) string {
	switch level {
	case proto.LevelWord:
		return "word passage"
	case proto.LevelPacket:
		return "packet passage"
	case proto.LevelHardware:
		return "hardware passage"
	default:
		return level
	}
}

// Table1 regenerates the full table: native reference, then
// local/remote x word/packet.
func Table1(c Table1Config) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 5)
	native, err := Native(c)
	if err != nil {
		return nil, err
	}
	rows = append(rows, native)
	for _, run := range []struct {
		f     func(Table1Config, string) (Table1Row, error)
		level string
	}{
		{Local, proto.LevelWord},
		{Local, proto.LevelPacket},
		{Remote, proto.LevelWord},
		{Remote, proto.LevelPacket},
	} {
		row, err := run.f(c, run.level)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for i := range rows {
		if native.Wall > 0 {
			rows[i].Overhead = float64(rows[i].Wall) / float64(native.Wall)
		}
	}
	return rows, nil
}
