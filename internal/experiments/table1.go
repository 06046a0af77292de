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

	// OnCluster, when set, receives the built cluster of a Remote leg
	// after metrics/timeline wiring and before Run — the hook the
	// observability overhead experiment uses to attach a flight
	// recorder, streaming hub, and cost attribution to an otherwise
	// identical run.
	OnCluster func(*pia.Cluster)
}

// DefaultTable1Config reproduces the paper's setup.
func DefaultTable1Config() Table1Config {
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
	store, err := wubbleu.NewStore()
	if err != nil {
		return Table1Row{}, err
	}
	if c.PageSize != wubbleu.DefaultPageSize || c.Images != wubbleu.DefaultImageCount {
		page, err := wubbleu.GenPage(c.PageSize, c.Images)
		if err != nil {
			return Table1Row{}, err
		}
		store.Put(wubbleu.DefaultURL, page)
	}
	srv, addr, err := baseline.Serve(store, "127.0.0.1:0")
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

// horizon bounds a simulated load generously in virtual time.
func horizon(cfg wubbleu.Config) pia.Time {
	// Radio transfer dominates virtual time; 100x margin.
	perLoad := vtime.Duration(int64(cfg.PageSize)*8*int64(vtime.Second)/cfg.RadioBitsPerSec) * 100
	if perLoad < vtime.Duration(1*vtime.Second) {
		perLoad = vtime.Duration(1 * vtime.Second)
	}
	return pia.Time(perLoad * vtime.Duration(cfg.Loads))
}

// Local runs the whole design in a single subsystem at the given
// detail level and measures wall-clock simulation time.
func Local(c Table1Config, level string) (Table1Row, error) {
	cfg := c.wubbleu(level)
	b := pia.NewSystem("wubbleu-local")
	app, err := wubbleu.Install(b, cfg, wubbleu.LocalPlacement())
	if err != nil {
		return Table1Row{}, err
	}
	b.SetWorkers(c.Workers)
	sim, err := b.BuildLocal()
	if err != nil {
		return Table1Row{}, err
	}
	var reg *pia.MetricsRegistry
	if c.CollectMetrics {
		reg = sim.EnableMetrics(pia.NewMetricsRegistry())
		if c.OnMetrics != nil {
			c.OnMetrics(reg)
		}
	}
	var rec *pia.TimelineRecorder
	if c.Timeline {
		rec = sim.EnableTimeline(nil)
	}
	start := time.Now()
	if err := sim.Run(pia.Infinity); err != nil {
		return Table1Row{}, err
	}
	wall := time.Since(start)
	res := app.Result()
	if res.Loads != cfg.Loads {
		return Table1Row{}, fmt.Errorf("experiments: local %s load incomplete (%d/%d)", level, res.Loads, cfg.Loads)
	}
	return Table1Row{
		Location: "local", Level: levelName(level),
		Wall: wall, Virt: res.LoadVirt[0], Drives: res.DMADrives,
		Metrics:        reg.Snapshot(),
		TimelineEvents: rec.Stats().Recorded,
	}, nil
}

// Remote places the cellular ASIC (and the server behind its
// wireless link) on a second Pia node reached over real loopback
// TCP, as in the paper's two-workstation setup, and measures
// wall-clock simulation time at the given detail level for the DMA
// link that now crosses the network.
func Remote(c Table1Config, level string) (Table1Row, error) {
	cfg := c.wubbleu(level)
	b := pia.NewSystem("wubbleu-remote")
	app, err := wubbleu.Install(b, cfg, wubbleu.RemotePlacement())
	if err != nil {
		return Table1Row{}, err
	}
	b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	b.SetWorkers(c.Workers)
	n1, n2 := pia.NewNode("handheld-node"), pia.NewNode("modem-node")
	cl, err := b.BuildOnNodes(map[string]*pia.Node{
		"handheld":  n1,
		"modemsite": n2,
	})
	if err != nil {
		return Table1Row{}, err
	}
	defer cl.Close()
	var reg *pia.MetricsRegistry
	if c.CollectMetrics {
		reg = cl.EnableMetrics(pia.NewMetricsRegistry())
		if c.OnMetrics != nil {
			c.OnMetrics(reg)
		}
	}
	if c.Timeline {
		cl.EnableTimeline(0)
	}
	if c.OnCluster != nil {
		c.OnCluster(cl)
	}
	start := time.Now()
	if err := cl.Run(horizon(cfg)); err != nil {
		return Table1Row{}, err
	}
	wall := time.Since(start)
	res := app.Result()
	if res.Loads != cfg.Loads {
		return Table1Row{}, fmt.Errorf("experiments: remote %s load incomplete (%d/%d)", level, res.Loads, cfg.Loads)
	}
	row := Table1Row{
		Location: "remote", Level: levelName(level),
		Wall: wall, Virt: res.LoadVirt[0], Drives: res.DMADrives,
		Metrics: reg.Snapshot(),
	}
	for _, rec := range cl.Timelines() {
		row.TimelineEvents += rec.Stats().Recorded
	}
	for _, n := range []*pia.Node{n1, n2} {
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
