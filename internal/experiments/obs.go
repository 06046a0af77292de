package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	pia "repro"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/vtime"
)

// ObsConfig shapes the observability overhead experiment: each leg is
// run with the metrics layer wired (how any watched deployment already
// runs), then again with the full flight stack added on top — flight
// recorder, metrics sampler, a live SSE /watch subscriber streaming
// over real HTTP, and per-component cost attribution — on an otherwise
// identical workload. The figure of merit is the wall-clock cost of
// watching (the flight stack's delta over the metrics baseline), and
// the invariant is that the virtual results do not move at all.
type ObsConfig struct {
	Table1   Table1Config   // remote-word leg workload
	Sessions SessionsConfig // steady sessions leg workload

	// Runs is how many off/on pairs each leg executes (>=1). The
	// variants are interleaved — off, on, off, on, ... — so slow drift
	// in machine load lands on both sides of the delta instead of
	// biasing whichever block ran second; the min wall per variant is
	// kept.
	Runs          int
	WatchInterval time.Duration // sampler cadence feeding /watch
	TopN          int           // attribution top-N gauges
}

// DefaultObsConfig keeps each leg in benchmark territory: the paper
// workload for the remote row, a trimmed tenant count but heavier
// per-dispatch work for the sessions row (so the leg measures
// steady-state overhead, not per-session setup), and a 250ms sampling
// cadence — still 4x more aggressive than a realistic 1s-cadence
// dashboard. The cadence is the honest knob here: each sample pays one
// full catalog scrape (every tenant's registry re-labelled and
// diffed), so the sampling overhead ratio is scrape-cost/interval
// regardless of leg length.
func DefaultObsConfig() ObsConfig {
	s := DefaultSessionsConfig()
	s.Sessions = 60
	s.WorkIters = 32768
	return ObsConfig{
		Table1:        defaultTable1Config(),
		Sessions:      s,
		Runs:          8,
		WatchInterval: 250 * time.Millisecond,
		TopN:          5,
	}
}

// ObsRow is one leg of the observability overhead experiment.
type ObsRow struct {
	Leg     string `json:"leg"` // "remote-word", "sessions-steady"
	Workers int    `json:"workers"`

	OffWall     time.Duration `json:"off_wall_ns"`  // metrics-only baseline (min over Runs)
	OnWall      time.Duration `json:"on_wall_ns"`   // + flight stack + SSE watcher (min over Runs)
	OverheadPct float64       `json:"overhead_pct"` // (OnWall-OffWall)/OffWall * 100

	// DigestsOK is the whole point: the virtual results with observers
	// attached are bit-identical to the baseline run (drives + virtual
	// time on the remote leg, per-tenant drive digests on the sessions
	// leg). Obs returns an error on any divergence.
	DigestsOK bool           `json:"digests_identical"`
	Virt      vtime.Duration `json:"virtual_ns,omitempty"`  // remote leg: virtual load time
	Drives    int            `json:"link_drives,omitempty"` // remote leg: DMA net drives
	Steps     int64          `json:"steps,omitempty"`       // sessions leg: scheduler steps

	// Flight-stack accounting from the final instrumented run.
	EventsStreamed uint64 `json:"frames_streamed"`     // SSE frames enqueued to subscribers
	RingRecorded   uint64 `json:"ring_recorded"`       // entries the flight ring recorded
	Dropped        uint64 `json:"subscribers_dropped"` // subscribers dropped for stalling (want 0)
}

// watcher is one live SSE client: the recorder's /watch handler
// mounted on a real HTTP server and a streaming GET /watch reader
// draining it, so the measured overhead includes JSON encoding, the
// subscriber queue, and actual socket writes.
type watcher struct {
	srv  *httptest.Server
	resp *http.Response
	done chan struct{}
}

func newWatcher(rec *flight.Recorder) (*watcher, error) {
	srv := httptest.NewServer(http.HandlerFunc(rec.Watch))
	resp, err := http.Get(srv.URL + "/watch")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("obs: watch subscribe: %w", err)
	}
	w := &watcher{srv: srv, resp: resp, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		_, _ = io.Copy(io.Discard, resp.Body)
	}()
	return w, nil
}

func (w *watcher) close() {
	if w == nil {
		return
	}
	_ = w.resp.Body.Close()
	w.srv.CloseClientConnections()
	w.srv.Close()
	<-w.done
}

// obsStack is the full telemetry stack one instrumented run attaches.
type obsStack struct {
	rec     *flight.Recorder
	sampler *flight.Sampler
	watch   *watcher
}

func newObsStack(reg *metrics.Registry, every time.Duration) (*obsStack, error) {
	rec := flight.New(0)
	rec.SetInfo("mode", "obs-experiment")
	rec.AttachRegistry(reg)
	st := &obsStack{rec: rec, sampler: flight.NewSampler(reg, rec, every)}
	w, err := newWatcher(rec)
	if err != nil {
		return nil, err
	}
	st.watch = w
	st.sampler.Start()
	return st, nil
}

// stop tears the stack down and returns its accounting; it errors if
// the recorder tripped (a healthy leg must not trigger a post-mortem)
// or the live watcher was dropped.
func (st *obsStack) stop(row *ObsRow) error {
	st.sampler.Stop()
	st.watch.close()
	if tripped, reason := st.rec.Tripped(); tripped {
		return fmt.Errorf("obs: %s: flight recorder tripped during healthy run: %s", row.Leg, reason)
	}
	row.EventsStreamed = st.rec.Sent()
	row.RingRecorded = st.rec.BuildDump().Recorded
	row.Dropped = st.rec.Dropped()
	if row.Dropped != 0 {
		return fmt.Errorf("obs: %s: live watcher dropped (%d) during run", row.Leg, row.Dropped)
	}
	return nil
}

// Obs measures the cost of watching: the remote word-passage row and
// a steady multi-tenant sessions leg, each against its metrics-only
// baseline, with virtual-result equality enforced.
func Obs(cfg ObsConfig) ([]ObsRow, error) {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	if cfg.WatchInterval <= 0 {
		cfg.WatchInterval = 25 * time.Millisecond
	}
	remote := ObsRow{Leg: "remote-word", Workers: cfg.Table1.Workers}
	if err := cfg.pairs(&remote, cfg.remoteRun); err != nil {
		return nil, err
	}
	scfg := cfg.Sessions
	sessions := ObsRow{Leg: "sessions-steady"}
	if len(scfg.Workers) > 0 {
		sessions.Workers = scfg.Workers[len(scfg.Workers)-1]
	}
	refs, err := scfg.references()
	if err != nil {
		return []ObsRow{remote}, err
	}
	// Every tenant's drive digest is held to its isolated reference in
	// both variants; the outcome is the steps summed over tenants.
	err = cfg.pairs(&sessions, func(reg *metrics.Registry, st *obsStack) (time.Duration, outcome, error) {
		svc := service.Config{Workers: sessions.Workers, Metrics: reg}
		if st != nil {
			svc.Flight, svc.AttributionTopN = st.rec, cfg.TopN
		}
		row, err := steady(scfg, svc, refs)
		return row.Wall, outcome{steps: row.Steps}, err
	})
	if err != nil {
		return []ObsRow{remote}, err
	}
	return []ObsRow{remote, sessions}, nil
}

func overheadPct(off, on time.Duration) float64 {
	if off <= 0 {
		return 0
	}
	return (float64(on) - float64(off)) / float64(off) * 100
}

// pairs runs one leg's metrics-only baseline and its fully instrumented
// variant interleaved, Runs pairs of them, keeping each variant's
// fastest wall, and holds every run's outcome to the first baseline's.
// run gets a fresh registry and, on the instrumented variant, the
// flight stack built on it.
func (cfg ObsConfig) pairs(row *ObsRow, run func(*metrics.Registry, *obsStack) (time.Duration, outcome, error)) error {
	var ref outcome
	for r := 0; r < cfg.Runs; r++ {
		for _, on := range []bool{false, true} {
			reg := metrics.NewRegistry()
			var st *obsStack
			if on {
				var err error
				if st, err = newObsStack(reg, cfg.WatchInterval); err != nil {
					return err
				}
			}
			wall, out, err := run(reg, st)
			if st != nil {
				if serr := st.stop(row); err == nil && serr != nil {
					return serr
				}
			}
			if err != nil {
				return fmt.Errorf("obs: %s run %d: %w", row.Leg, r, err)
			}
			if r == 0 && !on {
				ref = out
			} else if err := out.against(ref, fmt.Sprintf("obs: %s run %d", row.Leg, r)); err != nil {
				return err
			}
			best := &row.OffWall
			if on {
				best = &row.OnWall
			}
			if r == 0 || wall < *best {
				*best = wall
			}
		}
	}
	row.Virt, row.Drives, row.Steps = ref.virt, int(ref.drives), ref.steps
	row.DigestsOK = true
	row.OverheadPct = overheadPct(row.OffWall, row.OnWall)
	return nil
}

// remoteRun runs the paper's remote word-passage stand with metrics
// wired into reg and, given st, the flight stack and cost attribution
// attached. Its outcome is the committed virtual one: the virtual load
// time and the DMA drive count.
func (cfg ObsConfig) remoteRun(reg *metrics.Registry, st *obsStack) (time.Duration, outcome, error) {
	c := cfg.Table1
	s, err := newStand(c.wubbleu(proto.LevelWord), true, func(b *pia.SystemBuilder) { b.SetWorkers(c.Workers) })
	if err != nil {
		return 0, outcome{}, err
	}
	defer s.sys.Close()
	s.cl.EnableMetrics(reg)
	if st != nil {
		s.cl.EnableFlight(st.rec)
		s.cl.EnableCostAttribution(reg, cfg.TopN)
	}
	wall, res, err := s.load()
	if err != nil {
		return 0, outcome{}, err
	}
	return wall, outcome{virt: res.LoadVirt[0], drives: int64(res.DMADrives)}, nil
}
