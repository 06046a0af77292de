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
		Table1:        DefaultTable1Config(),
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

// watcher is one live SSE client: the hub mounted on a real HTTP
// server and a streaming GET /watch reader draining it, so the
// measured overhead includes JSON encoding, the subscriber queue, and
// actual socket writes.
type watcher struct {
	srv  *httptest.Server
	resp *http.Response
	done chan struct{}
}

func newWatcher(hub *flight.Hub) (*watcher, error) {
	srv := httptest.NewServer(hub)
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
	obs     *flight.Observer
	sampler *flight.Sampler
	watch   *watcher
}

func newObsStack(reg *metrics.Registry, every time.Duration) (*obsStack, error) {
	obs, sampler := flight.NewObserver(reg, "obs-experiment", every)
	st := &obsStack{obs: obs, sampler: sampler}
	w, err := newWatcher(obs.Hub)
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
	if tripped, reason := st.obs.Rec.Tripped(); tripped {
		return fmt.Errorf("obs: %s: flight recorder tripped during healthy run: %s", row.Leg, reason)
	}
	row.EventsStreamed = st.obs.Hub.Sent()
	row.RingRecorded = st.obs.Rec.BuildDump().Recorded
	row.Dropped = st.obs.Hub.Dropped()
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
	remote, err := obsRemoteLeg(cfg)
	if err != nil {
		return nil, err
	}
	sessions, err := obsSessionsLeg(cfg)
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

// obsRemoteLeg runs the paper's remote word-passage row with metrics
// wired (the baseline) and then fully instrumented. Equality is judged
// on the committed virtual outcome: the virtual load time and the DMA
// drive count.
func obsRemoteLeg(cfg ObsConfig) (ObsRow, error) {
	row := ObsRow{Leg: "remote-word", Workers: cfg.Table1.Workers}

	for r := 0; r < cfg.Runs; r++ {
		// Off half of the pair: metrics wired, no flight stack.
		c := cfg.Table1
		c.CollectMetrics = true
		t1, err := Remote(c, proto.LevelWord)
		if err != nil {
			return row, fmt.Errorf("obs: remote off run %d: %w", r, err)
		}
		if r == 0 {
			row.Virt, row.Drives, row.OffWall = t1.Virt, t1.Drives, t1.Wall
		} else {
			if t1.Virt != row.Virt || t1.Drives != row.Drives {
				return row, fmt.Errorf("obs: bare remote runs diverged: virt %v/%v drives %d/%d",
					t1.Virt, row.Virt, t1.Drives, row.Drives)
			}
			if t1.Wall < row.OffWall {
				row.OffWall = t1.Wall
			}
		}

		// On half: same workload with the full flight stack attached.
		c = cfg.Table1
		c.CollectMetrics = true
		var (
			reg     *pia.MetricsRegistry
			st      *obsStack
			hookErr error
		)
		c.OnMetrics = func(r *pia.MetricsRegistry) { reg = r }
		c.OnCluster = func(cl *pia.Cluster) {
			st, hookErr = newObsStack(reg, cfg.WatchInterval)
			if hookErr != nil {
				return
			}
			cl.EnableFlight(st.obs)
			cl.EnableCostAttribution(reg, cfg.TopN)
		}
		t1, err = Remote(c, proto.LevelWord)
		if hookErr != nil {
			return row, hookErr
		}
		if err != nil {
			st.sampler.Stop()
			st.watch.close()
			return row, fmt.Errorf("obs: remote on run %d: %w", r, err)
		}
		if err := st.stop(&row); err != nil {
			return row, err
		}
		if t1.Virt != row.Virt || t1.Drives != row.Drives {
			return row, fmt.Errorf("obs: instrumented remote diverged: virt %v want %v, drives %d want %d",
				t1.Virt, row.Virt, t1.Drives, row.Drives)
		}
		if r == 0 || t1.Wall < row.OnWall {
			row.OnWall = t1.Wall
		}
	}
	row.DigestsOK = true
	row.OverheadPct = overheadPct(row.OffWall, row.OnWall)
	return row, nil
}

// obsSessionsLeg holds the steady multi-tenant leg with metrics wired
// (the baseline) and then fully instrumented. Every tenant's drive
// digest is checked against its isolated single-session reference in
// both variants, so equality with observers attached is enforced per
// tenant.
func obsSessionsLeg(cfg ObsConfig) (ObsRow, error) {
	scfg := cfg.Sessions
	workers := 0
	if len(scfg.Workers) > 0 {
		workers = scfg.Workers[len(scfg.Workers)-1]
	}
	row := ObsRow{Leg: "sessions-steady", Workers: workers}

	refs, err := scfg.references()
	if err != nil {
		return row, err
	}

	for r := 0; r < cfg.Runs; r++ {
		// Off half of the pair: metrics wired, no flight stack.
		wall, steps, err := obsSteadyRun(scfg, service.Config{
			Workers: workers,
			Metrics: metrics.NewRegistry(),
		}, refs)
		if err != nil {
			return row, fmt.Errorf("obs: sessions off run %d: %w", r, err)
		}
		if r == 0 || wall < row.OffWall {
			row.OffWall = wall
		}
		row.Steps = steps

		// On half: same catalog workload with the full flight stack.
		reg := metrics.NewRegistry()
		st, err := newObsStack(reg, cfg.WatchInterval)
		if err != nil {
			return row, err
		}
		wall, steps, err = obsSteadyRun(scfg, service.Config{
			Workers:         workers,
			Metrics:         reg,
			Flight:          st.obs,
			AttributionTopN: cfg.TopN,
		}, refs)
		if err != nil {
			st.sampler.Stop()
			st.watch.close()
			return row, fmt.Errorf("obs: sessions on run %d: %w", r, err)
		}
		if err := st.stop(&row); err != nil {
			return row, err
		}
		if steps != row.Steps {
			return row, fmt.Errorf("obs: instrumented sessions step count diverged: %d want %d", steps, row.Steps)
		}
		if r == 0 || wall < row.OnWall {
			row.OnWall = wall
		}
	}
	row.DigestsOK = true
	row.OverheadPct = overheadPct(row.OffWall, row.OnWall)
	return row, nil
}

// obsSteadyRun is the steady fair-share serving pattern of the
// sessions benchmark under an arbitrary catalog config: hold every
// tenant live, advance all of them in interleaved StepChunk quanta
// until done, and digest-check each against its isolated reference.
func obsSteadyRun(cfg SessionsConfig, svc service.Config, refs []uint64) (time.Duration, int64, error) {
	cat := service.NewCatalog(svc)
	defer cat.Close()

	start := time.Now()
	ids := make([]string, cfg.Sessions)
	for i := range ids {
		info, err := cat.Create(cfg.spec(i))
		if err != nil {
			return 0, 0, fmt.Errorf("create %d: %w", i, err)
		}
		ids[i] = info.ID
	}
	done := make(map[string]service.Info, len(ids))
	maxRounds := int(vtime.Duration(cfg.Rounds+3)*10*vtime.Millisecond/cfg.StepChunk) + 4
	for round := 0; len(done) < len(ids); round++ {
		if round > maxRounds {
			return 0, 0, fmt.Errorf("stuck after %d rounds (%d/%d done)", round, len(done), len(ids))
		}
		for _, id := range ids {
			if _, ok := done[id]; ok {
				continue
			}
			info, err := cat.Step(id, 0, cfg.StepChunk)
			if err != nil {
				return 0, 0, fmt.Errorf("step %s: %w", id, err)
			}
			if info.State == service.StateDone {
				done[id] = info
			}
		}
	}
	wall := time.Since(start)
	var steps int64
	for i, id := range ids {
		info := done[id]
		steps += info.Steps
		if info.DigestU64 != refs[i%cfg.Seeds] {
			return 0, 0, fmt.Errorf("tenant %s digest %016x, want %016x", id, info.DigestU64, refs[i%cfg.Seeds])
		}
	}
	return wall, steps, nil
}
