package flight

import (
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// defaultInterval is the sampling cadence when NewSampler is given a
// non-positive interval.
const defaultInterval = time.Second

// Sampler periodically snapshots a metrics registry, computes which
// samples changed since the previous tick, and feeds the deltas to
// the flight recorder: into its ring, and to its watchers as one
// "metrics" frame per tick. An optional Poll hook runs first on every
// tick so callers can fold in checks that are not registry-driven
// (e.g. mesh quorum health).
//
// The sampler owns its goroutine; the scheduler, merge loop, and
// scrape path never run sampling work.
type Sampler struct {
	reg      *metrics.Registry
	rec      *Recorder
	interval time.Duration

	mu   sync.Mutex
	poll func()
	prev map[string]int64 // exactly the series of the latest snapshot

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewSampler wires a registry to a recorder (which may be nil). The
// interval defaults to defaultInterval if non-positive.
func NewSampler(reg *metrics.Registry, rec *Recorder, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = defaultInterval
	}
	return &Sampler{
		reg:      reg,
		rec:      rec,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// SetPoll installs a hook run at the start of every tick (before the
// registry snapshot). Used by pianode's mesh mode to trip the
// recorder on quorum loss.
func (s *Sampler) SetPoll(f func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.poll = f
	s.mu.Unlock()
}

// tick runs one sampling pass synchronously: poll hook, snapshot,
// delta computation, publication. Exported so tests and one-shot
// callers can sample deterministically without the goroutine.
func (s *Sampler) tick() {
	if s == nil {
		return
	}
	s.mu.Lock()
	poll := s.poll
	s.mu.Unlock()
	if poll != nil {
		poll()
	}
	s.sample()
}

// sample snapshots the registry and records what changed since the
// previous sample. A series absent from the snapshot is forgotten, so
// one that comes back is reported afresh, its delta its whole value.
func (s *Sampler) sample() {
	snap := s.reg.Snapshot()

	s.mu.Lock()
	var changed []metricDelta
	seen := make(map[string]int64, len(snap))
	for _, sm := range snap {
		// Histogram detail stays in /metrics; the stream carries the
		// observation count so watchers still see activity.
		seen[sm.Name] = sm.Value
		old, ok := s.prev[sm.Name]
		if sm.Value == old && ok {
			continue
		}
		changed = append(changed, metricDelta{
			Name:  sm.Name,
			Value: sm.Value,
			Delta: sm.Value - old,
		})
	}
	s.prev = seen
	s.mu.Unlock()
	// Deterministic order for the ring and the stream.
	sort.Slice(changed, func(i, j int) bool { return changed[i].Name < changed[j].Name })
	s.rec.recordMetrics(changed)
}

// Start launches the sampling goroutine. Idempotent.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					// A run shorter than the cadence still streams its
					// closing deltas. The poll hook is skipped: it judges
					// live health, and a peer leaving at shutdown is not
					// a failure to trip on.
					s.sample()
					return
				case <-t.C:
					s.tick()
				}
			}
		}()
	})
}

// Stop halts the sampling goroutine, which takes one final sample
// first, and waits for it to exit. Idempotent; safe on a sampler that
// was never started.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: unblock Stop
	<-s.done
}
