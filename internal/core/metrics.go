package core

import (
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// schedMetrics holds the push-side instruments the scheduler samples
// once per loop iteration. Per-component lag gauges live on the
// components themselves (created at EnableMetrics time, or lazily for
// components added mid-run — live migration adopts and removes
// components while the scheduler is between rounds), so the Run loop
// does no map lookups or string work — just atomic stores behind a
// single nil check.
type schedMetrics struct {
	reg      *metrics.Registry
	runnable *metrics.Gauge // components currently runnable
	now      *metrics.Gauge // published subsystem virtual time (ns)
}

// EnableMetrics wires the subsystem into reg. Scheduler counters
// (steps, deliveries, drives, stalls, checkpoints, restores, parallel
// rounds, bytes on nets) are exported pull-style via a collector over
// the race-safe Stats() accessor; per-component virtual-time lag
// (local − system) and the runnable-set size are sampled push-style
// once per scheduler round, on the scheduler goroutine, where those
// values are coherent.
//
// Call after all components are created and before Run. Enabling is
// idempotent per subsystem; with metrics never enabled the scheduler
// pays a single nil check per round and the components pay nothing.
func (s *Subsystem) EnableMetrics(reg *metrics.Registry) {
	if reg == nil || s.mSched != nil {
		return
	}
	m := &schedMetrics{
		reg:      reg,
		runnable: reg.Gauge(metrics.Label("pia_sched_runnable", "sub", s.name)),
		now:      reg.Gauge(metrics.Label("pia_sched_now_ns", "sub", s.name)),
	}
	for _, c := range s.order {
		c.mLag = reg.Gauge(metrics.Label("pia_comp_lag_ns", "sub", s.name, "comp", c.name))
	}
	name := s.name
	reg.AddCollector(func(emit func(metrics.Sample)) {
		st := s.Stats()
		for _, kv := range []struct {
			metric string
			v      int64
		}{
			{"pia_sched_steps", st.Steps},
			{"pia_sched_deliveries", st.Deliveries},
			{"pia_sched_drives", st.Drives},
			{"pia_sched_stalls", st.Stalls},
			{"pia_sched_checkpoints", st.Checkpoints},
			{"pia_sched_restores", st.Restores},
			{"pia_sched_par_rounds", st.ParRounds},
			{"pia_optimistic_rounds", st.SpecRounds},
			{"pia_optimistic_members", st.SpecMembers},
			{"pia_optimistic_commits", st.SpecCommits},
			{"pia_optimistic_rollbacks", st.Rollbacks},
			{"pia_optimistic_rolled_back_events", st.RolledBack},
		} {
			emit(metrics.Sample{
				Name:  metrics.Label(kv.metric, "sub", name),
				Kind:  metrics.KindCounter,
				Value: kv.v,
			})
		}
	})
	s.mSched = m
}

// sampleMetrics publishes the per-round gauges. Runs on the scheduler
// goroutine right after the runnable scan, where every component is
// parked and local times are stable. Components created after
// EnableMetrics (subsystems hosted before their fragment is built, or
// adopted by live migration) get their gauge on first sample; a
// removed component's gauge simply stops updating.
func (s *Subsystem) sampleMetrics() {
	m := s.mSched
	m.runnable.Set(int64(len(s.active)))
	m.now.Set(int64(s.now))
	for _, c := range s.order {
		if c.mLag == nil {
			c.mLag = m.reg.Gauge(metrics.Label("pia_comp_lag_ns", "sub", s.name, "comp", c.name))
		}
		lag := vtime.Duration(0)
		if c.localTime > s.now {
			lag = c.localTime.Sub(s.now)
		}
		c.mLag.Set(int64(lag))
	}
}
