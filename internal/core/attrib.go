package core

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

// costBounds are the per-step wall-latency histogram edges in
// nanoseconds: 1µs … 100ms. Component steps are user Run/Recv
// bodies, so the interesting range spans "trivial state flip" to
// "accidentally quadratic".
var costBounds = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

// attribEntry pins one component's identity for the pull collector.
// The collector reads only the component's atomic cost counter, never
// scheduler-owned state, so it is safe from any goroutine.
type attribEntry struct {
	sub  string
	comp string
	c    *Component
}

// costAttrib is the per-component wall-cost attribution sink: the
// input signal for the mesh placement-policy follow-up ("which
// component is hot, and where should it live"). Dispatch sites stamp
// a monotonic clock around each step and feed the elapsed wall time
// here; the registry pulls totals and a top-N ranking at snapshot
// time.
type costAttrib struct {
	reg  *metrics.Registry
	topN int

	mu      sync.Mutex
	entries []attribEntry
}

// EnableCostAttribution turns on per-component wall-clock cost
// attribution, registering per-component step-latency histograms
// (`pia_comp_cost_ns`), lifetime totals
// (`pia_comp_cost_ns_total{sub,comp}`), and a top-N ranking computed
// at snapshot time (`pia_comp_cost_top{sub,rank,comp}`, topN <= 0
// defaults to 5). Call between runs, like EnableMetrics; idempotent.
// Speculative steps that later roll back still count — the wall time
// was really spent, and attribution feeds metrics, never digests.
func (s *Subsystem) EnableCostAttribution(reg *metrics.Registry, topN int) {
	if reg == nil || s.attrib != nil {
		return
	}
	if topN <= 0 {
		topN = 5
	}
	reg.SetHelp("pia_comp_cost_ns", "Wall nanoseconds per component step (histogram).")
	reg.SetHelp("pia_comp_cost_ns_total", "Total wall nanoseconds attributed to a component's steps.")
	reg.SetHelp("pia_comp_cost_top", "Top-N components by attributed wall cost; value is total nanoseconds, rank 1 is hottest.")
	a := &costAttrib{reg: reg, topN: topN}
	s.attrib = a
	reg.AddCollector(a.collect)
}

// stepTimed dispatches one component step, stamping wall time around
// it when attribution is on. The disabled path is the nil check and a
// direct call — no clock reads, no allocation.
func (s *Subsystem) stepTimed(c *Component, key vtime.Time) {
	a := s.attrib
	if a == nil {
		s.step(c, key)
		return
	}
	t0 := time.Now()
	s.step(c, key)
	a.note(s, c, time.Since(t0).Nanoseconds())
}

// note folds one step's elapsed wall time into the component's
// accumulators. The enabled steady-state path (histogram already
// created) performs only atomic adds — 0 allocs/op, CI-guarded.
func (a *costAttrib) note(s *Subsystem, c *Component, dt int64) {
	c.costNS.Add(dt)
	h := c.mCost
	if h == nil {
		// First dispatch for this component under attribution:
		// register its histogram and pin it for the collector. Only
		// one dispatcher steps a given component at a time, so this
		// races with nothing on c.
		h = a.reg.Histogram(metrics.Label("pia_comp_cost_ns", "sub", s.name, "comp", c.name), costBounds)
		c.mCost = h
		a.mu.Lock()
		a.entries = append(a.entries, attribEntry{sub: s.name, comp: c.name, c: c})
		a.mu.Unlock()
	}
	h.Observe(dt)
}

// collect is the pull collector: per-component lifetime totals plus
// the top-N ranking, computed from the atomic counters at snapshot
// time so the dispatch path never sorts anything.
func (a *costAttrib) collect(emit func(metrics.Sample)) {
	a.mu.Lock()
	entries := append([]attribEntry(nil), a.entries...)
	a.mu.Unlock()

	type row struct {
		e attribEntry
		v int64
	}
	rows := make([]row, 0, len(entries))
	for _, e := range entries {
		v := e.c.costNS.Load()
		emit(metrics.Sample{
			Name:  metrics.Label("pia_comp_cost_ns_total", "sub", e.sub, "comp", e.comp),
			Kind:  metrics.KindCounter,
			Value: v,
		})
		rows = append(rows, row{e, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].e.comp < rows[j].e.comp // deterministic ties
	})
	n := a.topN
	if n > len(rows) {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		emit(metrics.Sample{
			Name: metrics.Label("pia_comp_cost_top",
				"sub", rows[i].e.sub,
				"rank", strconv.Itoa(i+1),
				"comp", rows[i].e.comp),
			Kind:  metrics.KindGauge,
			Value: rows[i].v,
		})
	}
}
