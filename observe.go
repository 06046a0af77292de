package pia

import (
	"errors"
	"io"
	"time"

	"repro/internal/debug"
	"repro/internal/flight"
	"repro/internal/iss"
	"repro/internal/metrics"
	"repro/internal/timeline"
)

// Observability and debugging surface.

// errTimelineDisabled is returned by WriteTimeline when EnableTimeline
// was never called.
var errTimelineDisabled = errors.New("pia: timeline not enabled")

type (
	// MetricsRegistry is the unified metrics surface: counters,
	// gauges, and histograms from every layer (scheduler, channel
	// endpoints, wire connections, fault links, resilient sessions),
	// collected on demand by Snapshot/WriteJSON/WritePrometheus. A
	// nil registry is inert, which is the zero-overhead disabled
	// path.
	MetricsRegistry = metrics.Registry
	// MetricSample is one metric value at snapshot time.
	MetricSample = metrics.Sample
	// MetricBucket is one cumulative histogram bucket in a sample.
	MetricBucket = metrics.Bucket
)

// NewMetricsRegistry creates an empty metrics registry. Pass it to
// Simulation.EnableMetrics / Cluster.EnableMetrics / Node metrics
// wiring, then read it with Snapshot or serve it over HTTP (see
// cmd/pianode's -metrics flag).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// defaultMetrics is the process-wide registry behind pia.Metrics():
// the convenience surface for programs with one simulation. Tests and
// multi-simulation processes should pass their own registry to
// EnableMetrics instead, or successive runs will stack collectors
// with colliding series names.
var defaultMetrics = metrics.NewRegistry()

// DefaultMetrics returns the process-wide default registry (the one
// EnableMetrics(nil) wires into and Metrics() snapshots).
func DefaultMetrics() *MetricsRegistry { return defaultMetrics }

// Metrics returns a snapshot of the process-default registry, sorted
// by metric name. Safe to call at any time, including while
// simulations run.
func Metrics() []MetricSample { return defaultMetrics.Snapshot() }

// EnableMetrics wires every subsystem scheduler and channel hub of
// the simulation into reg and returns the registry used. A nil reg
// selects the process-default registry (the one pia.Metrics()
// reads). Call between BuildLocal and Run.
func (sim *Simulation) EnableMetrics(reg *MetricsRegistry) *MetricsRegistry {
	if reg == nil {
		reg = defaultMetrics
	}
	for _, name := range sim.subOrder {
		sim.Subsystems[name].EnableMetrics(reg)
		sim.Hubs[name].EnableMetrics(reg)
	}
	return reg
}

type (
	// TimelineRecorder is the one event recorder: lifecycle intervals
	// and causal edges keyed by virtual time (drives with their values,
	// channel send/delivery flows, checkpoint/restore/rewind markers,
	// runlevel switches, protocol and WAN fault chatter), bounded and
	// rewind-aware. Its Events feed every exporter: WriteTimeline here,
	// and the waveform one in internal/timeline (WriteVCD).
	TimelineRecorder = timeline.Recorder
	// TimelineEvent is one recorded timeline event.
	TimelineEvent = timeline.Event
	// TimelineExportOptions controls the Perfetto exporter.
	TimelineExportOptions = timeline.ExportOptions
)

// NewTimelineRecorder creates a timeline recorder retaining at most
// limit events (<= 0 selects the default ring size). Pass it to
// Simulation.EnableTimeline or Node wiring before running.
func NewTimelineRecorder(limit int) *TimelineRecorder { return timeline.NewRecorder(limit) }

// EnableTimeline wires every subsystem scheduler, channel hub, and
// detail engine of the simulation into rec and returns the recorder
// used (a fresh default-sized one when rec is nil). Call between
// BuildLocal and Run; with the timeline never enabled the hot paths
// pay one nil test and stay allocation-free.
func (sim *Simulation) EnableTimeline(rec *TimelineRecorder) *TimelineRecorder {
	if rec == nil {
		rec = NewTimelineRecorder(0)
	}
	sim.timelineRec = rec
	sim.flightRec.AttachTimeline(rec)
	for _, name := range sim.subOrder {
		sim.Subsystems[name].EnableTimeline(rec)
		sim.Hubs[name].EnableTimeline(rec)
		if e := sim.Engines[name]; e != nil {
			e.EnableTimeline(rec)
		}
	}
	return rec
}

// Timeline returns the recorder wired by EnableTimeline, or nil.
func (sim *Simulation) Timeline() *TimelineRecorder { return sim.timelineRec }

// WriteTimeline writes the simulation's canonical timeline as
// Perfetto/Chrome trace JSON: virtual time is the primary clock, and
// only the committed, reproducible event kinds are included, so the
// bytes are identical across reruns of a deterministic run. For the
// full view (stalls, protocol chatter, wall clocks) export through
// the recorder directly with TimelineExportOptions.
func (sim *Simulation) WriteTimeline(w io.Writer) error {
	rec := sim.timelineRec
	if rec == nil {
		return errTimelineDisabled
	}
	return timeline.WritePerfetto(w, timeline.Canonical(rec.Events()), timeline.ExportOptions{})
}

type (
	// FlightRecorder is the bounded black-box ring correlating recent
	// timeline events, metric deltas, and health transitions; it
	// streams each transition to SSE /watch subscribers (Watch is the
	// handler; slow clients are dropped, never waited on), and on a
	// failure trigger it freezes into a self-contained JSON
	// post-mortem. A nil recorder is inert.
	FlightRecorder = flight.Recorder
	// FlightSampler periodically snapshots a registry and feeds
	// metric deltas to a recorder.
	FlightSampler = flight.Sampler
	// FlightDump is a frozen post-mortem document.
	FlightDump = flight.Dump
)

// NewFlightRecorder creates a flight recorder retaining at most size
// ring entries (<= 0 selects the default).
func NewFlightRecorder(size int) *FlightRecorder { return flight.New(size) }

// NewFlightSampler wires a registry to a recorder at the given
// cadence (<= 0 selects the default). Call Start to begin sampling and
// Stop to halt.
func NewFlightSampler(reg *MetricsRegistry, rec *FlightRecorder, every time.Duration) *FlightSampler {
	return flight.NewSampler(reg, rec, every)
}

// EnableFlight wires the simulation's failure triggers into the
// recorder: every subsystem's optimistic throttle collapse (a
// rollback storm) records and trips, and the simulation's timeline
// recorder (enabled before or after this call) is attached so
// post-mortems carry the event tail. Call between BuildLocal and Run.
// A nil recorder leaves the hot paths untouched.
func (sim *Simulation) EnableFlight(r *FlightRecorder) {
	if r == nil {
		return
	}
	sim.flightRec = r
	r.AttachTimeline(sim.timelineRec)
	for _, name := range sim.subOrder {
		r.TripOnRollbackStorm(sim.Subsystems[name])
	}
}

// EnableCostAttribution turns on per-component wall-clock cost
// attribution for every subsystem: monotonic stamps around each
// dispatch, aggregated into per-component histograms, lifetime
// totals, and a top-N ranking in reg (nil selects the process-default
// registry). topN <= 0 defaults to 5. Call between BuildLocal and
// Run.
func (sim *Simulation) EnableCostAttribution(reg *MetricsRegistry, topN int) *MetricsRegistry {
	if reg == nil {
		reg = defaultMetrics
	}
	for _, name := range sim.subOrder {
		sim.Subsystems[name].EnableCostAttribution(reg, topN)
	}
	return reg
}

type (
	// Debugger adds breakpoints, watchpoints, stepping and
	// inspection to a subsystem.
	Debugger = debug.Debugger
	// Breakpoint pauses a run on a condition over component local
	// times.
	Breakpoint = debug.Breakpoint
	// Watchpoint pauses a run when a net is driven.
	Watchpoint = debug.Watchpoint
	// DebugHit explains why a debugged run paused.
	DebugHit = debug.Hit
)

// NewDebugger attaches a debugger to a subsystem.
func NewDebugger(sub *Subsystem) *Debugger { return debug.New(sub) }

// Instruction set simulator surface.

type (
	// ISSCPU is an instruction-set-simulator component.
	ISSCPU = iss.CPU
	// ISSInstr is a decoded instruction.
	ISSInstr = iss.Instr
)

// AssembleISS assembles RISC source text into program words for an
// ISSCPU.
func AssembleISS(src string) ([]uint32, error) { return iss.Assemble(src) }

// DisassembleISS renders program words back to text.
func DisassembleISS(prog []uint32) []string { return iss.Disassemble(prog) }
