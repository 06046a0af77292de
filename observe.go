package pia

import (
	"errors"
	"io"

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
)

// NewMetricsRegistry creates an empty metrics registry. Pass it to
// Simulation.EnableMetrics / Cluster.EnableMetrics / Node metrics
// wiring, then read it with Snapshot or serve it over HTTP (see
// cmd/pianode's -metrics flag).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// EnableMetrics wires every subsystem scheduler and channel hub of
// the simulation into reg and returns reg. A nil reg wires nothing.
// Call between BuildLocal and Run.
func (sim *Simulation) EnableMetrics(reg *MetricsRegistry) *MetricsRegistry {
	for _, name := range sim.subOrder {
		sim.Subsystems[name].EnableMetrics(reg)
		sim.Hubs[name].EnableMetrics(reg)
	}
	return reg
}

// TimelineRecorder is the one event recorder: lifecycle intervals and
// causal edges keyed by virtual time (drives with their values, channel
// send/delivery flows, checkpoint/restore/rewind markers, runlevel
// switches, protocol and WAN fault chatter), bounded and rewind-aware.
// Its Events feed every exporter: WriteTimeline here, and the waveform
// one in internal/timeline (WriteVCD).
type TimelineRecorder = timeline.Recorder

// EnableTimeline wires every subsystem scheduler, channel hub, and
// detail engine of the simulation into rec and returns the recorder
// used (a fresh default-sized one when rec is nil). Call between
// BuildLocal and Run; with the timeline never enabled the hot paths
// pay one nil test and stay allocation-free.
func (sim *Simulation) EnableTimeline(rec *TimelineRecorder) *TimelineRecorder {
	if rec == nil {
		rec = timeline.NewRecorder(0)
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
// the recorder directly with timeline.ExportOptions.
func (sim *Simulation) WriteTimeline(w io.Writer) error {
	rec := sim.timelineRec
	if rec == nil {
		return errTimelineDisabled
	}
	return timeline.WritePerfetto(w, timeline.Canonical(rec.Events()), timeline.ExportOptions{})
}

// FlightRecorder is the bounded black-box ring correlating recent
// timeline events, metric deltas, and health transitions; it streams
// each transition to SSE /watch subscribers (Watch is the handler; slow
// clients are dropped, never waited on), and on a failure trigger it
// freezes into a self-contained JSON post-mortem. A nil recorder is
// inert.
type FlightRecorder = flight.Recorder

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
// totals, and a top-N ranking in reg, which it returns; a nil reg
// attributes nothing. topN <= 0 defaults to 5. Call between BuildLocal
// and Run.
func (sim *Simulation) EnableCostAttribution(reg *MetricsRegistry, topN int) *MetricsRegistry {
	for _, name := range sim.subOrder {
		sim.Subsystems[name].EnableCostAttribution(reg, topN)
	}
	return reg
}

// Debugger adds breakpoints, watchpoints, stepping and inspection to a
// subsystem.
type Debugger = debug.Debugger

// NewDebugger attaches a debugger to a subsystem.
func NewDebugger(sub *Subsystem) *Debugger { return debug.New(sub) }

// Instruction set simulator surface.

// ISSCPU is an instruction-set-simulator component.
type ISSCPU = iss.CPU

// AssembleISS assembles RISC source text into program words for an
// ISSCPU.
func AssembleISS(src string) ([]uint32, error) { return iss.Assemble(src) }

// DisassembleISS renders program words back to text.
func DisassembleISS(prog []uint32) []string { return iss.Disassemble(prog) }
