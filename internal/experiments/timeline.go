package experiments

import (
	"bytes"
	"fmt"
	"time"

	pia "repro"
	"repro/internal/proto"
	"repro/internal/timeline"
	"repro/internal/vtime"
)

// chaosTimelineResult is the outcome of the chaos-timeline scenario:
// the faulty two-node run with per-node timeline recorders wired, a
// scripted checkpoint-restore rewind, and the merged canonical export.
type chaosTimelineResult struct {
	Row ChaosRow // the instrumented faulty leg

	// Trace is the merged canonical Perfetto JSON: both nodes'
	// committed events on the virtual clock, with cross-node
	// send/delivery pairs stitched into flow arrows. Byte-identical
	// across reruns with the same seed.
	Trace []byte

	// Events is the merged canonical event list behind Trace, for
	// callers that want to assert on structure rather than bytes.
	Events []timeline.Event

	// Canonical counts the committed events in the merge; Flows the
	// committed cross-node sends and Delivers the committed deliveries
	// (the scenario pairs them all: every arrow is complete); Rewinds
	// the rewind markers (>= 1: the scenario scripts one).
	Canonical int
	Flows     int
	Delivers  int
	Rewinds   int

	// Evicted sums ring evictions over both recorders. The scenario
	// sizes the rings so this stays 0 — eviction order interleaves
	// wall-timing-dependent transient events, so a run that evicts
	// cannot promise byte-identical canonical exports.
	Evicted uint64
}

// ChaosTimeline runs the chaos experiment's faulty leg (remote word
// level under deterministic WAN faults with session recovery) with the
// timeline recorders enabled, then scripts a deterministic rewind.
//
// The workload is two page loads. Load 1 crosses nodes (the full
// radio + DMA word transfer); load 2 is served from the handheld's
// page cache, so its history is handheld-local. Between the loads the
// handheld captures a tagged checkpoint; once both loads have
// completed and been verified, the handheld is rolled back to it.
// Load 2 drops out of the committed view and a single rewind marker
// spanning the discarded-future window takes its place — while every
// one of load 1's cross-node send/delivery pairs survives, so the
// merged export has only complete flow arrows. All virtual times are
// pure functions of the seed, so the merged canonical export is
// byte-identical run to run.
func ChaosTimeline(c ChaosConfig) (chaosTimelineResult, error) {
	// Load 2 is a cache hit: it never leaves the handheld.
	s, err := c.withDefaults().faultyStand(2)
	if err != nil {
		return chaosTimelineResult{}, err
	}
	defer s.sys.Close()
	// Ring large enough that nothing is evicted: determinism of the
	// canonical bytes depends on the full committed history surviving.
	s.cl.EnableTimeline(1 << 20)

	end := s.horizon()
	// Find the inter-load boundary without knowing it a priori: step
	// the horizon in fixed virtual increments until load 1 has
	// rendered. The stopping step is determined only by the workload's
	// virtual behaviour, so the capture point is a pure function of
	// the config — load 1's deliveries all precede it (they precede
	// the render), and load 2 (>= the recognizer's burn alone, far
	// longer than one step) cannot also have completed inside the
	// discovery step, so a discarded future is guaranteed to exist.
	step := pia.Time(5 * vtime.Millisecond)
	start := time.Now()
	for at := step; ; at += step {
		if at > end {
			return chaosTimelineResult{}, fmt.Errorf("chaos-timeline: load 1 incomplete by horizon %v", end)
		}
		if err := s.sys.Run(at); err != nil {
			return chaosTimelineResult{}, err
		}
		if s.app.Result().Loads >= 1 {
			break
		}
	}
	// Both schedulers are quiescent at the stepped horizon, so the
	// capture lands at a virtual time determined only by the workload.
	hh := s.cl.Subsystems["handheld"]
	cs, err := hh.CaptureNow("scripted-rewind")
	if err != nil {
		return chaosTimelineResult{}, err
	}
	_, res, err := s.load()
	if err != nil {
		return chaosTimelineResult{}, fmt.Errorf("chaos-timeline: %w", err)
	}
	wall := time.Since(start)
	if res.CacheHits == 0 {
		// The all-arrows-complete guarantee depends on load 2 staying
		// on the handheld; a cache miss would commit unmatched sends.
		return chaosTimelineResult{}, fmt.Errorf("chaos-timeline: load 2 missed the page cache")
	}
	// Scripted rewind, after the result is in: roll the handheld
	// subsystem back to the inter-load checkpoint. Everything it
	// recorded past the capture point — load 2 — leaves the committed
	// view; the rewind marker documents the discarded window.
	if err := hh.RestoreCheckpoint(cs); err != nil {
		return chaosTimelineResult{}, err
	}

	out := chaosTimelineResult{
		Row: ChaosRow{Mode: "faulty+timeline", Wall: wall, Virt: res.LoadVirt[0], Drives: res.DMADrives},
	}
	batches := make([][]timeline.Event, 0, 2)
	for _, rec := range s.cl.Timelines() {
		batches = append(batches, rec.Events())
		out.Evicted += rec.Stats().Evicted
	}
	merged := timeline.Canonical(timeline.MergeEvents(batches...))
	out.Events = merged
	out.Canonical = len(merged)
	for _, e := range merged {
		switch e.Kind {
		case timeline.KindSend:
			out.Flows++
		case timeline.KindDeliver:
			out.Delivers++
		case timeline.KindRewind:
			out.Rewinds++
		}
	}
	var buf bytes.Buffer
	if err := timeline.WritePerfetto(&buf, merged, timeline.ExportOptions{}); err != nil {
		return chaosTimelineResult{}, err
	}
	out.Trace = buf.Bytes()
	return out, nil
}

// TimelineOverhead measures what the timeline costs on the Table 1
// remote word-level leg: the same workload with recorders off and on.
// The virtual result must be bit-identical — instrumentation may cost
// wall clock, never simulation correctness.
func TimelineOverhead(c Table1Config) (off, on Table1Row, err error) {
	plain := c
	plain.Timeline = false
	if off, err = Remote(plain, proto.LevelWord); err != nil {
		return off, on, err
	}
	instr := c
	instr.Timeline = true
	if on, err = Remote(instr, proto.LevelWord); err != nil {
		return off, on, err
	}
	off.Location, on.Location = "remote", "remote+timeline"
	return off, on, on.outcome().against(off.outcome(), "timeline-overhead: the recorded leg")
}
