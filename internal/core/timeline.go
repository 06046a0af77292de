package core

import "repro/internal/timeline"

// EnableTimeline attaches the structured span/event recorder to this
// subsystem's lifecycle: net drives, checkpoint captures, restores
// (with the rewind marker covering the discarded-future window),
// runlevel switches, and scheduler stall/resume transitions. It only
// stores the recorder; each of those sites emits into it directly, and
// with the timeline never enabled the drive fanout hot path pays one
// nil test — zero allocations, same as with metrics disabled. Call
// before running.
func (s *Subsystem) EnableTimeline(rec *timeline.Recorder) {
	if rec != nil {
		s.tlRec = rec
	}
}

// Timeline returns the recorder attached with EnableTimeline, or nil.
func (s *Subsystem) Timeline() *timeline.Recorder { return s.tlRec }
