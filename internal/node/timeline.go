package node

import (
	"errors"
	"os"

	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/timeline"
)

// EnableTimeline attaches a timeline recorder to everything this node
// owns: every hosted subsystem (scheduler lifecycle events) and its
// hub (channel protocol events), every faultnet link, the resilient
// listener and every resilient session — existing ones immediately,
// future ones as they are created. The node itself records each
// channel it opens, accepts, refuses, loses or rewinds as a session
// event. The recorder is stamped with the node's name so per-node
// timeline files merge unambiguously.
//
// Idempotent per node; with the timeline never enabled the hot paths
// pay one nil test. In any order with EnableMetrics and EnableFlight,
// recorder health counters are exported through the registry and the
// recorder's tail is embedded in flight post-mortems.
func (n *Node) EnableTimeline(rec *timeline.Recorder) {
	if rec == nil {
		return
	}
	rec.SetNode(n.name)
	n.mu.Lock()
	if n.tlRec != nil {
		n.mu.Unlock()
		return
	}
	n.tlRec = rec
	hosted := make([]*Hosted, 0, len(n.hosted))
	for _, h := range n.hosted {
		hosted = append(hosted, h)
	}
	flinks := append([]*faultnet.Link(nil), n.flinks...)
	sessions := append([]*resilience.Session(nil), n.sessions...)
	rln := n.rln
	n.mu.Unlock()

	for _, h := range hosted {
		h.Sub.EnableTimeline(rec)
		h.Hub.EnableTimeline(rec)
	}
	for _, l := range flinks {
		l.SetTimeline(rec)
	}
	for _, s := range sessions {
		s.SetTimeline(rec)
	}
	if rln != nil {
		rln.SetTimeline(rec)
	}
	n.wireObservers()
}

// Timeline returns the recorder wired by EnableTimeline, or nil.
func (n *Node) Timeline() *timeline.Recorder {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tlRec
}

// WriteTimeline writes the node's timeline as a per-node native JSON
// file at path, ready for cross-node merging (timeline.MergeFiles or
// `pianode -timeline-merge`).
func (n *Node) WriteTimeline(path string) error {
	rec := n.Timeline()
	if rec == nil {
		return errors.New("timeline: nil recorder")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteNative(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireObservers cross-wires whichever of the node's three
// observability handles exist so far: the recorder's health counters
// are exported through the registry, and the flight recorder embeds
// the registry's snapshot and the recorder's tail in its post-mortems.
// EnableMetrics, EnableTimeline and EnableFlight each call it after
// storing their own handle, so every call order wires the same thing.
func (n *Node) wireObservers() {
	n.mu.Lock()
	reg, rec, fr := n.metricsReg, n.tlRec, n.flightRec
	export := reg != nil && rec != nil && !n.tlMetricsOn
	if export {
		n.tlMetricsOn = true
	}
	name := n.name
	n.mu.Unlock()

	fr.AttachRegistry(reg)
	fr.AttachTimeline(rec)
	if !export {
		return
	}
	reg.AddCollector(func(emit func(metrics.Sample)) {
		st := rec.Stats()
		metrics.EmitCounters(emit, []string{"node", name},
			metrics.KV{Name: "pia_timeline_recorded", Value: int64(st.Recorded)},
			metrics.KV{Name: "pia_timeline_evicted", Value: int64(st.Evicted)},
			metrics.KV{Name: "pia_timeline_rewind_dropped", Value: int64(st.RewindDropped)},
			metrics.KV{Name: "pia_timeline_buffered", Value: int64(st.Buffered)},
		)
	})
}
