package node

import (
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// EnableMetrics wires the surfaces the node itself owns into reg,
// pull-style — walked at snapshot time, so objects created later are
// covered: its wire connections, fault-injection links and resilient
// sessions. A hosted subsystem and its hub are wired by whoever built
// them (Simulation.EnableMetrics, a tenant's own registry), so a node
// serving tenant after tenant adds nothing to reg per tenant.
// Idempotent per node.
func (n *Node) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	n.mu.Lock()
	if n.metricsReg != nil {
		n.mu.Unlock()
		return
	}
	n.metricsReg = reg
	n.mu.Unlock()

	name := n.name
	counter := func(emit func(metrics.Sample), metric string, v int64, kv ...string) {
		emit(metrics.Sample{
			Name:  metrics.Label(metric, append([]string{"node", name}, kv...)...),
			Kind:  metrics.KindCounter,
			Value: v,
		})
	}

	// Wire connections: per-node totals across every conn epoch the
	// node has opened or accepted.
	reg.AddCollector(func(emit func(metrics.Sample)) {
		ws := n.WireStats()
		counter(emit, "pia_wire_bytes_in", ws.BytesIn)
		counter(emit, "pia_wire_bytes_out", ws.BytesOut)
		counter(emit, "pia_wire_frames_in", ws.FramesIn)
		counter(emit, "pia_wire_frames_out", ws.FramesOut)
	})

	// Fault links: one series set per link, keyed by the link's
	// deterministic schedule name.
	reg.AddCollector(func(emit func(metrics.Sample)) {
		for _, l := range n.FaultLinks() {
			st := l.Stats()
			link := l.Name()
			counter(emit, "pia_fault_frames", st.Frames, "link", link)
			counter(emit, "pia_fault_forwarded", st.Forwarded, "link", link)
			counter(emit, "pia_fault_dropped", st.Dropped, "link", link)
			counter(emit, "pia_fault_duplicated", st.Duplicated, "link", link)
			counter(emit, "pia_fault_reordered", st.Reordered, "link", link)
			counter(emit, "pia_fault_corrupted", st.Corrupted, "link", link)
			counter(emit, "pia_fault_cuts", st.Cuts, "link", link)
			counter(emit, "pia_fault_bytes_shaped", st.BytesShaped, "link", link)
		}
	})

	// Resilient sessions: node-wide totals plus the liveness pair the
	// /healthz endpoint is built on.
	reg.AddCollector(func(emit func(metrics.Sample)) {
		rs := n.ResilienceStats()
		counter(emit, "pia_session_epoch_deaths", rs.EpochDeaths)
		counter(emit, "pia_session_dial_attempts", rs.DialAttempts)
		counter(emit, "pia_session_resumes", rs.Resumes)
		counter(emit, "pia_session_replayed_frames", rs.ReplayedFrames)
		counter(emit, "pia_session_rewinds", rs.Rewinds)
		counter(emit, "pia_session_gap_kills", rs.GapKills)
		counter(emit, "pia_session_crc_kills", rs.CrcKills)
		counter(emit, "pia_session_dup_frames_in", rs.DupFramesIn)
		counter(emit, "pia_session_frames_out", rs.FramesOut)
		counter(emit, "pia_session_frames_in", rs.FramesIn)
		counter(emit, "pia_session_heartbeats_out", rs.HeartbeatsOut)
		total, alive := n.SessionHealth()
		emit(metrics.Sample{
			Name:  metrics.Label("pia_sessions", "node", name),
			Kind:  metrics.KindGauge,
			Value: int64(total),
		})
		emit(metrics.Sample{
			Name:  metrics.Label("pia_sessions_alive", "node", name),
			Kind:  metrics.KindGauge,
			Value: int64(alive),
		})
	})

	n.wireObservers()
}

// SessionHealth reports how many resilient sessions the node owns and
// how many of them are still alive (not terminally failed). A session
// riding out an outage — dead connection epoch, redial in progress —
// counts as alive; only an exhausted retry budget, an unresumable
// gap, or a peer refusal moves it to dead.
func (n *Node) SessionHealth() (total, alive int) {
	n.mu.Lock()
	sessions := append([]*resilience.Session(nil), n.sessions...)
	n.mu.Unlock()
	for _, s := range sessions {
		total++
		if s.Alive() {
			alive++
		}
	}
	return total, alive
}
