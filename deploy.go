package pia

import (
	"io"
	"time"

	"repro/internal/node"
	"repro/internal/timeline"
)

// Node re-exports the Pia node type for distributed deployments.
type Node = node.Node

// NewNode creates a Pia node.
func NewNode(name string) *Node { return node.New(name) }

// Cluster is a system realized across Pia nodes: a Simulation whose
// subsystems live on (possibly several) nodes, with cross-node
// channels carried over TCP.
type Cluster struct {
	Simulation
	Nodes map[string]*Node // subsystem -> hosting node

	nodeSet   []*Node
	timelines map[string]*TimelineRecorder // node name -> recorder
}

// BuildOnNodes realizes the description across the given nodes:
// placement maps every subsystem name to the node hosting it.
// Subsystem pairs on the same node are bridged in-process; pairs on
// different nodes get a TCP channel (the accepting node listens on an
// ephemeral loopback port). It is BuildLocal's build with a placement.
func (b *SystemBuilder) BuildOnNodes(placement map[string]*Node) (*Cluster, error) {
	if placement == nil { // places nothing, which is an error here, not a local build
		placement = map[string]*Node{}
	}
	return b.build(placement)
}

// EnableMetrics wires the whole cluster into reg and returns reg:
// every hosted subsystem and hub (via each node), plus the node-level
// surfaces a local Simulation does not have — wire connections,
// fault-injection links, and resilient sessions. A nil reg wires
// nothing. Call between BuildOnNodes and Run.
func (cl *Cluster) EnableMetrics(reg *MetricsRegistry) *MetricsRegistry {
	for _, n := range cl.nodeSet {
		n.EnableMetrics(reg)
	}
	return reg
}

// EnableTimeline gives every node of the cluster its own timeline
// recorder (stamped with the node name so merged exports attribute
// events unambiguously) retaining at most limit events each (<= 0
// selects the default ring size). Each node's hosted subsystems,
// channel hubs, fault links, and resilient sessions feed its
// recorder; detail engines feed the recorder of their hosting node.
// Call between BuildOnNodes and Run. Idempotent.
func (cl *Cluster) EnableTimeline(limit int) map[string]*TimelineRecorder {
	if cl.timelines != nil {
		return cl.timelines
	}
	cl.timelines = make(map[string]*TimelineRecorder, len(cl.nodeSet))
	for _, n := range cl.nodeSet {
		rec := timeline.NewRecorder(limit)
		n.EnableTimeline(rec)
		cl.timelines[n.Name()] = rec
	}
	for _, name := range cl.subOrder {
		if e := cl.Engines[name]; e != nil {
			e.EnableTimeline(cl.timelines[cl.Nodes[name].Name()])
		}
	}
	return cl.timelines
}

// EnableFlight wires the cluster's failure triggers into the
// recorder: each node's peer-loss detection (a resumable session
// exhausting its transport) and every subsystem's optimistic throttle
// collapse record and trip. Each node offers the recorder its metrics
// registry and timeline recorder (enabled before or after this call)
// and the flight recorder keeps the first of each, so post-mortems
// carry the event tail of the first node (in subsystem declaration
// order) that has one. Call between BuildOnNodes and Run. A nil
// recorder leaves the hot paths untouched.
func (cl *Cluster) EnableFlight(r *FlightRecorder) {
	if r == nil {
		return
	}
	for _, n := range cl.nodeSet {
		n.EnableFlight(r)
	}
	cl.Simulation.EnableFlight(r)
}

// Timelines returns the per-node recorders wired by EnableTimeline,
// keyed by node name, or nil when the timeline is disabled.
func (cl *Cluster) Timelines() map[string]*TimelineRecorder { return cl.timelines }

// WriteTimeline merges every node's timeline and writes the canonical
// committed view as Perfetto/Chrome trace JSON: virtual time is the
// primary clock, cross-node sends and deliveries are stitched into
// flow arrows, and only reproducible event kinds are included, so the
// bytes are identical across same-seed reruns.
func (cl *Cluster) WriteTimeline(w io.Writer) error {
	if cl.timelines == nil {
		return errTimelineDisabled
	}
	batches := make([][]timeline.Event, 0, len(cl.nodeSet))
	for _, n := range cl.nodeSet {
		batches = append(batches, cl.timelines[n.Name()].Events())
	}
	merged := timeline.Canonical(timeline.MergeEvents(batches...))
	return timeline.WritePerfetto(w, merged, timeline.ExportOptions{})
}

// Run executes the cluster's subsystems, iterating rounds until
// quiescent like Simulation.Run; TCP flushing is awaited with a
// small backoff.
func (cl *Cluster) Run(until Time) error {
	return cl.Simulation.runRounds(until, func() { time.Sleep(200 * time.Microsecond) })
}

// Close tears down the cluster: channels, subsystems, nodes.
func (cl *Cluster) Close() error {
	err := cl.Simulation.Close()
	for _, n := range cl.nodeSet {
		if cerr := n.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
