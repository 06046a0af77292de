// Package pia is the public API of the Pia geographically distributed
// co-simulation framework — a reproduction of Hines & Borriello,
// "A Geographically Distributed Framework for Embedded System Design
// and Validation" (DAC 1998).
//
// A system is described once, in the designer's view: components with
// ports, nets connecting them, and a placement of every component
// onto a named subsystem. The builder then realizes the description
// either locally (all subsystems in one process, bridged by in-memory
// channels), across Pia nodes connected over TCP, or one subsystem at
// a time for a process of a split deployment. Nets crossing
// subsystem boundaries are split automatically — each fragment gets a
// hidden port owned by a channel endpoint, exactly as in the paper —
// and virtual time is coordinated with conservative (safe-time) or
// optimistic (checkpoint/rollback) channels.
//
//	b := pia.NewSystem("demo")
//	b.AddComponent("cpu", "handheld", cpuBehavior, "bus")
//	b.AddComponent("modem", "basestation", modemBehavior, "bus")
//	b.AddNet("bus", 0, "cpu.bus", "modem.bus")
//	sim, err := b.BuildLocal()
//	err = sim.Run(pia.Seconds(1))
//
// The subpackages remain internal; what a program built on the
// framework calls is re-exported here, and nothing else.
package pia

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/detail"
	"repro/internal/faultnet"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/resilience"
	"repro/internal/snapshot"
	"repro/internal/timeline"
	"repro/internal/vtime"
)

// Re-exported core types: see the internal packages for full
// documentation.
type (
	// Proc is the execution context of a component behaviour.
	Proc = core.Proc
	// Behavior is a component's functionality.
	Behavior = core.Behavior
	// BehaviorFunc adapts a function to Behavior.
	BehaviorFunc = core.BehaviorFunc
	// Subsystem is a scheduler plus a fragment of the design.
	Subsystem = core.Subsystem
	// Time is virtual time; Duration a span of it.
	Time = vtime.Time
	// Duration is a span of virtual time.
	Duration = vtime.Duration
	// Policy selects conservative or optimistic channels.
	Policy = channel.Policy
	// LinkModel prices traffic crossing a channel.
	LinkModel = channel.LinkModel
	// Engine evaluates switchpoints for a subsystem.
	Engine = detail.Engine
	// Agent coordinates distributed snapshots.
	Agent = snapshot.Agent
)

// Re-exported constants and helpers.
const (
	// Infinity is later than every schedulable event.
	Infinity = vtime.Infinity
	// Conservative channels never violate causality.
	Conservative = channel.Conservative
	// Optimistic channels run ahead and roll back.
	Optimistic = channel.Optimistic
)

// GobSave / GobRestore implement core.StateSaver for gob-encodable
// state.
func GobSave(v any) ([]byte, error)       { return core.GobSave(v) }
func GobRestore(v any, data []byte) error { return core.GobRestore(v, data) }

// Milliseconds, Microseconds and Seconds build virtual durations.
func Seconds(n int64) Duration      { return Duration(n) * vtime.Second }
func Milliseconds(n int64) Duration { return Duration(n) * vtime.Millisecond }
func Microseconds(n int64) Duration { return Duration(n) * vtime.Microsecond }

// Predefined link models.
var (
	LoopbackLink = channel.LoopbackLink
	LANLink      = channel.LANLink
)

// CoalesceConfig caps, in wire bytes, the frames a channel's egress is
// written into; see channel.CoalesceConfig.
type CoalesceConfig = channel.CoalesceConfig

// DefaultCoalesce is the frame cap every channel starts with: a frame
// the peer's 32 KB receive buffer holds whole.
var DefaultCoalesce = channel.DefaultCoalesce

// FaultConfig describes deterministic fault injection on cross-node
// links; see faultnet.Config. The zero value injects nothing.
type FaultConfig = faultnet.Config

// FaultPartition is one scripted partition/heal cut in a fault
// schedule; see faultnet.Partition.
type FaultPartition = faultnet.Partition

// FaultStats counts what one faulty link did to its traffic.
type FaultStats = faultnet.Stats

// ResilienceConfig tunes heartbeat liveness, reconnect backoff and
// session-resume retention on cross-node links; see resilience.Config.
// The zero value disables resilience (plain TCP).
type ResilienceConfig = resilience.Config

// ResilienceStats aggregates session-layer recovery counters.
type ResilienceStats = resilience.Stats

// SystemBuilder accumulates the designer's view of a system.
type SystemBuilder struct {
	name string
	d    design.System
	refs []graph.PortRef // AddNet's parse scratch

	coalesce    CoalesceConfig
	coalesceSet bool

	faults    FaultConfig
	faultsSet bool
	resil     ResilienceConfig
	resilSet  bool

	err error
}

// NewSystem starts a system description.
func NewSystem(name string) *SystemBuilder {
	return &SystemBuilder{
		name: name,
		d: design.System{
			Comps:   make(map[string]*design.Component),
			View:    graph.NewView(),
			Default: design.Channel{Policy: Conservative, Link: LoopbackLink},
			PerPair: make(map[[2]string]design.Channel),
		},
	}
}

// AddComponent places a component with the given ports on a
// subsystem.
func (b *SystemBuilder) AddComponent(name, subsystem string, bhv Behavior, ports ...string) *SystemBuilder {
	if b.err != nil {
		return b
	}
	if name == "" || subsystem == "" || bhv == nil {
		b.err = fmt.Errorf("pia: component %q needs a name, a subsystem and a behaviour", name)
		return b
	}
	if _, dup := b.d.Comps[name]; dup {
		b.err = fmt.Errorf("pia: duplicate component %q", name)
		return b
	}
	b.d.Comps[name] = &design.Component{Name: name, Behavior: bhv, Ports: ports}
	b.d.Order = append(b.d.Order, name)
	if err := b.d.View.AddComponent(name, subsystem); err != nil {
		b.err = err
	}
	return b
}

// SetRunlevel sets a component's initial detail level.
func (b *SystemBuilder) SetRunlevel(component, level string) *SystemBuilder {
	if b.err != nil {
		return b
	}
	c := b.d.Comps[component]
	if c == nil {
		b.err = fmt.Errorf("pia: SetRunlevel of unknown component %q", component)
		return b
	}
	c.Runlevel = level
	return b
}

// AddNet connects ports (written "component.port") with a net of the
// given propagation delay.
func (b *SystemBuilder) AddNet(name string, delay Duration, portRefs ...string) *SystemBuilder {
	if b.err != nil {
		return b
	}
	if b.d.View.HasNet(name) {
		b.err = fmt.Errorf("pia: duplicate net %q", name)
		return b
	}
	b.refs = b.refs[:0]
	for _, ref := range portRefs {
		comp, port, ok := splitRef(ref)
		if !ok {
			b.err = fmt.Errorf("pia: net %q: bad port reference %q (want component.port)", name, ref)
			return b
		}
		c := b.d.Comps[comp]
		if c == nil {
			b.err = fmt.Errorf("pia: net %q references unknown component %q", name, comp)
			return b
		}
		if !slices.Contains(c.Ports, port) {
			b.err = fmt.Errorf("pia: net %q references unknown port %q on %q", name, port, comp)
			return b
		}
		b.refs = append(b.refs, graph.PortRef{Component: comp, Port: port})
	}
	if err := b.d.View.AddNet(name, delay, b.refs...); err != nil {
		b.err = err
	}
	return b
}

// SetDefaultChannel sets the policy and link model used for every
// subsystem pair without an explicit override.
func (b *SystemBuilder) SetDefaultChannel(p Policy, link LinkModel) *SystemBuilder {
	b.d.Default = design.Channel{Policy: p, Link: link}
	return b
}

// SetChannel overrides policy and link for one subsystem pair.
func (b *SystemBuilder) SetChannel(subA, subB string, p Policy, link LinkModel) *SystemBuilder {
	if subA > subB {
		subA, subB = subB, subA
	}
	b.d.PerPair[[2]string{subA, subB}] = design.Channel{Policy: p, Link: link}
	return b
}

// SetCoalescing replaces DefaultCoalesce on every cross-node channel
// the build creates; the zero CoalesceConfig is one frame per message.
// In-process channels (pipes) keep the default. The benchmark harness
// sets the default explicitly through it; it goes once that call does.
func (b *SystemBuilder) SetCoalescing(cfg CoalesceConfig) *SystemBuilder {
	b.coalesce = cfg
	b.coalesceSet = true
	return b
}

// SetFaults arms deterministic fault injection on every cross-node
// link the build creates: each node wraps its TCP dials and accepts in
// a faultnet.Link seeded from cfg.Seed and the link name, so the same
// seed reproduces the same fault schedule. In-process channels are
// unaffected. Usually paired with SetResilience so the simulation
// survives the injected faults.
func (b *SystemBuilder) SetFaults(cfg FaultConfig) *SystemBuilder {
	b.faults = cfg
	b.faultsSet = true
	return b
}

// SetResilience makes every cross-node link a resumable session:
// heartbeat liveness detection, reconnect with jittered exponential
// backoff, sequence-numbered replay of unacked frames, and a
// checkpoint-backed rewind when the retention window cannot cover a
// gap. Applied to every node in the placement, so both ends of each
// link agree.
func (b *SystemBuilder) SetResilience(cfg ResilienceConfig) *SystemBuilder {
	b.resil = cfg
	b.resilSet = true
	return b
}

// SetWorkers sets the scheduler worker-pool size applied to every
// subsystem the build creates. With n > 0 each subsystem dispatches
// safe-horizon rounds of independent components to n workers; 0 (the
// default) keeps the classic sequential scheduler. Results are
// bit-for-bit identical either way; see core.Subsystem.SetWorkers.
func (b *SystemBuilder) SetWorkers(n int) *SystemBuilder {
	b.d.Workers = n
	return b
}

// SetOptimism sets the optimistic (Time Warp) window applied to every
// subsystem the build creates. With w > 0 and a worker pool
// configured, rounds whose conservative safe cohort would leave
// workers idle dispatch checkpointable components speculatively up to
// w past the safe horizon, rolling mis-speculations back at merge
// time; results stay bit-identical to the sequential scheduler. 0
// (the default) keeps rounds purely conservative. See
// core.Subsystem.SetOptimism.
func (b *SystemBuilder) SetOptimism(w Duration) *SystemBuilder {
	b.d.Optimism = vtime.Duration(w)
	return b
}

// Err returns the first accumulated builder error.
func (b *SystemBuilder) Err() error { return b.err }

func splitRef(ref string) (comp, port string, ok bool) {
	i := strings.LastIndex(ref, ".")
	if i <= 0 || i == len(ref)-1 {
		return "", "", false
	}
	return ref[:i], ref[i+1:], true
}

// Simulation is a locally built system: every subsystem in this
// process, channels over in-memory pipes.
type Simulation struct {
	Name       string
	Subsystems map[string]*core.Subsystem
	Hubs       map[string]*channel.Hub
	Agents     map[string]*snapshot.Agent
	Engines    map[string]*detail.Engine

	subOrder []string

	// timelineRec, when non-nil, is the recorder wired by
	// EnableTimeline. For clusters each node owns its own recorder
	// instead (see Cluster.EnableTimeline).
	timelineRec *timeline.Recorder

	// flightRec, when non-nil, is the flight recorder handed to
	// EnableFlight; EnableTimeline attaches its recorder to it, so the
	// two calls work in either order.
	flightRec *flight.Recorder
}

// BuildLocal realizes the description in-process. Conservative
// channel topologies are validated against the paper's
// simple-cycles-only rule.
func (b *SystemBuilder) BuildLocal() (*Simulation, error) {
	cl, err := b.build(nil)
	if err != nil {
		return nil, err
	}
	return &cl.Simulation, nil
}

// build realizes the description: view, partition, topology check,
// subsystems, populate, bridge and bind, agents, engines. placement
// maps every subsystem to the node hosting it; a nil placement hosts
// nothing, so every subsystem gets a hub of its own and every channel
// is an in-process pipe — which is also what two subsystems on the same
// node get. Subsystems on different nodes get a TCP channel, the
// accepting node listening on an ephemeral loopback port.
func (b *SystemBuilder) build(placement map[string]*Node) (*Cluster, error) {
	splits, chans, err := b.partition()
	if err != nil {
		return nil, err
	}
	v := b.d.View

	cl := &Cluster{Simulation: Simulation{
		Name:       b.name,
		Subsystems: make(map[string]*core.Subsystem),
		Hubs:       make(map[string]*channel.Hub),
		Agents:     make(map[string]*snapshot.Agent),
		Engines:    make(map[string]*detail.Engine),
	}}
	var addrs map[*Node]string // accepting node -> its listen address
	if placement != nil {
		for _, subName := range v.Subsystems() {
			if placement[subName] == nil {
				return nil, b.d.Unhosted(subName)
			}
		}
		cl.Nodes = make(map[string]*Node)
		addrs = make(map[*Node]string)
	}
	for _, subName := range v.Subsystems() {
		s := b.d.NewSubsystem(subName)
		cl.Subsystems[subName] = s
		cl.subOrder = append(cl.subOrder, subName)
		n := placement[subName]
		if n == nil {
			cl.Hubs[subName] = channel.NewHub(s)
			continue
		}
		cl.Hubs[subName] = n.Host(s).Hub
		cl.Nodes[subName] = n
		if !slices.Contains(cl.nodeSet, n) {
			cl.nodeSet = append(cl.nodeSet, n)
		}
	}
	for _, subName := range cl.subOrder {
		if err := b.d.Populate(cl.Subsystems[subName], splits); err != nil {
			return nil, err
		}
	}
	for _, n := range cl.nodeSet {
		if b.coalesceSet {
			n.SetCoalescing(b.coalesce)
		}
		if b.faultsSet {
			n.SetFaults(b.faults)
		}
		if b.resilSet {
			n.SetResilience(b.resil)
		}
	}

	// Bridge the crossing nets.
	for _, cs := range chans {
		cfg := b.d.Channel(cs.A, cs.B)
		na, nb := placement[cs.A], placement[cs.B]
		var epA, epB *channel.Endpoint
		if na == nb {
			epA, epB, err = channel.Connect(cl.Hubs[cs.A], cl.Hubs[cs.B], cfg.Policy, cfg.Link)
			if err != nil {
				return nil, err
			}
		} else {
			addr, listening := addrs[nb]
			if !listening {
				if addr, err = nb.Listen("127.0.0.1:0"); err != nil {
					return nil, err
				}
				addrs[nb] = addr
			}
			if epA, err = na.Connect(cs.A, addr, cs.B, cfg.Policy, cfg.Link); err != nil {
				return nil, err
			}
			if epB = cl.Hubs[cs.B].Endpoint(cs.A); epB == nil {
				return nil, fmt.Errorf("pia: handshake for %s<->%s left no endpoint", cs.A, cs.B)
			}
		}
		for _, netName := range cs.Nets {
			if err := epA.BindNet(cl.Subsystems[cs.A].Net(netName), netName); err != nil {
				return nil, err
			}
			if err := epB.BindNet(cl.Subsystems[cs.B].Net(netName), netName); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range cl.nodeSet {
		n.FinishAgents()
	}
	for name, s := range cl.Subsystems {
		if n := cl.Nodes[name]; n != nil {
			cl.Agents[name] = n.Hosted(name).Agent
		} else {
			cl.Agents[name] = snapshot.NewAgent(cl.Hubs[name])
		}
		cl.Engines[name] = detail.NewEngine(s)
	}
	return cl, nil
}

// BuildSubsystem realizes one subsystem of the description on its
// own: the components the description places on name, in description
// order with their runlevels, and name's fragment of every net,
// crossing nets included, which the caller binds to a channel
// endpoint. It makes no hub, node or channel. This is how a split
// deployment runs its slice of the one description: each process
// describes the whole system and builds the subsystem it hosts.
func (b *SystemBuilder) BuildSubsystem(name string) (*Subsystem, error) {
	splits, _, err := b.partition()
	if err != nil {
		return nil, err
	}
	if !b.d.Places(name) {
		return nil, fmt.Errorf("pia: the description places nothing on subsystem %q", name)
	}
	s := b.d.NewSubsystem(name)
	if err := b.d.Populate(s, splits); err != nil {
		return nil, err
	}
	return s, nil
}

// partition checks the description and cuts it into per-subsystem net
// fragments and the channels joining them, validating the channel
// topology.
func (b *SystemBuilder) partition() ([]graph.Split, []graph.ChannelSpec, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	return b.d.Partition()
}

// Design returns the description the builder holds, or its first
// error. It is how a mesh member reads the one description it builds
// its slice of and re-partitions at every placement epoch.
func (b *SystemBuilder) Design() (*design.System, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &b.d, nil
}

// Subsystem returns a built subsystem by name.
func (sim *Simulation) Subsystem(name string) *core.Subsystem { return sim.Subsystems[name] }

// SubsystemNames returns the subsystem names, sorted.
func (sim *Simulation) SubsystemNames() []string {
	out := append([]string(nil), sim.subOrder...)
	sort.Strings(out)
	return out
}

// Component locates a component anywhere in the simulation.
func (sim *Simulation) Component(name string) *core.Component {
	for _, s := range sim.Subsystems {
		if c := s.Component(name); c != nil {
			return c
		}
	}
	return nil
}

// Run executes every subsystem concurrently until the horizon.
// Distributed simulations require a finite horizon; a horizon of
// Infinity is only legal for single-subsystem systems (whose runs
// terminate when all work is exhausted).
//
// For multi-subsystem simulations Run iterates rounds until the
// system is quiescent: every message any channel emitted has reached
// its peer and been fully processed. This makes Run deterministic for
// optimistic channels too, whose subsystems otherwise return from a
// finite-horizon run as soon as their local work is exhausted,
// possibly before in-flight traffic lands.
func (sim *Simulation) Run(until Time) error {
	return sim.runRounds(until, runtime.Gosched)
}

// runRounds is the shared round loop behind Simulation.Run and
// Cluster.Run; backoff is called while waiting for transports to
// flush.
func (sim *Simulation) runRounds(until Time, backoff func()) error {
	if until == Infinity && len(sim.subOrder) > 1 {
		return errors.New("pia: multi-subsystem simulations need a finite horizon (see Simulation.Run)")
	}
	// Every round writes each entry of errs and drains done, so both
	// serve every round.
	errs := make([]error, len(sim.subOrder))
	done := make(chan int, len(sim.subOrder))
	for {
		for i, name := range sim.subOrder {
			go func(i int, s *core.Subsystem) {
				errs[i] = s.Run(until)
				done <- i
			}(i, sim.Subsystems[name])
		}
		// A subsystem back with an error — its own, or one a channel
		// latched after dropping what it held — may leave a peer
		// stalled on a grant that never comes, so the others are
		// stopped rather than waited for, and the first error is the
		// run's, not the ErrStopped of the subsystems stopped for it.
		// A latched channel error is the cause of its subsystem's stop,
		// so it is looked at first. The latch stops the subsystem that
		// owns the endpoint, so at least that one does come back.
		var first error
		for range sim.subOrder {
			i := <-done
			if first != nil {
				continue
			}
			if first = sim.channelErr(); first == nil {
				first = errs[i]
			}
			if first != nil {
				sim.Stop()
			}
		}
		if first != nil {
			return first
		}
		if len(sim.subOrder) == 1 {
			return nil
		}
		if quiet, err := sim.quiesce(backoff); quiet || err != nil {
			return err
		}
	}
}

// quiesce waits for the transports to flush and reports whether every
// channel message has been handled; false means another round is
// needed. A channel that latched an error — a value with no wire
// codec, a dead transport, a protocol violation — will never deliver
// what it dropped, so that error ends the wait and the run.
func (sim *Simulation) quiesce(backoff func()) (bool, error) {
	// Wait until everything sent has at least reached the peer's
	// injection queue (in-memory pipes flush promptly).
	for !sim.flushed() {
		if err := sim.channelErr(); err != nil {
			return false, err
		}
		backoff()
	}
	for _, name := range sim.subOrder {
		for _, ep := range sim.Hubs[name].Endpoints() {
			if ep.QueuedCount() != ep.HandledCount() {
				return false, nil
			}
		}
	}
	return true, sim.channelErr()
}

// channelErr returns the first error latched by any channel endpoint.
func (sim *Simulation) channelErr() error {
	for _, name := range sim.subOrder {
		for _, ep := range sim.Hubs[name].Endpoints() {
			if err := ep.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushed reports whether, for every channel pair, the peer has
// enqueued everything this side sent.
func (sim *Simulation) flushed() bool {
	for _, name := range sim.subOrder {
		for _, ep := range sim.Hubs[name].Endpoints() {
			peerHub := sim.Hubs[ep.Peer()]
			if peerHub == nil {
				continue
			}
			back := peerHub.Endpoint(name)
			if back == nil {
				continue
			}
			if back.QueuedCount() < ep.SentCount() {
				return false
			}
		}
	}
	return true
}

// Stop aborts all subsystem runs.
func (sim *Simulation) Stop() {
	for _, s := range sim.Subsystems {
		s.Stop()
	}
}

// Close announces completion on every channel and unwinds component
// goroutines. Call when done with the simulation.
func (sim *Simulation) Close() error {
	var first error
	for _, h := range sim.Hubs {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range sim.Subsystems {
		s.Teardown()
	}
	return first
}
