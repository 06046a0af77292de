package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/timeline"
	"repro/internal/vtime"
)

// Errors reported by the subsystem scheduler.
var (
	// ErrStopped is returned by Run when Stop was called.
	ErrStopped = errors.New("core: run stopped")
	// errNoCheckpoint is reported when a rollback finds no
	// checkpoint at or before the requested time.
	errNoCheckpoint = errors.New("core: no checkpoint at or before requested time")
	// errNotCheckpointable is reported when a live component's
	// behaviour does not implement StateSaver and a checkpoint is
	// requested, or an image is restored that needs one.
	errNotCheckpointable = errors.New("core: component behaviour does not implement StateSaver")
	// errNotRunning is delivered to an InjectCtl reject callback when
	// the run loop exited before the control action could execute.
	errNotRunning = errors.New("core: subsystem run loop has exited")
)

// gateQuiescer is optionally implemented by gates that hold
// obligations toward the peer (outstanding safe-time asks). A
// subsystem finishing a finite-horizon run waits until every such
// gate reports Quiesced, so the peer is never stranded waiting for a
// grant that will no longer come.
type gateQuiescer interface {
	Quiesced() bool
}

// Gate is an external constraint on how far the subsystem may advance
// its virtual time — the scheduler side of a conservative channel.
// Before executing an action at time t the scheduler checks every
// gate; if some gate's Bound is below t it calls Request(t) and waits
// (the gate must call the subsystem's Wake when its bound rises).
type Gate interface {
	// Name identifies the gate in traces.
	Name() string
	// Bound returns the time up to which the subsystem may currently
	// advance, exclusive of nothing: advancing to exactly Bound() is
	// allowed. Must be cheap and safe to call from the scheduler
	// goroutine.
	Bound() vtime.Time
	// Request asks the gate, asynchronously, to raise its bound to at
	// least t. The gate calls Subsystem.Wake once the bound changes.
	Request(t vtime.Time)
}

// injectedItem is one queued external action: a control function
// (channel ingress processing, snapshot marks). Items are executed on
// the scheduler goroutine in arrival order.
type injectedItem struct {
	// fn is the control action. Returning true means "retry me": the
	// item is re-queued at the front, typically because it requested
	// a rollback that must complete first.
	fn func() bool

	// reject, when non-nil, marks a control action with a liveness
	// guarantee (InjectCtl): if the run loop exits before executing
	// fn, reject is called with errNotRunning instead of leaving the
	// item stranded in the queue.
	reject func(error)
}

// Subsystem is a fragment of the embedded system design under test,
// together with the scheduler object that enforces the local timing
// semantics. A Pia node contains one or more subsystems.
type Subsystem struct {
	name string

	comps map[string]*Component
	order []*Component
	nets  map[string]*Net

	now vtime.Time

	// gates is copy-on-write: a node accepting a channel adds one
	// while the scheduler goroutine is ranging over the list.
	gates    atomic.Pointer[[]Gate]
	external int // count of ingress sources that may still inject

	// Parallel execution (see parallel.go). workers is the size of
	// the pool a Run owns when none is attached (0 = sequential);
	// fastOK gates the inline fast paths and parallel rounds on the
	// absence of a per-step hook. attached is the host-wide pool set
	// by SetPool, fair-shared with other subsystems (see pool.go);
	// pool is the one the current Run dispatches into — attached, or
	// the run's own; nil when sequential.
	workers   int
	fastOK    bool
	attached  *SharedPool
	pool      *SharedPool
	roundWG   sync.WaitGroup
	active    []*Component // runnable index, lazily compacted
	members   []*Component // scratch: current round membership
	mergeRefs []opRef      // scratch: merge ordering
	bufFree   []*workerBuf

	// Optimistic (Time Warp) execution: see optimistic.go. optimism
	// is the configured window W past the safe horizon within which
	// checkpointable components may be dispatched speculatively;
	// 0 (the default) keeps rounds purely conservative. effOpt is the
	// adaptively throttled window actually used, optCool the number
	// of rounds left before a fully collapsed window is retried, and
	// optClean the clean-round streak that earns regrowth.
	optimism    vtime.Duration
	optThrottle bool
	effOpt      vtime.Duration
	optCool     int
	optClean    int
	// Straggler-detection scratch: the generation stamp validating
	// per-component delivery minima, and the non-runnable components
	// touched by the current round's deliveries.
	specGen     uint64
	specTouched []*Component

	// extGen counts external requests (stop, injections, rollback
	// and checkpoint requests). Components cache it when resumed and
	// abandon their inline fast paths the moment it moves, so every
	// external request still gets absorbed at a scheduler loop top.
	extGen atomic.Uint64

	// cross-goroutine state, guarded by mu
	mu       sync.Mutex
	cond     *sync.Cond
	injected []injectedItem
	stopReq  bool
	rbTime   vtime.Time // pending rollback-to-before time; Infinity = none
	rbComp   string     // pending component-relative rollback: component name
	rbCompT  vtime.Time // ... and the local time it must rewind to or before
	wakeGen  uint64

	// injFree, the cleared array of the injections last routed, is the
	// next queue: queueing allocates nothing. Swapped under mu.
	injFree []injectedItem

	// published lower bounds, readable from any goroutine
	pubNow atomic.Int64
	pubKey atomic.Int64

	// checkpointing
	ckptTags    []string // pending checkpoint requests (tag per request)
	doneTags    map[string]bool
	ckptNextID  uint64
	checkpoints []*CheckpointSet
	ckptKeep    int
	ckptIncr    bool // incremental (dedupe unchanged states)
	autoCkpt    vtime.Duration
	lastAuto    vtime.Time

	// hooks
	OnStep    func(now vtime.Time)                       // called after every scheduling step
	OnPublish func(now, key vtime.Time)                  // called on the scheduler goroutine after each publish
	OnDrive   func(net, src string, t vtime.Time, v any) // called for every net drive (debugger watchpoints, running digests)
	OnDepart  func(until vtime.Time)                     // called right before Run returns at a finite horizon
	OnStall   func()                                     // called right before the scheduler blocks waiting for input

	// OnThrottleCollapse fires on the scheduler goroutine when the
	// optimistic throttle collapses the speculation window to zero
	// (a rollback storm: more than half the speculative cohort
	// aborted and the halving bottomed out). The flight recorder
	// treats it as a failure trigger. Unlike OnStep it does not
	// disable the fast paths: it only runs on an already-slow round.
	OnThrottleCollapse func(spec, aborted int)

	running bool
	fatal   error

	// accepting, guarded by mu, is true whenever a run loop is (or
	// will be) draining the injection queue: from construction until
	// a Run exit, and again from the next Run entry. While false,
	// InjectCtl rejects instead of queueing — the caller learns
	// immediately that no scheduler will ever service the action.
	accepting bool

	// departGate, guarded by mu, is an extra finite-horizon departure
	// condition (beyond the safe-time protocol's gatesDrained): Run
	// stalls at the horizon until it reports true. The node layer
	// uses it to hold the scheduler alive while resumable sessions
	// still retain unacked egress or owe a negotiated rewind — state
	// that, lost with a dead connection, needs this scheduler to
	// replay. Wake() re-evaluates it.
	departGate func(vtime.Time) bool

	stats Stats

	// mSched, when non-nil, holds the per-round metric gauges (see
	// metrics.go). Nil means metrics are disabled and the scheduler
	// loop pays one nil check per round, nothing more.
	mSched *schedMetrics

	// tlRec, when non-nil, is the timeline recorder stored by
	// EnableTimeline. The drive, checkpoint, restore, runlevel, stall
	// and resume sites emit into it directly; its emitters are no-ops
	// on a nil receiver, so the disabled path costs one nil test.
	tlRec *timeline.Recorder

	// attrib, when non-nil, is the per-component wall-cost
	// attribution sink wired in by EnableCostAttribution (see
	// attrib.go). Disabled path: one nil check per dispatch in
	// stepTimed, no stamps, no allocation.
	attrib *costAttrib
}

// Stats accumulates scheduler counters for benchmarks and reports.
type Stats struct {
	Steps       int64 // component resumptions
	Deliveries  int64 // messages handed to Recv
	Drives      int64 // net drives
	Stalls      int64 // times the scheduler waited on a gate or input
	Checkpoints int64
	Restores    int64
	ParRounds   int64 // parallel rounds dispatched to the worker pool
	BytesOnNets int64

	// Optimistic (Time Warp) counters: see optimistic.go.
	SpecRounds  int64 // rounds that dispatched at least one speculative member
	SpecMembers int64 // components dispatched speculatively past the horizon
	SpecCommits int64 // speculative dispatches whose effects committed
	Rollbacks   int64 // speculative dispatches undone by stragglers
	RolledBack  int64 // buffered effects discarded by those rollbacks
}

// NewSubsystem creates an empty subsystem.
func NewSubsystem(name string) *Subsystem {
	s := &Subsystem{
		name:      name,
		comps:     make(map[string]*Component),
		nets:      make(map[string]*Net),
		rbTime:    vtime.Infinity,
		ckptKeep:  8,
		accepting: true,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Name returns the subsystem's name.
func (s *Subsystem) Name() string { return s.name }

// Now returns the subsystem's virtual time. It is always <= the local
// time of every component in the subsystem.
func (s *Subsystem) Now() vtime.Time { return s.now }

// Stats returns a copy of the scheduler counters. Safe from any
// goroutine: the counters are written atomically (worker goroutines
// and components on the inline fast path update them too).
func (s *Subsystem) Stats() Stats {
	return Stats{
		Steps:       atomic.LoadInt64(&s.stats.Steps),
		Deliveries:  atomic.LoadInt64(&s.stats.Deliveries),
		Drives:      atomic.LoadInt64(&s.stats.Drives),
		Stalls:      atomic.LoadInt64(&s.stats.Stalls),
		Checkpoints: atomic.LoadInt64(&s.stats.Checkpoints),
		Restores:    atomic.LoadInt64(&s.stats.Restores),
		ParRounds:   atomic.LoadInt64(&s.stats.ParRounds),
		BytesOnNets: atomic.LoadInt64(&s.stats.BytesOnNets),
		SpecRounds:  atomic.LoadInt64(&s.stats.SpecRounds),
		SpecMembers: atomic.LoadInt64(&s.stats.SpecMembers),
		SpecCommits: atomic.LoadInt64(&s.stats.SpecCommits),
		Rollbacks:   atomic.LoadInt64(&s.stats.Rollbacks),
		RolledBack:  atomic.LoadInt64(&s.stats.RolledBack),
	}
}

// SetWorkers sets the size of the parallel-round worker pool: with
// n > 0 and no pool attached, Run owns a one-tenant SharedPool of n
// for its duration, dispatches every component whose next action
// falls strictly inside the safe horizon to it and merges the output
// deterministically. 0 (the default) keeps the scheduler fully
// sequential. Only legal between runs.
func (s *Subsystem) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	s.workers = n
}

// Workers returns the configured worker-pool size (0 = sequential).
func (s *Subsystem) Workers() int { return s.workers }

// SetPool attaches the subsystem to a shared worker pool: parallel
// rounds dispatch into p and fair-share its workers with every other
// attached subsystem, instead of Run owning a pool of its own.
// Overrides SetWorkers while set; pass nil to detach (the caller
// should also p.Forget(s) to drop the pool-side queue). Only legal
// between runs.
func (s *Subsystem) SetPool(p *SharedPool) { s.attached = p }

// Components returns the subsystem's components in creation order.
func (s *Subsystem) Components() []*Component {
	out := make([]*Component, len(s.order))
	copy(out, s.order)
	return out
}

// Component returns the named component, or nil.
func (s *Subsystem) Component(name string) *Component { return s.comps[name] }

// Net returns the named net, or nil.
func (s *Subsystem) Net(name string) *Net { return s.nets[name] }

// NewComponent adds a component with the given behaviour and ports.
// The ports share one allocation; AddInterface adds more later.
func (s *Subsystem) NewComponent(name string, b Behavior, ports ...string) (*Component, error) {
	if s.running {
		return nil, fmt.Errorf("core: cannot add component %q while running", name)
	}
	if _, dup := s.comps[name]; dup {
		return nil, fmt.Errorf("core: duplicate component %q", name)
	}
	if b == nil {
		return nil, fmt.Errorf("core: component %q has nil behaviour", name)
	}
	c := &Component{
		name:         name,
		sub:          s,
		behavior:     b,
		status:       statusNew,
		index:        len(s.order),
		token:        make(chan tokenMsg),
		parked:       make(chan struct{}),
		recvDeadline: vtime.Infinity,
	}
	slab := make([]Port, len(ports))
	c.ports = make([]*Port, 0, len(ports))
	for i, pn := range ports {
		if c.Port(pn) != nil {
			return nil, fmt.Errorf("core: duplicate port %s.%s", name, pn)
		}
		slab[i] = Port{Name: pn, comp: c}
		c.ports = append(c.ports, &slab[i])
	}
	c.proc.c = c
	s.comps[name] = c
	s.order = append(s.order, c)
	s.activate(c)
	return c, nil
}

// addPort adds a named port to the component.
func (c *Component) addPort(name string) (*Port, error) {
	if c.Port(name) != nil {
		return nil, fmt.Errorf("core: duplicate port %s.%s", c.name, name)
	}
	p := &Port{Name: name, comp: c}
	c.ports = append(c.ports, p)
	return p, nil
}

// AddInterface groups existing ports (creating any that do not exist)
// under a named interface.
func (c *Component) AddInterface(name string, ports ...string) (*Interface, error) {
	if _, dup := c.ifaces[name]; dup {
		return nil, fmt.Errorf("core: duplicate interface %s.%s", c.name, name)
	}
	for _, pn := range ports {
		if c.Port(pn) == nil {
			if _, err := c.addPort(pn); err != nil {
				return nil, err
			}
		}
	}
	ifc := &Interface{Name: name, Ports: append([]string(nil), ports...)}
	if c.ifaces == nil {
		c.ifaces = make(map[string]*Interface)
	}
	c.ifaces[name] = ifc
	return ifc, nil
}

// NewNet creates a net with the given propagation delay.
func (s *Subsystem) NewNet(name string, delay vtime.Duration) (*Net, error) {
	if err := s.checkNet(name, delay); err != nil {
		return nil, err
	}
	n := &Net{Name: name, Delay: delay, sub: s}
	s.nets[name] = n
	return n, nil
}

// NewNets creates the subsystem's fragment of every split with ports
// here. The nets share one allocation and their port lists another,
// each with room for a hidden port per other fragment's channel.
func (s *Subsystem) NewNets(splits []graph.Split) error {
	nets, slots := 0, 0
	for i := range splits {
		if f := splits[i].Fragment(s.name); f != nil {
			nets++
			slots += len(f.Ports) + len(splits[i].Fragments) - 1
		}
	}
	if len(s.nets) == 0 && nets > 0 {
		s.nets = make(map[string]*Net, nets)
	}
	slab := make([]Net, 0, nets)
	ports := make([]*Port, 0, slots)
	for i := range splits {
		sp := &splits[i]
		f := sp.Fragment(s.name)
		if f == nil {
			continue
		}
		if err := s.checkNet(sp.Net, sp.Delay); err != nil {
			return err
		}
		slab = append(slab, Net{Name: sp.Net, Delay: sp.Delay, sub: s})
		n := &slab[len(slab)-1]
		lo := len(ports)
		ports = ports[:lo+len(f.Ports)+len(sp.Fragments)-1]
		n.ports = ports[lo:lo:len(ports)]
		for _, pr := range f.Ports {
			var p *Port
			if c := s.comps[pr.Component]; c != nil {
				p = c.Port(pr.Port)
			}
			if p == nil {
				return fmt.Errorf("core: net %s: no port %s in subsystem %s", sp.Net, pr, s.name)
			}
			if err := n.attach(p); err != nil {
				return err
			}
		}
		s.nets[sp.Net] = n
	}
	return nil
}

// checkNet vets a new net's name and delay.
func (s *Subsystem) checkNet(name string, delay vtime.Duration) error {
	if _, dup := s.nets[name]; dup {
		return fmt.Errorf("core: duplicate net %q", name)
	}
	if delay < 0 {
		return fmt.Errorf("core: net %q has negative delay", name)
	}
	return nil
}

// Connect attaches the given ports to the net.
func (s *Subsystem) Connect(n *Net, ports ...*Port) error {
	if n.sub != s {
		return fmt.Errorf("core: net %s belongs to another subsystem", n.Name)
	}
	for _, p := range ports {
		if p.comp != nil && p.comp.sub != s {
			return fmt.Errorf("core: port %s.%s belongs to another subsystem", p.comp.name, p.Name)
		}
		if err := n.attach(p); err != nil {
			return err
		}
	}
	return nil
}

// AttachHidden adds a hidden port to the net and binds it to a sink.
// Hidden ports are how channel components listen to a split net: each
// net split across subsystems includes an extra hidden port that
// connects bus events to the channel.
func (s *Subsystem) AttachHidden(n *Net, name string, owner string, sink Sink) (*Port, error) {
	if n.sub != s {
		return nil, fmt.Errorf("core: net %s belongs to another subsystem", n.Name)
	}
	p := &Port{Name: name, hidden: true, sink: sink, sinkOwner: owner}
	if err := n.attach(p); err != nil {
		return nil, err
	}
	return p, nil
}

// AddGate registers an advancement constraint (conservative channel).
// Safe while the subsystem runs.
func (s *Subsystem) AddGate(g Gate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := append(slices.Clip(s.gateList()), g) // clipped: append copies
	s.gates.Store(&next)
}

// gateList returns the current gates, for reading only.
func (s *Subsystem) gateList() []Gate {
	if p := s.gates.Load(); p != nil {
		return *p
	}
	return nil
}

// AddExternal registers an ingress source: while any are registered
// the scheduler waits for injections instead of terminating when it
// runs out of local work.
func (s *Subsystem) AddExternal() {
	s.mu.Lock()
	s.external++
	s.mu.Unlock()
	s.Wake()
}

// RemoveExternal unregisters an ingress source (e.g. the peer
// finished).
func (s *Subsystem) RemoveExternal() {
	s.mu.Lock()
	if s.external > 0 {
		s.external--
	}
	s.mu.Unlock()
	s.Wake()
}

// Wake nudges a scheduler that is waiting for external input or a
// gate grant. Safe from any goroutine.
func (s *Subsystem) Wake() {
	s.mu.Lock()
	s.wakeGen++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Stop requests that Run return as soon as the current component
// parks. Safe from any goroutine.
func (s *Subsystem) Stop() {
	s.extGen.Add(1)
	s.mu.Lock()
	s.stopReq = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// InjectFunc queues a control function to run on the scheduler
// goroutine, ordered with other injections. The function may use the
// scheduler-context APIs (DriveNow, Now, CaptureNow, RequestRollback)
// and returns true to be retried after the scheduler has handled any
// rollback it requested. Safe from any goroutine.
func (s *Subsystem) InjectFunc(fn func() bool) {
	s.extGen.Add(1)
	s.mu.Lock()
	s.injected = append(s.injected, injectedItem{fn: fn})
	s.cond.Broadcast()
	s.mu.Unlock()
}

// InjectCtl queues fn like InjectFunc but with a liveness guarantee:
// either a run loop executes fn, or onDead is called (once, with
// errNotRunning) — a control action is never silently stranded in
// the queue of a scheduler that has already exited. Exits drain the
// queue first, so an action queued while the loop is live always
// runs. Safe from any goroutine.
func (s *Subsystem) InjectCtl(fn func() bool, onDead func(error)) {
	s.extGen.Add(1)
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		if onDead != nil {
			onDead(errNotRunning)
		}
		return
	}
	s.injected = append(s.injected, injectedItem{fn: fn, reject: onDead})
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SetDepartGate installs an extra departure condition for finite-
// horizon runs: once local work is exhausted and the safe-time
// protocol has drained, Run additionally stalls until gate(until)
// reports true. Call Wake() whenever the gate's verdict may have
// changed. A nil gate removes the condition. Safe from any goroutine.
func (s *Subsystem) SetDepartGate(gate func(vtime.Time) bool) {
	s.mu.Lock()
	s.departGate = gate
	s.mu.Unlock()
	s.Wake()
}

// DriveNow drives a net immediately from scheduler context (a control
// injection or scheduler hook). Hidden ports are skipped, as for every
// channel ingress drive. Never call it from component code or other
// goroutines.
func (s *Subsystem) DriveNow(net, src string, t vtime.Time, v any) error {
	n := s.nets[net]
	if n == nil {
		return fmt.Errorf("core: drive of unknown net %q", net)
	}
	s.driveLocal(n, src, t, v)
	return nil
}

// DriveNetNow is DriveNow for a caller that already holds the net: a
// channel endpoint delivering a run of drives looks the net up once.
func (s *Subsystem) DriveNetNow(n *Net, src string, t vtime.Time, v any) {
	s.driveLocal(n, src, t, v)
}

// RequestRollback asks the scheduler to restore the latest checkpoint
// whose cut time is <= t (a straggler with timestamp t arrived on an
// optimistic channel). Safe from any goroutine.
func (s *Subsystem) RequestRollback(t vtime.Time) {
	s.extGen.Add(1)
	s.mu.Lock()
	if t < s.rbTime {
		s.rbTime = t
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// requestRollbackComponent asks the scheduler to restore the latest
// checkpoint in which the named component's local time is <= t. Used
// by the interrupt-consistency machinery: the component that
// optimistically ran past an interrupt must itself rewind behind it,
// regardless of where the subsystem cut fell. Safe from any
// goroutine.
func (s *Subsystem) requestRollbackComponent(comp string, t vtime.Time) {
	s.extGen.Add(1)
	s.mu.Lock()
	if s.rbComp == "" || t < s.rbCompT {
		s.rbComp, s.rbCompT = comp, t
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// CheckpointByTag returns the retained checkpoint captured for the
// given snapshot tag, or nil.
func (s *Subsystem) CheckpointByTag(tag string) *CheckpointSet {
	for i := len(s.checkpoints) - 1; i >= 0; i-- {
		if s.checkpoints[i].Tag == tag {
			return s.checkpoints[i]
		}
	}
	return nil
}

// PublishedTimes returns the last published (subsystem time, next
// event key) pair. Both are monotone lower bounds on the subsystem's
// actual progress and are safe to read from any goroutine; the
// safe-time protocol is built on them.
func (s *Subsystem) PublishedTimes() (now, key vtime.Time) {
	return vtime.Time(s.pubNow.Load()), vtime.Time(s.pubKey.Load())
}

// noteRunlevel runs on the scheduler goroutine, where s.now is
// coherent.
func (s *Subsystem) noteRunlevel(c *Component, level string) {
	s.tlRec.Runlevel(s.name, c.name, level, s.now)
}

// drive fans a value out to every port on the net except the driver.
// Called with the run token held (from a component's Send) or on the
// scheduler goroutine (injected drives).
func (s *Subsystem) drive(n *Net, src string, t vtime.Time, v any) {
	s.driveFrom(n, nil, src, t, v, false)
}

// driveLocal fans out an injected (channel ingress) drive. Hidden
// ports are skipped: a value that arrived over a channel must not be
// reflected back out by the channel components listening on the same
// net fragment — the channel component only delivers into the
// subsystem.
func (s *Subsystem) driveLocal(n *Net, src string, t vtime.Time, v any) {
	s.driveFrom(n, nil, src, t, v, true)
}

func (s *Subsystem) driveFrom(n *Net, driver *Port, src string, t vtime.Time, v any, skipHidden bool) {
	n.lastValue, n.lastTime, n.lastSource = v, t, src
	atomic.AddInt64(&s.stats.Drives, 1)
	if s.OnDrive != nil {
		s.OnDrive(n.Name, src, t, v)
	}
	if s.tlRec != nil {
		s.tlRec.Drive(s.name, src, n.Name, t, v)
	}
	deliver := t.Add(n.Delay)
	for _, pt := range n.ports {
		if pt == driver {
			continue
		}
		if pt.comp != nil && pt.comp.name == src {
			continue // a component does not hear its own drive
		}
		if pt.hidden {
			if !skipHidden && pt.sink != nil {
				pt.sink(src, t, v)
			}
			continue
		}
		// The fanout writes one row per listener straight into the
		// inbox's row store, and its key into the inbox's tail span or
		// a new one, on the link of (pt, src); nothing is heap allocated
		// once the store has warmed.
		c := pt.comp
		c.inbox.Push(deliver, c.links.Link(&c.inbox, link{pt, src}), v)
		if !c.active {
			s.activate(c)
		}
	}
}

// activate inserts c into the runnable index. Called wherever a
// component's key may have turned finite: creation, an inbox push,
// returning from a resume, restore, reload.
func (s *Subsystem) activate(c *Component) {
	if !c.active {
		c.active = true
		s.active = append(s.active, c)
	}
}

// resetActive rebuilds the runnable index from scratch (restores and
// reloads invalidate cached keys wholesale).
func (s *Subsystem) resetActive() {
	s.active = s.active[:0]
	for _, c := range s.order {
		c.active = false
	}
	for _, c := range s.order {
		s.activate(c)
	}
}

// yield is the component side of the scheduling handshake: announce
// the park on the component's own channel, then wait for the next
// run token.
func (s *Subsystem) yield(c *Component) tokenMsg {
	c.parked <- struct{}{}
	return <-c.token
}

// resume hands the run token to c and waits until it parks again.
// Parallel-round workers call it concurrently for distinct
// components; the handshake is entirely per component.
func (s *Subsystem) resume(c *Component, tok tokenMsg) {
	if c.status == statusNew {
		s.startGoroutine(c)
	}
	c.status = statusRunning
	c.token <- tok
	<-c.parked
}

// startGoroutine launches the component's behaviour wrapper.
func (s *Subsystem) startGoroutine(c *Component) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(killPanic); !killed {
					c.err = fmt.Errorf("core: component %s panicked: %v", c.name, r)
					c.status = statusDone
				}
				// killPanic: status is managed by the killer.
			}
			c.parked <- struct{}{}
		}()
		tok := <-c.token
		if tok.kill {
			panic(killPanic{c.name})
		}
		err := c.behavior.Run(&c.proc)
		c.err = err
		c.status = statusDone
	}()
}

// kill unwinds a parked, live component goroutine.
func (s *Subsystem) kill(c *Component) {
	switch c.status {
	case statusDone:
		return
	case statusNew:
		// Goroutine not started; nothing to unwind.
		return
	default:
		c.token <- tokenMsg{kill: true}
		<-c.parked
	}
}

// Teardown kills every live component goroutine. Call it when
// abandoning a subsystem whose Run returned early (ErrStopped or a
// gate error) to avoid leaking goroutines.
func (s *Subsystem) Teardown() {
	for _, c := range s.order {
		s.kill(c)
		c.status = statusDone
	}
}

// Run executes the subsystem until virtual time `until`, until all
// work is exhausted, or until Stop is called. With until ==
// vtime.Infinity, exhaustion terminates the components (their Recv
// calls return ok=false once no more messages can ever arrive) and
// Run returns nil. With a finite until, components stay parked and Run
// may be called again to continue.
func (s *Subsystem) Run(until vtime.Time) error {
	if s.running {
		return fmt.Errorf("core: subsystem %s already running", s.name)
	}
	s.running = true
	s.mu.Lock()
	s.accepting = true
	s.mu.Unlock()
	defer func() {
		s.running = false
		// End injection acceptance (error paths exit without
		// tryExit) and fail any guaranteed control actions still
		// queued: their callers must not wait on a dead scheduler.
		// Plain injections stay queued for a future Run, as before.
		s.mu.Lock()
		s.accepting = false
		var rejected []func(error)
		kept := s.injected[:0]
		for _, it := range s.injected {
			if it.reject != nil {
				rejected = append(rejected, it.reject)
			} else {
				kept = append(kept, it)
			}
		}
		s.injected = kept
		s.mu.Unlock()
		for _, r := range rejected {
			r(errNotRunning)
		}
	}()

	// The inline fast paths and parallel rounds fuse or reorder
	// scheduling steps; a per-step hook (detail switchpoints, the
	// debugger) needs to observe every one, so its presence pins the
	// scheduler to the classic step-at-a-time path.
	s.fastOK = s.OnStep == nil
	s.prepareLookahead()
	// The adaptive throttle starts each run at the configured window
	// and re-earns it after rollback storms (see optimistic.go).
	s.effOpt = s.optimism
	s.optCool, s.optClean = 0, 0
	// An attached pool outlives the run (roundWG already fences every
	// round); with only SetWorkers, the run owns a one-tenant pool.
	s.pool = s.attached
	if s.pool == nil && s.workers > 0 {
		s.pool = NewSharedPool(s.workers)
		defer s.pool.Close()
	}

	for {
		// Absorb cross-goroutine requests. Rollbacks are handled
		// before any queued injection is routed: an optimistic
		// straggler must first rewind the subsystem and only then be
		// delivered, or the restore would wipe it out.
		s.mu.Lock()
		// The wake generation is read here, before any gate below is
		// evaluated: a Wake landing after a gate reported closed (or
		// from inside OnStall) moves it, and stall then returns at once
		// instead of sleeping through the update it announces.
		gen := s.wakeGen
		stop := s.stopReq
		s.stopReq = false
		rb := s.rbTime
		s.rbTime = vtime.Infinity
		rbComp, rbCompT := s.rbComp, s.rbCompT
		s.rbComp = ""
		var inj []injectedItem
		var tags []string
		if rb == vtime.Infinity && rbComp == "" {
			inj = s.injected
			s.injected, s.injFree = s.injFree, nil
			tags = s.ckptTags
			s.ckptTags = nil
		}
		s.mu.Unlock()

		if stop {
			return ErrStopped
		}
		if s.fatal != nil {
			return s.fatal
		}
		if rb != vtime.Infinity {
			if err := s.restoreBefore(rb); err != nil {
				return err
			}
			continue
		}
		if rbComp != "" {
			if err := s.restoreComponentBefore(rbComp, rbCompT); err != nil {
				return err
			}
			continue
		}

		// Route injections in arrival order. A control item that
		// requests a rollback (optimistic straggler) interrupts the
		// batch: it and everything after it are re-queued, the
		// restore runs first, and routing resumes afterwards.
		for idx, d := range inj {
			retry := d.fn()
			s.mu.Lock()
			interrupted := s.rbTime != vtime.Infinity
			if interrupted || retry {
				rest := inj[idx+1:]
				if retry {
					rest = inj[idx:]
				}
				s.injected = append(append([]injectedItem(nil), rest...), s.injected...)
			}
			s.mu.Unlock()
			if interrupted || retry {
				break
			}
		}
		clear(inj) // routed, or copied back into the queue
		s.injFree = inj[:0]
		s.mu.Lock()
		interrupted := s.rbTime != vtime.Infinity
		s.mu.Unlock()
		if interrupted {
			continue
		}

		// Capture pending checkpoints: every component is parked
		// here, so this is the earliest point after the request at
		// which all images can be taken, and necessarily before any
		// component receives another message (Pia's domino rule).
		for _, tag := range tags {
			if _, err := s.capture(tag); err != nil {
				return err
			}
		}
		if s.autoCkpt > 0 && s.now >= s.lastAuto.Add(s.autoCkpt) {
			s.lastAuto = s.now
			if _, err := s.capture(""); err != nil {
				return err
			}
		}

		// Choose the next action: the component with the smallest key,
		// and publish the (monotone) lower bounds other goroutines —
		// notably the safe-time protocol — may rely on. The scan also
		// maintains the runnable index, caches the runner-up key (the
		// fast-path bound) and computes the safe horizon for a
		// parallel round.
		pi := s.scan()
		next, key := pi.best, pi.key
		s.pubNow.Store(int64(s.now))
		s.pubKey.Store(int64(key))
		if s.OnPublish != nil {
			s.OnPublish(s.now, key)
		}
		if s.mSched != nil {
			s.sampleMetrics()
		}

		// A finite-horizon run ends when no local action remains at or
		// before the horizon; with external channels we must first
		// drain the safe-time protocol — every gate's bound must
		// clear the horizon (so nothing can still arrive inside it)
		// and every obligation toward peers must be met (so peers are
		// not stranded mid-ratchet by our departure).
		if until != vtime.Infinity && key > until {
			if s.hasExternal() && !s.gatesDrained(until) {
				s.stall(gen)
				continue
			}
			// The departure gate holds the scheduler at the horizon
			// while the session layer still has business that may
			// need it — unacked retained egress, an outage mid-
			// resume, a negotiated rewind. Leaving early would
			// strand a later rewind with no run loop to service it.
			s.mu.Lock()
			gate := s.departGate
			s.mu.Unlock()
			if gate != nil && !gate(until) {
				s.stall(gen)
				continue
			}
			if !s.tryExit() {
				continue
			}
			// Claim the horizon only when nothing external can still
			// deliver inside it: with optimistic ingress channels the
			// subsystem's time must stay at its last processed event,
			// or a late message would wrongly read as a straggler.
			if !s.hasExternal() {
				s.advance(until)
			}
			// Announce the departure so the channel layer can push a
			// final grant covering the horizon: a peer whose ask is
			// still in flight would otherwise wait forever on a
			// scheduler that has already left.
			if s.OnDepart != nil {
				s.OnDepart(until)
			}
			return nil
		}

		if key == vtime.Infinity {
			if s.hasExternal() {
				// Stalled on the outside world.
				s.stall(gen)
				continue
			}
			if s.signalEOF() {
				continue // a component was told the simulation ended
			}
			if !s.tryExit() {
				continue
			}
			// Everything done or signalled: unwind survivors and exit.
			for _, c := range s.order {
				s.kill(c)
				c.status = statusDone
			}
			return s.collectErr()
		}

		// Conservative gates: may we advance to key?
		if blocked := s.gateBlocked(key); blocked {
			s.stall(gen)
			continue
		}

		// The round: every component whose next action falls strictly
		// inside the safe horizon goes to the worker pool and the
		// effects merge in canonical order (see parallel.go). A cohort
		// of one — always the case without a pool — is stepped inline
		// below, on this goroutine and unbuffered, the same cap
		// bounding its inline fast path. A per-step hook pins the
		// scheduler to one action per step: no rounds, no fast bound.
		var fast vtime.Time
		if s.fastOK {
			roundCap := s.roundCap(until)
			if s.pool != nil && s.runParallelRound(pi, roundCap) {
				continue
			}
			fast = s.seqFastBound(pi, roundCap)
		}
		s.advance(key)
		next.viewNow = s.now
		next.fastGen = s.extGen.Load()
		next.fastUntil = fast
		s.stepTimed(next, key)
		s.commit(next)
		// A fused run of inline actions ends past the entry key:
		// catch the subsystem clock (and idle local times) up to the
		// last action actually executed, exactly where the
		// step-at-a-time scheduler would have left them.
		if next.viewNow > s.now {
			s.advance(next.viewNow)
		}
		if s.OnStep != nil {
			s.OnStep(s.now)
		}
	}
}

// advance lifts the subsystem clock to t (never backwards). Components
// idle in Recv experience the passage of virtual time: their local
// times track subsystem time, preserving the invariant that system
// time never exceeds any local time.
func (s *Subsystem) advance(t vtime.Time) {
	s.now = vtime.Max(s.now, t)
	for _, c := range s.order {
		if c.status == statusRecv && c.localTime < s.now {
			c.localTime = s.now
		}
	}
}

// commit folds a stepped component back into the schedule: it rejoins
// the runnable index, and a Run that returned an error fails the
// subsystem at the next loop top (the first failure wins).
func (s *Subsystem) commit(c *Component) {
	s.activate(c)
	if s.fatal == nil && c.err != nil && c.status == statusDone {
		s.fatal = fmt.Errorf("core: component %s failed: %w", c.name, c.err)
	}
}

// roundCap returns the exclusive bound at which the step-at-a-time
// scheduler would next pause whatever the components do: every gate
// bound (advancing to exactly Bound() is allowed), the run horizon,
// the next automatic checkpoint cut. It caps the round's safe horizon
// and speculation bound and the cohort-of-one's inline fast path alike.
func (s *Subsystem) roundCap(until vtime.Time) vtime.Time {
	b := vtime.Infinity
	for _, g := range s.gateList() {
		if gb := g.Bound().Add(1); gb < b {
			b = gb
		}
	}
	if until != vtime.Infinity {
		if u := until.Add(1); u < b {
			b = u
		}
	}
	if s.autoCkpt > 0 {
		if t := s.lastAuto.Add(s.autoCkpt); t < b {
			b = t
		}
	}
	return b
}

// seqFastBound computes the exclusive bound below which the picked
// component may keep acting inline without handing the token back:
// the runner-up's key (adjusted for the creation-order tie-break),
// capped by roundCap. Anything the component does strictly below this
// bound is exactly what the step-at-a-time scheduler would have done
// next anyway.
func (s *Subsystem) seqFastBound(pi planInfo, roundCap vtime.Time) vtime.Time {
	b := pi.key2
	if b != vtime.Infinity && pi.best.index < pi.idx2 {
		// The picked component wins same-key ties against the
		// runner-up, so it may still act at key2 itself.
		b = b.Add(1)
	}
	return vtime.Min(b, roundCap)
}

// gatesDrained reports whether the subsystem may leave a finite
// horizon: every gate bound is beyond it (issuing asks where not) and
// every gate with obligations has discharged them.
func (s *Subsystem) gatesDrained(until vtime.Time) bool {
	ok := true
	for _, g := range s.gateList() {
		if g.Bound() <= until {
			g.Request(until.Add(1))
			ok = false
			continue
		}
		if q, isQ := g.(gateQuiescer); isQ && !q.Quiesced() {
			ok = false
		}
	}
	return ok
}

// gateBlocked checks all gates against the proposed advance; if any
// bound is too low it issues async requests and reports true.
func (s *Subsystem) gateBlocked(t vtime.Time) bool {
	blocked := false
	for _, g := range s.gateList() {
		if g.Bound() < t {
			g.Request(t)
			blocked = true
		}
	}
	return blocked
}

// step resumes component c, delivering a message if it is parked in
// Recv.
func (s *Subsystem) step(c *Component, key vtime.Time) {
	// During a parallel round, step/delivery counts are buffered per
	// member and folded in at merge time for committed members only:
	// a rolled-back speculation replays later and must not be counted
	// twice (or at all, if the replay diverges).
	if b := c.wbuf; b != nil {
		b.steps++
	} else {
		atomic.AddInt64(&s.stats.Steps, 1)
	}
	switch c.status {
	case statusNew, statusRunnable:
		s.resume(c, tokenMsg{ok: true})
	case statusRecv:
		if t, at, ok := c.nextDeliverable(); ok && vtime.Max(t, c.localTime) == key {
			c.deliver(at)
			s.resume(c, tokenMsg{ok: true, msg: &c.recvMsg})
			return
		}
		// Deadline expiry: a negative observation ("nothing arrived
		// before the deadline") that a straggler can invalidate —
		// recorded so the member never passes for inert.
		if b := c.wbuf; b != nil {
			b.expired = true
		}
		c.localTime = vtime.Max(c.localTime, c.recvDeadline)
		s.resume(c, tokenMsg{ok: false})
	default:
		panic(fmt.Sprintf("core: scheduled component %s in state %v", c.name, c.status))
	}
}

// signalEOF resumes one not-yet-signalled Recv-blocked component with
// ok=false, in deterministic order. Returns false when none remain.
func (s *Subsystem) signalEOF() bool {
	for _, c := range s.order {
		if c.status == statusRecv && !c.eofSignaled {
			c.eofSignaled = true
			c.viewNow = s.now
			c.fastUntil = 0
			s.resume(c, tokenMsg{ok: false})
			s.activate(c)
			return true
		}
	}
	return false
}

// hasExternal reports whether ingress sources remain registered.
func (s *Subsystem) hasExternal() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.external > 0
}

// stall announces the impending block (the channel layer flushes its
// coalesced egress here — peers may be waiting on exactly those
// messages) and then waits for an external request or for the wake
// generation to move past gen, the value the loop top read before it
// evaluated the gates. OnStall runs outside s.mu, so hooks may send on
// transports freely; a peer reply racing in between lands in the
// injection queue, and a gate update racing in between has already
// moved the generation, so either makes waitForWake return immediately.
func (s *Subsystem) stall(gen uint64) {
	atomic.AddInt64(&s.stats.Stalls, 1)
	if s.OnStall != nil {
		s.OnStall()
	}
	s.tlRec.Stall(s.name, s.now, 0)
	s.waitForWake(gen)
	s.tlRec.Resume(s.name, s.now)
}

// tryExit atomically ends injection acceptance for a clean run exit.
// Any external request queued concurrently — an injection, a pending
// checkpoint, a stop, a rollback — aborts the exit (returns false) so
// the loop absorbs it first; an InjectCtl call that loses the race
// instead observes accepting == false and rejects itself. Together
// these guarantee a guaranteed control action is never stranded.
func (s *Subsystem) tryExit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingLocked() {
		return false
	}
	s.accepting = false
	return true
}

// pendingLocked reports whether an external request — an injection, a
// checkpoint, a stop, a rollback — waits for the next loop top. Call
// with s.mu held.
func (s *Subsystem) pendingLocked() bool {
	return len(s.injected) > 0 || len(s.ckptTags) > 0 || s.stopReq ||
		s.rbTime != vtime.Infinity || s.rbComp != ""
}

// waitForWake blocks until something changes: an external request or
// a gate update (a Wake since gen was read).
func (s *Subsystem) waitForWake(gen uint64) {
	s.mu.Lock()
	for !s.pendingLocked() && s.wakeGen == gen {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// collectErr aggregates terminal component errors.
func (s *Subsystem) collectErr() error {
	if s.fatal != nil {
		return s.fatal
	}
	for _, c := range s.order {
		if c.err != nil {
			return fmt.Errorf("core: component %s failed: %w", c.name, c.err)
		}
	}
	return nil
}

// NextEventTime returns the earliest time at which the subsystem
// could act (its next scheduling key), or Infinity when idle. Used by
// the safe-time protocol.
func (s *Subsystem) NextEventTime() vtime.Time {
	min := vtime.Infinity
	for _, c := range s.order {
		if k := c.key(); k < min {
			min = k
		}
	}
	return min
}
