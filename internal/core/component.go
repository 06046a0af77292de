package core

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// Behavior is the functionality contained in a component: the actual
// (embedded) software or a model of the hardware. Run is executed on
// the component's goroutine under cooperative scheduling; all
// interaction with the rest of the system goes through the Proc.
//
// Run returns when the component is finished; returning a non-nil
// error aborts the whole subsystem run. If the behaviour also
// implements StateSaver, Run may be re-entered after a rollback with
// the behaviour's state restored, so it must be written to resume
// from its state (reactive receive loops are naturally resumable).
type Behavior interface {
	Run(p *Proc) error
}

// BehaviorFunc adapts a plain function to the Behavior interface.
type BehaviorFunc func(p *Proc) error

// Run implements Behavior.
func (f BehaviorFunc) Run(p *Proc) error { return f(p) }

// StateSaver is implemented by behaviours that support checkpoint and
// restore. SaveState must capture everything Run needs to resume;
// RestoreState must leave the behaviour exactly as it was when the
// image was saved. Both are called while the component is parked, so
// they never race with Run.
type StateSaver interface {
	SaveState() ([]byte, error)
	RestoreState([]byte) error
}

// status is a component's scheduling state.
type status uint8

const (
	statusNew      status = iota // goroutine not started yet
	statusRunnable               // has the right to run when its local time is minimal
	statusRecv                   // parked in Recv waiting for a message
	statusRunning                // currently holds the run token
	statusDone                   // Run returned
)

func (s status) String() string {
	switch s {
	case statusNew:
		return "new"
	case statusRunnable:
		return "runnable"
	case statusRecv:
		return "recv"
	case statusRunning:
		return "running"
	case statusDone:
		return "done"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Component is a container for some basic functionality — an embedded
// processor running a program, an ASIC, an FPGA. All fields are owned
// by the subsystem scheduler except where noted.
type Component struct {
	name string
	sub  *Subsystem

	behavior Behavior
	ports    []*Port // in creation order

	localTime vtime.Time

	// inbox holds the undelivered messages for this component, each
	// on a link that links resolves to its receiving port and source.
	inbox event.LinkQueue
	links event.Table[link]

	// The one-byte fields share a word: a Component is allocated per
	// component per simulation and sits at the top of its allocator
	// size class (TestComponentSizeClass).
	status status
	// active marks membership in the scheduler's runnable index.
	// Components whose key is Infinity are lazily compacted out and
	// re-activated when an event lands in their inbox.
	active      bool
	eofSignaled bool // Recv already told "simulation over" once

	// index is the component's creation order: the deterministic
	// tie-break for equal scheduling keys and the canonical merge
	// order for parallel-round output.
	index int

	// parked is the component->scheduler half of the cooperative
	// handshake: the component's goroutine signals here whenever it
	// parks. It is per component (rather than one shared channel)
	// so parallel-round workers can resume and await distinct
	// components concurrently.
	parked chan struct{}

	planKey vtime.Time // key cached by the last scheduler scan

	// mLag is the component's virtual-time lag gauge, created lazily
	// on the scheduler goroutine (see Subsystem.sampleMetrics). Held
	// here rather than in an order-indexed slice so it survives
	// components being added or removed mid-run by live migration.
	mLag *metrics.Gauge

	// costNS accumulates wall nanoseconds spent stepping this
	// component (attribution enabled only); mCost is the matching
	// per-step latency histogram, created lazily on first dispatch.
	// Dispatches for one component never overlap (a component is one
	// job per round), so mCost needs no lock of its own; rounds are
	// ordered by the round WaitGroup.
	costNS atomic.Int64
	mCost  *metrics.Histogram

	// outLA is the component's output lookahead: the minimum
	// propagation delay over every net its ports attach to (the
	// paper's conservative lookahead, per component). Nothing this
	// component sends can affect any other component earlier than
	// key+outLA. Computed once per Run; topology is fixed while
	// running.
	outLA vtime.Duration

	// Fast-path scheduling state (see proc.go and parallel.go).
	// viewNow is the virtual time of the component's current fused
	// scheduling step — what Subsystem.now would read were every
	// inline action a separate scheduler step. fastUntil is the
	// exclusive bound below which the component may act inline
	// without a scheduler handoff (0 disables); the fast path is
	// vacated whenever the subsystem's external-request generation
	// no longer matches fastGen.
	viewNow   vtime.Time
	fastUntil vtime.Time
	fastGen   uint64

	// wbuf collects side effects (drives and runlevel notes) while a
	// parallel-round worker holds the token; nil in sequential
	// execution.
	wbuf *workerBuf

	// specImg is the lightweight pre-round image captured before a
	// speculative (past-horizon) dispatch; valid only for the round
	// that captured it. See optimistic.go.
	specImg Image

	// Optimistic-merge scratch: the earliest in-round delivery
	// destined to this component, valid only while specSeen matches
	// the subsystem's detection generation (see detectStragglers).
	specSeen     uint64
	specMinDeliv vtime.Time

	// recvPorts is the port filter of the Recv the component is
	// parked in (nil = any port); recvDeadline bounds the wait. A
	// filter is a handful of ports matched by identity; it aliases
	// recvSet, the ports the last filtered Recv named, resolved again
	// only when a Recv names a different list. recvMsg is the delivery
	// handed to a parked Recv, which copies it out before the
	// component runs on.
	recvPorts    []*Port
	recvSet      []*Port
	recvDeadline vtime.Time
	recvMsg      Msg

	runlevel string

	// cooperative-scheduling handshake
	token chan tokenMsg

	memory *Memory // nil unless the component uses synchronous memory

	// interrupt handling (set via Proc.SetInterruptHandler)
	irqPort string
	irqFn   func(*Proc, Msg)

	proc Proc // handed to Run by address

	err error // terminal error from Run
}

// link is what an inbox link stands for: the receiving port, which
// names the component, the port and the net, and the driving source.
type link struct {
	port   *Port
	source string
}

// tokenMsg is what the scheduler hands a parked component.
type tokenMsg struct {
	kill bool // unwind the goroutine (rollback/shutdown)
	msg  *Msg // delivered message when resuming from Recv
	ok   bool // false: Recv should report end-of-simulation/timeout
}

// killPanic unwinds a component goroutine on rollback or shutdown.
type killPanic struct{ comp string }

// Name returns the component's name.
func (c *Component) Name() string { return c.name }

// LocalTime returns the component's local virtual time. Safe to call
// from the scheduler or between runs; racing it against a live run is
// a caller bug.
func (c *Component) LocalTime() vtime.Time { return c.localTime }

// Runlevel returns the component's current detail level.
func (c *Component) Runlevel() string { return c.runlevel }

// SetRunlevel changes the component's detail level. It is applied by
// the scheduler at the component's next safe point; calling it while
// the subsystem is between runs applies immediately.
func (c *Component) SetRunlevel(level string) { c.runlevel = level }

// Port returns the named port, or nil. Ports are few, and a sender's
// is cached (Proc.sendNet), so a scan beats an index.
func (c *Component) Port(name string) *Port {
	for _, p := range c.ports {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Ports returns the component's ports sorted by name, so everything
// built from the list (migration images, diagnostics) is the same on
// every call.
func (c *Component) Ports() []*Port {
	out := append(make([]*Port, 0, len(c.ports)), c.ports...)
	slices.SortFunc(out, func(a, b *Port) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Memory returns the component's synchronous-memory model, creating
// it on first use.
func (c *Component) Memory() *Memory {
	if c.memory == nil {
		c.memory = newMemory(c)
	}
	return c.memory
}

// Err returns the terminal error from the component's Run, if any.
func (c *Component) Err() error { return c.err }

// Done reports whether the component's Run has returned.
func (c *Component) Done() bool { return c.status == statusDone }

// key returns the component's scheduling key: the earliest virtual
// time at which it could next act, or Infinity if it cannot act
// without outside input.
func (c *Component) key() vtime.Time {
	switch c.status {
	case statusNew, statusRunnable:
		return c.localTime
	case statusRecv:
		k := vtime.Infinity
		if c.recvPorts == nil {
			// Unfiltered receive — the overwhelmingly common case. The
			// key is one load: the time of the inbox's earliest event (the
			// key beside its head row, or the heap's root), no event
			// materialized. This is what keeps the safe-horizon scan cheap.
			if t := c.inbox.NextTime(); t != vtime.Infinity {
				k = vtime.Max(t, c.localTime)
			}
		} else if t, _, ok := c.nextDeliverable(); ok {
			k = vtime.Max(t, c.localTime)
		}
		if c.recvDeadline < k {
			k = vtime.Max(c.recvDeadline, c.localTime)
		}
		return k
	default:
		return vtime.Infinity
	}
}

// nextDeliverable returns the time and the inbox position of the
// earliest event matching the component's current receive filter; ok is
// false when none matches. No event is materialized: an unfiltered
// receive reads the earliest event's key, and a filtered one searches
// the inbox for the (Time, Seq)-minimal event on a port of the filter,
// which a matching head ends at once. The position is for deliver in
// the same call; no match is kept past it.
func (c *Component) nextDeliverable() (t vtime.Time, at int, ok bool) {
	var match func(int32) bool
	if c.recvPorts != nil {
		match = func(l int32) bool { return slices.Contains(c.recvPorts, c.links.Key(l).port) }
	}
	at, t = c.inbox.MinMatching(match)
	return t, at, at >= 0
}

// restock pushes a stored event back into the inbox with its sequence
// number: an image's inbox, or the pops a rolled-back member journaled.
// It must be a net event for a port of c, on the net that port is
// attached to.
func (c *Component) restock(e *event.Event) error {
	pt := c.Port(e.Port)
	if e.Kind != event.KindNet || e.Component != c.name || pt == nil || pt.net == nil || pt.net.Name != e.Net {
		return fmt.Errorf("core: inbox event %v is not for a port of %s", *e, c.name)
	}
	c.inbox.PushStamped(e.Time, e.Seq, c.links.Link(&c.inbox, link{pt, e.Source}), e.Value)
	return nil
}

// stored is the whole Event of an inbox entry, as an image or the
// speculative-pop journal keeps it.
func (c *Component) stored(t vtime.Time, seq uint64, l int32, v any) event.Event {
	k := c.links.Key(l)
	return event.Event{
		Time: t, Seq: seq, Kind: event.KindNet,
		Component: c.name, Port: k.port.Name, Net: k.port.net.Name,
		Value: v, Source: k.source,
	}
}

// inboxEvents returns the undelivered messages in delivery order.
func (c *Component) inboxEvents() []event.Event {
	if c.inbox.Len() == 0 {
		return nil
	}
	out := make([]event.Event, 0, c.inbox.Len())
	c.inbox.Each(func(t vtime.Time, seq uint64, l int32, v any) {
		out = append(out, c.stored(t, seq, l, v))
	})
	return out
}

// noteRunlevel records an imperative runlevel switch from component
// context, buffering it during a parallel round.
func (c *Component) noteRunlevel(level string) {
	s := c.sub
	if c.wbuf != nil {
		if s.tlRec != nil {
			c.wbuf.push(parOp{at: c.viewNow, kind: opRunlevel, str: level})
		}
		return
	}
	s.noteRunlevel(c, level)
}

// emit routes a component-driven net drive: buffered during a
// parallel round, direct otherwise. A direct send shrinks the fast
// bound to the earliest possible delivery, so the sender never fuses
// past a step at which its own message could wake another component.
func (c *Component) emit(n *Net, t vtime.Time, v any) {
	if c.wbuf != nil {
		c.wbuf.push(parOp{at: c.viewNow, kind: opDrive, net: n, t: t, v: v})
		return
	}
	c.sub.drive(n, c.name, t, v)
	if c.fastUntil != 0 {
		if arr := t.Add(n.Delay); arr < c.fastUntil {
			c.fastUntil = arr
		}
	}
}

// saver returns the behaviour's StateSaver, or nil.
func (c *Component) saver() StateSaver {
	s, _ := c.behavior.(StateSaver)
	return s
}

// String implements fmt.Stringer.
func (c *Component) String() string {
	return fmt.Sprintf("component(%s, t=%v, %s)", c.name, c.localTime, c.status)
}
