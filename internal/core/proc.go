package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/vtime"
)

// Proc is the execution context handed to a component's Run. All of a
// component's interaction with virtual time and the rest of the
// system goes through it. A Proc is only valid on the component's own
// goroutine.
type Proc struct {
	c *Component

	sendPort *Port // the port the last send named (see sendNet)
}

// Time returns the component's local virtual time.
func (p *Proc) Time() vtime.Time { return p.c.localTime }

// Name returns the component's name.
func (p *Proc) Name() string { return p.c.name }

// Runlevel returns the component's current detail level. Behaviours
// consult it to choose between communication methods.
func (p *Proc) Runlevel() string { return p.c.runlevel }

// SetRunlevel imperatively switches this component's detail level, as
// Pia allows from statements in the source code. The current point in
// the behaviour is by definition a safe point for the caller.
func (p *Proc) SetRunlevel(level string) {
	p.c.runlevel = level
	p.c.noteRunlevel(level)
}

// Advance moves the component's local time forward by d without
// yielding the processor. Basic-block timing annotations compile to
// Advance calls: the simulator updates the component's version of
// virtual time whenever it encounters an embedded timing estimate.
func (p *Proc) Advance(d vtime.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("core: %s advanced time backwards (%v)", p.c.name, d))
	}
	p.c.localTime = p.c.localTime.Add(d)
}

// Delay advances local time by d and yields, letting components with
// earlier local times run. Equivalent to Advance followed by Yield.
func (p *Proc) Delay(d vtime.Duration) {
	p.Advance(d)
	p.yield()
}

// DelayUntil advances local time to t — a no-op when t has already
// passed — and yields. Checkpointable process-style behaviours should
// pace themselves with DelayUntil against times derived from their
// saved state rather than with relative Delay calls: a component
// restored from a checkpoint re-enters Run from the top, and a
// relative delay taken before the capture would otherwise be charged
// again, shifting its timeline.
func (p *Proc) DelayUntil(t vtime.Time) {
	if t > p.c.localTime {
		p.Advance(t.Sub(p.c.localTime))
	}
	p.yield()
}

// yield releases the processor; the scheduler will resume this
// component when its local time is again the minimum. Yield is a safe
// point: pending checkpoint requests and runlevel switches for this
// component are applied while it is parked here.
func (p *Proc) yield() {
	c := p.c
	// Fast skip: when the component's local time is still below its
	// fast bound it would immediately be re-picked by the scheduler
	// — the handoff is a no-op, provided no external request has
	// arrived since the bound was computed.
	if c.fastUntil != 0 && c.localTime < c.fastUntil && c.sub.extGen.Load() == c.fastGen {
		if c.localTime > c.viewNow {
			c.viewNow = c.localTime
		}
		return
	}
	c.status = statusRunnable
	tok := c.sub.yield(c)
	if tok.kill {
		panic(killPanic{c.name})
	}
}

// Sync blocks until subsystem time has caught up with the component's
// local time — the synchronization Pia requires before a component
// may observe shared state. On return every message with an earlier
// timestamp has been delivered or is already in this component's
// inbox.
func (p *Proc) Sync() { p.yield() }

// Send drives value v onto the net attached to the named port,
// stamped with the component's current local time. Delivery to each
// listening port happens after the net's propagation delay. Send does
// not yield.
func (p *Proc) Send(port string, v any) {
	p.c.emit(p.sendNet(port), p.c.localTime, v)
}

// sendNet resolves the net a send on the named port drives. A sender
// names the same port send after send, so the last port found is kept
// and recognised by its name: a component's port names are unique and
// nothing removes or renames a port, so a name resolves to one *Port
// for the component's life. The port's net is read each time; Connect
// may attach it later.
func (p *Proc) sendNet(port string) *Net {
	pt := p.sendPort
	if pt == nil || pt.Name != port {
		if pt = p.c.Port(port); pt == nil {
			panic(fmt.Sprintf("core: %s has no port %q", p.c.name, port))
		}
		p.sendPort = pt
	}
	if pt.net == nil {
		panic(fmt.Sprintf("core: port %s.%s is not attached to a net", p.c.name, port))
	}
	return pt.net
}

// SendAt is Send with an explicit future timestamp (>= local time).
// Protocol models use it to schedule the completion of a transfer
// without blocking.
func (p *Proc) SendAt(port string, v any, t vtime.Time) {
	if t < p.c.localTime {
		panic(fmt.Sprintf("core: %s SendAt into its own past (%v < %v)", p.c.name, t, p.c.localTime))
	}
	p.c.emit(p.sendNet(port), t, v)
}

// Recv blocks until a message arrives on one of the named ports (any
// port when none are named). The component's local time advances to
// the delivery time, which is never earlier than it was. Recv returns
// ok=false when the simulation has ended (no component can ever send
// again) or the run was stopped.
func (p *Proc) Recv(ports ...string) (Msg, bool) {
	return p.recv(vtime.Infinity, ports)
}

// RecvDeadline is Recv bounded by an absolute virtual-time deadline.
// If no message arrives by then, it returns ok=false with local time
// advanced to the deadline (a poll that found nothing).
func (p *Proc) RecvDeadline(deadline vtime.Time, ports ...string) (Msg, bool) {
	return p.recv(deadline, ports)
}

func (p *Proc) recv(deadline vtime.Time, ports []string) (Msg, bool) {
	c := p.c
	if len(ports) > 0 {
		if !slices.EqualFunc(c.recvSet, ports, func(pt *Port, name string) bool { return pt.Name == name }) {
			c.recvSet = slices.Grow(c.recvSet[:0], len(ports))
			for _, name := range ports {
				pt := c.Port(name)
				if pt == nil {
					c.recvSet = c.recvSet[:0]
					panic(fmt.Sprintf("core: %s has no port %q", c.name, name))
				}
				c.recvSet = append(c.recvSet, pt)
			}
		}
		c.recvPorts = c.recvSet
	} else {
		c.recvPorts = nil
	}
	// Fast path: deliver (or time out) inline when the outcome is
	// already determined below the component's fast bound — the
	// step-at-a-time scheduler would have picked this component right
	// back, so the handoff can be skipped entirely.
	if c.fastUntil != 0 && c.sub.extGen.Load() == c.fastGen {
		if ok, done := c.recvInline(deadline); done {
			c.recvPorts = nil
			if !ok {
				return Msg{Time: c.localTime}, false
			}
			return c.recvMsg, true
		}
	}
	c.recvDeadline = deadline
	c.status = statusRecv
	tok := c.sub.yield(c)
	c.recvPorts = nil
	c.recvDeadline = vtime.Infinity
	if tok.kill {
		panic(killPanic{c.name})
	}
	if !tok.ok || tok.msg == nil {
		return Msg{Time: c.localTime}, false
	}
	return *tok.msg, true
}

// Pending reports whether a message is already waiting for the
// component (subject to no port filter). It does not yield.
func (p *Proc) Pending() bool { return p.c.inbox.Len() > 0 }

// Checkpoint declares an explicit safe point and, if a checkpoint
// request is pending for this component, captures its image here.
func (p *Proc) Checkpoint() { p.yield() }

// Memory returns the component's synchronous-memory model.
func (p *Proc) Memory() *Memory { return p.c.Memory() }

// SetInterruptHandler registers fn to handle messages arriving on the
// named port as interrupts. Pending interrupts are drained — the
// handler invoked inline on this component's goroutine — at every
// synchronization point: explicit DrainInterrupts calls and accesses
// to synchronous memory addresses. Registration happens inside Run,
// so it is naturally re-established when Run is re-entered after a
// rollback.
func (p *Proc) SetInterruptHandler(port string, fn func(*Proc, Msg)) {
	if p.c.Port(port) == nil {
		panic(fmt.Sprintf("core: %s has no port %q for interrupts", p.c.name, port))
	}
	p.c.irqPort = port
	p.c.irqFn = fn
}

// DrainInterrupts synchronizes with subsystem time and delivers every
// interrupt pending at or before the component's local time to the
// registered handler. It models the hardware rule that a processor
// takes pending interrupts before executing the next synchronized
// access.
func (p *Proc) DrainInterrupts() {
	c := p.c
	if c.irqFn == nil {
		return
	}
	p.Sync()
	for {
		m, ok := p.RecvDeadline(p.Time(), c.irqPort)
		if !ok {
			return
		}
		c.irqFn(p, m)
	}
}

// recvInline mirrors the scheduler's key()/step() pair for a single
// component: if the receive's outcome (a delivery or a deadline
// expiry) falls strictly below the component's fast bound, it is
// applied inline and done=true is returned. Anything at or past the
// bound parks normally, because another component — or the scheduler
// itself (gates, checkpoints, horizon) — may act first. A delivery
// (ok) is left in recvMsg.
func (c *Component) recvInline(deadline vtime.Time) (ok, done bool) {
	t, at, have := c.nextDeliverable()
	key := vtime.Infinity
	if have {
		key = vtime.Max(t, c.localTime)
	}
	if deadline < key {
		key = vtime.Max(deadline, c.localTime)
	}
	if key >= c.fastUntil {
		return false, false
	}
	if have && vtime.Max(t, c.localTime) == key {
		c.deliver(at)
		c.viewNow = key
		return true, true
	}
	// Deadline expiry: a negative observation a straggler can
	// invalidate — recorded so the member never passes for inert.
	if b := c.wbuf; b != nil {
		b.expired = true
	}
	c.localTime = vtime.Max(c.localTime, deadline)
	c.viewNow = key
	return false, true
}

// deliver pops the event nextDeliverable found at inbox position at
// into recvMsg, the Msg handed to Recv, advancing the component's local
// time to the delivery time and counting the delivery. While the
// component runs speculatively (past the safe horizon in an optimistic
// round) the pop is journaled, so a straggler rollback can push it back.
func (c *Component) deliver(at int) {
	t, seq, l, v := c.inbox.PopAt(at)
	b := c.wbuf
	if b != nil && b.spec {
		b.popped = append(b.popped, c.stored(t, seq, l, v))
	}
	k := c.links.Key(l)
	now := vtime.Max(t, c.localTime)
	c.localTime = now
	m := &c.recvMsg
	m.Time, m.Sent = now, t
	m.Port, m.Net, m.Value, m.Source = k.port.Name, k.port.net.Name, v, k.source
	if b != nil {
		b.delivs++
	} else {
		atomic.AddInt64(&c.sub.stats.Deliveries, 1)
	}
}
