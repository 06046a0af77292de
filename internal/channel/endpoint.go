package channel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/signal"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// Policy selects how a channel trades parallelism against restores.
type Policy uint8

const (
	// Conservative channels never let the subsystem advance past the
	// peer's granted safe time.
	Conservative Policy = iota
	// Optimistic channels let the subsystem run ahead; a straggler
	// message triggers a rollback to a checkpoint.
	Optimistic
)

func (p Policy) String() string {
	if p == Optimistic {
		return "optimistic"
	}
	return "conservative"
}

// Stats counts endpoint activity.
type Stats struct {
	DataOut, DataIn     int64
	BytesOut, BytesIn   int64
	AsksOut, AsksIn     int64
	GrantsOut, GrantsIn int64
	Stragglers          int64
	SeqErrors           int64
	Flushes             int64 // non-empty egress flushes
	FlushedMsgs         int64 // messages carried by those flushes
}

// CoalesceConfig sizes the frames an endpoint's egress is written
// into. Drives are encoded into the open frame as they are sent; the
// frame goes on the wire at the next protocol event — a safe-time ask
// or grant, a scheduler stall, a horizon departure, a mark, a restore,
// the close — with the message that caused it last, so FIFO order is
// the frame's order, or when the next message would take it past the
// byte cap. Nothing bounds how long a drive may be held in virtual
// time, and nothing needs to: timestamps are stamped at egress and
// every stall and departure flushes, so holding moves wall-clock
// delivery only.
type CoalesceConfig struct {
	// MaxBytes caps a frame in wire bytes, its header included: a
	// message that would take the open frame past it starts the next
	// one, and the full frame is flushed. A frame holding one message
	// larger than the cap is the only one past it. 0 flushes every
	// message as a frame of its own, the reference the tests compare
	// against.
	MaxBytes int
}

// frameCap is the byte cap every endpoint starts with: a frame the
// peer's receive buffer (wire.RecvBufSize) holds whole, so it is read
// in one piece — and a page of word drives costs a frame per 32 KB, not
// per message count.
const frameCap = wire.RecvBufSize

// DefaultCoalesce is the policy every endpoint starts with: frames at
// frameCap. SetCoalescing overrides it; the zero CoalesceConfig is the
// flush-per-message reference the tests compare against.
var DefaultCoalesce = CoalesceConfig{MaxBytes: frameCap}

// Hub manages all channel endpoints of one subsystem. It chains into
// the subsystem's publish hook so grants are computed and pushed on
// the scheduler goroutine, after injected messages have been routed —
// which is what makes the published next-event key an honest bound.
type Hub struct {
	sub *core.Subsystem

	mu sync.Mutex
	// eps is copy-on-write: NewEndpoint installs a new slice and never
	// writes into one it handed out, so a reader takes it under mu and
	// ranges over it without a copy.
	eps []*Endpoint
	// bounds is publish's scratch, one entry per endpoint; publish runs
	// on the scheduler goroutine only.
	bounds []vtime.Time

	closed    bool
	metricsOn bool // EnableMetrics already wired a collector

	// tl, when non-nil, receives protocol timeline events from every
	// endpoint (see EnableTimeline). Nil costs one pointer check per
	// protocol action; the data hot path stays untouched.
	tl *timeline.Recorder
}

// NewHub creates the hub and installs its publish hook.
func NewHub(sub *core.Subsystem) *Hub {
	h := &Hub{sub: sub}
	prev := sub.OnPublish
	sub.OnPublish = func(now, key vtime.Time) {
		if prev != nil {
			prev(now, key)
		}
		h.publish(key)
	}
	prevDepart := sub.OnDepart
	sub.OnDepart = func(until vtime.Time) {
		if prevDepart != nil {
			prevDepart(until)
		}
		h.depart(until)
	}
	prevStall := sub.OnStall
	sub.OnStall = func() {
		if prevStall != nil {
			prevStall()
		}
		h.flushAll()
	}
	return h
}

// endpoints returns the current endpoint list. The caller must not
// modify it.
func (h *Hub) endpoints() []*Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.eps
}

// flushAll drains every endpoint's egress queue. Chained into the
// subsystem's stall hook: whenever the scheduler is about to block,
// anything still coalescing goes on the wire — the peer may be
// waiting on exactly those drives, and nothing further will top up
// the batch while we sleep.
func (h *Hub) flushAll() {
	for _, ep := range h.endpoints() {
		ep.Flush()
	}
}

// EnableTimeline attaches the timeline recorder to the hub: every
// endpoint (existing and future) records its committed data
// send/delivery pairs plus the transient ask/grant/straggler protocol
// chatter. Disabled (the default) the endpoints pay a nil check per
// protocol action and nothing on the byte path.
func (h *Hub) EnableTimeline(rec *timeline.Recorder) {
	if rec == nil {
		return
	}
	h.mu.Lock()
	h.tl = rec
	eps := h.eps
	h.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.tl = rec
		ep.mu.Unlock()
	}
}

// SetCoalescing applies cfg to every endpoint of the hub.
func (h *Hub) SetCoalescing(cfg CoalesceConfig) {
	for _, ep := range h.endpoints() {
		ep.SetCoalescing(cfg)
	}
}

// depart pushes a final grant covering the horizon to every
// conservative peer when this subsystem leaves a finite-horizon run
// (safeTime.depart).
func (h *Hub) depart(until vtime.Time) {
	g := until.Add(1)
	for _, ep := range h.endpoints() {
		if !ep.do(func(s *safeTime) out { return s.depart(g) }, "") {
			ep.Flush() // no grant to carry them, but drives must still go out
		}
	}
}

// Subsystem returns the hub's subsystem.
func (h *Hub) Subsystem() *core.Subsystem { return h.sub }

// Endpoints returns the endpoints in creation order.
func (h *Hub) Endpoints() []*Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Endpoint(nil), h.eps...)
}

// Endpoint returns the endpoint toward the named peer, or nil.
func (h *Hub) Endpoint(peer string) *Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ep := range h.eps {
		if ep.peer == peer {
			return ep
		}
	}
	return nil
}

// NewEndpoint creates a channel endpoint toward the named peer
// subsystem. The endpoint registers itself as an ingress source and,
// for conservative policy, as a gate on the subsystem.
func (h *Hub) NewEndpoint(peer string, policy Policy, link LinkModel, tr Transport) (*Endpoint, error) {
	if err := link.Validate(policy == Conservative); err != nil {
		return nil, err
	}
	if h.Endpoint(peer) != nil {
		return nil, fmt.Errorf("channel: duplicate endpoint %s -> %s", h.sub.Name(), peer)
	}
	ep := &Endpoint{
		sub:    h.sub,
		local:  h.sub.Name(),
		peer:   peer,
		policy: policy,
		link:   link,
		tr:     tr,
		st: safeTime{
			local:        h.sub.Name(),
			peer:         peer,
			conservative: policy == Conservative,
			link:         link,
		},
		out: frameBuilder{room: wire.HeaderLen, frame: -1, run: -1},
	}
	ep.out.limit, ep.out.size = frameSizing(DefaultCoalesce)
	h.mu.Lock()
	ep.tl = h.tl
	h.eps = append(h.eps[:len(h.eps):len(h.eps)], ep) // a new slice: see eps
	h.mu.Unlock()
	h.sub.AddExternal()
	if policy == Conservative {
		h.sub.AddGate(ep)
	}
	return ep, nil
}

// publish runs on the scheduler goroutine after each key publication:
// push grants that have risen, answer pending asks, and forward asks
// we cannot yet satisfy. The grant toward peer X stands on
// floorExcept(key, bounds, X) — our key with X's restriction removed —
// and a pending ask is relayed upstream when forwards says so.
func (h *Hub) publish(_ vtime.Time) {
	_, key := h.sub.PublishedTimes()
	eps := h.endpoints()
	if cap(h.bounds) < len(eps) {
		h.bounds = make([]vtime.Time, len(eps))
	}
	bounds := h.bounds[:len(eps)]
	for i, ep := range eps {
		bounds[i] = ep.Bound()
	}
	needed := vtime.Time(0)
	for i, ep := range eps {
		fx := floorExcept(key, bounds, i)
		ep.do(func(s *safeTime) out {
			o := s.grant(fx)
			needed = max(needed, s.demand()) // what the grant left unmet
			return o
		}, "")
	}
	if !forwards(key, floorExcept(key, bounds, -1), needed) {
		return
	}
	for _, ep := range eps {
		ep.do(func(s *safeTime) out { return s.forward(needed) }, "")
	}
}

// Close announces completion to every peer (a grant of Infinity) and
// closes the transports. Call after the subsystem's Run returns.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	eps := h.eps
	h.mu.Unlock()
	var first error
	for _, ep := range eps {
		if !ep.do((*safeTime).close, "") {
			continue
		}
		// Everything queued, then the close, went out: the transport
		// goes down.
		if err := ep.tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Endpoint is one side of a channel between two subsystems. It plays
// the role of the paper's channel component: a proxy for the
// subsystem on the opposite side, owning the hidden ports added to
// split nets, coordinating time across the channel, and carrying the
// snapshot marks. Like Pia's channel components it has no thread of
// its own — egress runs on the subsystem's scheduler, ingress on the
// transport's pump.
//
// The safe-time protocol is st; everything else is what the endpoint
// performs for it. Every action takes the one shape: lock mu, call st,
// encode the message it returns into the egress frame, unlock, and
// only then perform — the timeline record, the flush, the drive, the
// handler, the stop.
type Endpoint struct {
	sub    *core.Subsystem
	local  string
	peer   string
	policy Policy
	link   LinkModel
	tr     Transport

	mu          sync.Mutex
	st          safeTime
	recording   bool
	recorded    []Message
	markFn      func(tag string)
	restoreFn   func(tag string)
	stragglerFn func(t vtime.Time) bool
	tl          *timeline.Recorder // nil unless EnableTimeline wired it

	// binds tracks the nets this endpoint bridges: local net name ->
	// remote fragment name. Migration re-homes nets by unbinding here
	// and rebinding on another endpoint under the new placement epoch.
	binds map[string]string

	// Egress queue: the wire bytes of the frames leaving next. Each
	// message is encoded into out under ep.mu as it is stamped, so the
	// queue is the seq order and holds no message and no value, only
	// bytes. A flush takes the sealed frames and hands them to the
	// transport under sendMu, which serializes flushes and keeps frames
	// in order; messages encoded meanwhile go behind them.
	out    frameBuilder
	sendMu sync.Mutex // serializes flushes; never taken under ep.mu

	// inNet is the net the last ingress drive went to, so a run of
	// drives looks its net up once instead of once a drive. Scheduler
	// goroutine only. A subsystem never removes or replaces a net, so
	// the pointer stays good for as long as the name matches.
	inNet *core.Net

	// Flush accounting for round-based drivers (pia.Simulation.Run):
	// queuedN counts messages enqueued by the transport pump,
	// handledN counts messages fully processed by the scheduler.
	queuedN  atomic.Int64
	handledN atomic.Int64
}

// do is the one shape of every protocol send: under ep.mu it lets the
// protocol decide and encodes the message decided on (a mark or restore
// carries tag) into the egress frame; then, unlocked, it records the
// message on the timeline and flushes the frame onto the wire, the
// drives encoded ahead of the message in it. It reports whether a
// message was queued.
func (ep *Endpoint) do(decide func(*safeTime) out, tag string) bool {
	ep.mu.Lock()
	o := decide(&ep.st)
	if o.seq == 0 {
		ep.mu.Unlock()
		return false
	}
	var m Message
	m.stamp(o, ep.local)
	m.Tag = tag
	fit, err := ep.out.control(&m)
	if err == nil && !fit {
		ep.out.seal()
		_, err = ep.out.control(&m)
	}
	tl := ep.tl
	ep.mu.Unlock()
	if err != nil {
		ep.fail(err)
		return true
	}
	switch o.kind {
	case KindSafeTimeReq:
		tl.Ask(ep.local, ep.peer, o.t)
	case KindSafeTimeGrant:
		tl.Grant(ep.local, ep.peer, o.t)
	}
	ep.Flush()
	return true
}

// SentCount returns how many messages this endpoint has emitted.
func (ep *Endpoint) SentCount() int64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return int64(ep.st.seqOut)
}

// QueuedCount returns how many peer messages have reached the local
// injection queue.
func (ep *Endpoint) QueuedCount() int64 { return ep.queuedN.Load() }

// HandledCount returns how many peer messages the scheduler has fully
// processed.
func (ep *Endpoint) HandledCount() int64 { return ep.handledN.Load() }

// Name implements core.Gate.
func (ep *Endpoint) Name() string { return graph.ChannelComponentName(ep.local, ep.peer) }

// Peer returns the peer subsystem's name.
func (ep *Endpoint) Peer() string { return ep.peer }

// Policy returns the channel policy.
func (ep *Endpoint) Policy() Policy { return ep.policy }

// Link returns the channel's link model.
func (ep *Endpoint) Link() LinkModel { return ep.link }

// Stats returns a copy of the counters.
func (ep *Endpoint) Stats() Stats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.st.stats
}

// Err returns any protocol error observed on ingress.
func (ep *Endpoint) Err() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.st.err
}

// Quiesced implements core.GateQuiescer: the endpoint owes the peer
// nothing when no ask is outstanding.
func (ep *Endpoint) Quiesced() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.st.quiesced()
}

// Bound implements core.Gate: the earliest virtual time at which
// anything can still arrive from the peer (safeTime.bound).
func (ep *Endpoint) Bound() vtime.Time {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.st.bound()
}

// Request implements core.Gate: ask the peer for a safe time of at
// least t (safeTime.ask).
func (ep *Endpoint) Request(t vtime.Time) {
	ep.do(func(s *safeTime) out { return s.ask(t) }, "")
}

// BindNet attaches the endpoint to a split net: a hidden port is
// added to the local fragment, and every value driven on it is
// forwarded to the peer's fragment named remoteNet.
func (ep *Endpoint) BindNet(localNet *core.Net, remoteNet string) error {
	name := graph.HiddenPortName(localNet.Name, ep.peer)
	_, err := ep.sub.AttachHidden(localNet, name, ep.Name(), func(src string, sent vtime.Time, v any) {
		ep.egress(remoteNet, src, sent, v)
	})
	if err != nil {
		return err
	}
	ep.mu.Lock()
	if ep.binds == nil {
		ep.binds = make(map[string]string)
	}
	ep.binds[localNet.Name] = remoteNet
	ep.mu.Unlock()
	return nil
}

// UnbindNet removes the hidden port BindNet added for the given local
// net, so drives on it stop crossing this channel. Only legal between
// runs (the mesh splice step). The endpoint itself stays up — an empty
// channel still exchanges safe-time traffic.
func (ep *Endpoint) UnbindNet(localNet *core.Net) error {
	ep.mu.Lock()
	_, bound := ep.binds[localNet.Name]
	ep.mu.Unlock()
	if !bound {
		return fmt.Errorf("channel: %s does not bind net %s", ep.Name(), localNet.Name)
	}
	name := graph.HiddenPortName(localNet.Name, ep.peer)
	if err := ep.sub.DetachHidden(localNet, name); err != nil {
		return err
	}
	ep.mu.Lock()
	delete(ep.binds, localNet.Name)
	ep.mu.Unlock()
	return nil
}

// egress forwards a drive of a local net by src, sent at virtual time
// sent, across the channel: do's shape, with the drive encoded straight
// into the open frame's run entry and the flush left to the byte cap.
// Once it returns nothing of the endpoint refers to v.
func (ep *Endpoint) egress(remoteNet, src string, sent vtime.Time, v any) {
	size := signal.Size(v) // what the link model charges for
	ep.mu.Lock()
	o := ep.st.data(sent, size)
	if o.seq == 0 {
		ep.mu.Unlock()
		return
	}
	b := &ep.out
	fit, err := b.drive(o.seq, o.ack, o.t, ep.local, remoteNet, src, v)
	if err == nil && !fit {
		b.seal() // full: it flushes below, and the drive opens the next
		_, err = b.drive(o.seq, o.ack, o.t, ep.local, remoteNet, src, v)
	}
	full := b.sealed > b.busy
	perMessage := b.limit == 0
	tl := ep.tl
	ep.mu.Unlock()
	if err != nil {
		ep.fail(err)
		return
	}
	// Recorded at the drive's send time; the peer records the matching
	// delivery at the arrival time, and the exporter pairs the two by
	// committed index into one flow.
	tl.Send(ep.local, ep.peer, remoteNet, sent)
	switch {
	case perMessage:
		ep.Flush()
	case full:
		ep.flush(false)
	}
}

// fail latches err, a message that could not be sent, as the endpoint's
// error and ends the owner's run.
func (ep *Endpoint) fail(err error) {
	ep.mu.Lock()
	stop := ep.st.latch(fmt.Errorf("send: %w", err))
	ep.mu.Unlock()
	if stop {
		ep.sub.Stop()
	}
}

// PeerLost latches err, the loss of the transport to the peer, as the
// endpoint's error — which ends the owning subsystem's run, as a failed
// send does — unless the channel was over already: this side has closed
// it, or the peer has with a Close. Once the transport is gone nothing
// more arrives, so a run stalled on a grant only the peer could send
// would otherwise wait for ever. The transport pump calls it.
func (ep *Endpoint) PeerLost(err error) {
	ep.mu.Lock()
	stop := !ep.st.closed && !ep.st.peerDone && ep.st.latch(err)
	ep.mu.Unlock()
	if stop {
		ep.sub.Stop()
	}
}

// SetCoalescing replaces the endpoint's frame cap (DefaultCoalesce
// until then). Safe to call at any time: the frame being built flushes,
// and the next one is built to the new cap.
func (ep *Endpoint) SetCoalescing(cfg CoalesceConfig) {
	ep.mu.Lock()
	ep.out.limit, ep.out.size = frameSizing(cfg)
	ep.mu.Unlock()
	ep.Flush()
}

// frameSizing is the builder's cap and buffer size under cfg: a
// buffer sized for frames at the cap, capped itself at frameCap so a
// large cap does not reserve its size up front.
func frameSizing(cfg CoalesceConfig) (limit, size int) {
	if cfg.MaxBytes <= 0 {
		return 0, 0
	}
	return cfg.MaxBytes, min(cfg.MaxBytes, frameCap) + frameSlack
}

// Flush puts everything queued on the transport: the open frame is
// sealed and every sealed frame sent. An empty queue is a no-op.
func (ep *Endpoint) Flush() { ep.flush(true) }

// flush sends the sealed frames, after sealing the open one when all is
// set; a frame the byte cap sealed goes without the one its overflow
// opened. Concurrent flushes are serialized by sendMu, and the frames
// are taken under ep.mu after sendMu is held, so they leave in seq order
// even when several goroutines race to flush. The transport writes each
// frame where it was built, reading it only: what is encoded while it
// does goes behind it in the same buffer, and moves to the front once
// it is sent.
func (ep *Endpoint) flush(all bool) {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	ep.mu.Lock()
	if all {
		ep.out.seal()
	}
	frames, msgs := ep.out.take()
	if msgs > 0 {
		ep.st.stats.Flushes++
		ep.st.stats.FlushedMsgs += int64(msgs)
	}
	ep.mu.Unlock()
	if len(frames) == 0 {
		return
	}
	var err error
	for len(frames) > 0 && err == nil {
		var frame []byte
		frame, frames = wire.NextFrame(frames)
		err = ep.tr.SendFrame(frame)
	}
	ep.mu.Lock()
	ep.out.done()
	ep.mu.Unlock()
	if err != nil {
		ep.fail(err)
	}
}

// PendingOut returns how many egress messages are queued, unflushed.
func (ep *Endpoint) PendingOut() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.out.pending()
}

// SetMarkHandler registers the Chandy-Lamport mark callback.
func (ep *Endpoint) SetMarkHandler(fn func(tag string)) {
	ep.mu.Lock()
	ep.markFn = fn
	ep.mu.Unlock()
}

// SetRestoreHandler registers the coordinated-restore callback.
func (ep *Endpoint) SetRestoreHandler(fn func(tag string)) {
	ep.mu.Lock()
	ep.restoreFn = fn
	ep.mu.Unlock()
}

// SetStragglerHandler overrides the default straggler reaction
// (Subsystem.RequestRollback); the snapshot coordinator installs a
// distributed restore here. The handler returns whether the straggler
// message itself must be redelivered after the rollback: true for a
// local-only rollback (the sender will not resend), false for a
// coordinated restore (the sender rewinds past its send and will
// regenerate the message).
func (ep *Endpoint) SetStragglerHandler(fn func(t vtime.Time) bool) {
	ep.mu.Lock()
	ep.stragglerFn = fn
	ep.mu.Unlock()
}

// SendMark emits a snapshot mark toward the peer.
func (ep *Endpoint) SendMark(tag string) {
	ep.do(func(s *safeTime) out { return s.control(KindMark) }, tag)
}

// SendRestore orders the peer to restore the tagged snapshot.
func (ep *Endpoint) SendRestore(tag string) {
	ep.do(func(s *safeTime) out { return s.control(KindRestore) }, tag)
}

// SetRecording starts or stops capturing incoming data messages (the
// channel-state half of a Chandy-Lamport snapshot).
func (ep *Endpoint) SetRecording(on bool) {
	ep.mu.Lock()
	ep.recording = on
	if on {
		ep.recorded = nil
	}
	ep.mu.Unlock()
}

// TakeRecorded returns and clears the captured in-flight messages.
func (ep *Endpoint) TakeRecorded() []Message {
	ep.mu.Lock()
	out := ep.recorded
	ep.recorded = nil
	ep.recording = false
	ep.mu.Unlock()
	return out
}

// msgBufPool recycles the batch buffers the transport pump decodes
// into and OnMessages hands to the scheduler goroutine; every buffer in
// it is empty (see recycle). It holds pointers, so a Put boxes nothing.
var msgBufPool = sync.Pool{New: func() any {
	b := make([]Message, 0, 64)
	return &b
}}

// BatchBuf returns an empty buffer for one batch of ingress messages:
// the transport pump decodes into it and hands it to OnMessages, which
// takes it over.
func BatchBuf() *[]Message { return msgBufPool.Get().(*[]Message) }

// recycle drops the payload references *buf holds and returns it to
// msgBufPool.
func recycle(buf *[]Message) {
	clear(*buf)
	*buf = (*buf)[:0]
	msgBufPool.Put(buf)
}

// OnMessages is the ingress entry point, called by the transport pump
// with each burst of decoded messages in arrival order. All processing
// is deferred to the subsystem's scheduler goroutine through the
// injection queue, one injection and one scheduler wakeup a burst,
// which preserves the channel's FIFO order relative to every other
// ingress action — the property both the safe-time protocol and the
// Chandy-Lamport marks depend on. A message that requests a rollback
// (an optimistic straggler) is retried, and the rest of the burst
// stays behind it, by resuming the in-burst cursor after the restore.
//
// OnMessages takes buf over — the caller got it from BatchBuf and must
// not touch it, or the slice it holds, again — so a burst crosses to
// the scheduler goroutine as decoded, without a copy. The handled
// count moves once per pass over the burst: by everything the pass
// processed, before a straggler's retry as at the end.
func (ep *Endpoint) OnMessages(buf *[]Message) {
	msgs := *buf
	if len(msgs) == 0 {
		recycle(buf)
		return
	}
	ep.queuedN.Add(int64(len(msgs)))
	handled := 0
	ep.sub.InjectFunc(func() bool {
		i, retry := handled, false
		for i < len(msgs) && !retry {
			var n int
			n, retry = ep.process(msgs[i:])
			i += n
		}
		ep.handledN.Add(int64(i - handled))
		handled = i
		if retry {
			return true // straggler: retry this message after the rollback
		}
		recycle(buf)
		return false
	})
}

// process handles msgs[0] and the messages after it that are plain
// deliveries on the scheduler goroutine (safeTime.receive): their
// verdicts are decided under one lock, up to and including the first
// message whose verdict is not a delivery, and then performed in order.
// It returns how many messages it handled, and whether the message
// after them is an optimistic straggler the handler wants redelivered
// once the rollback it requested has run.
func (ep *Endpoint) process(msgs []Message) (handled int, retry bool) {
	now := ep.sub.Now()
	n, v, stop := 0, inDeliver, false
	ep.mu.Lock()
	for n < len(msgs) {
		var halt bool
		v, halt = ep.st.receive(&msgs[n], now)
		stop = stop || halt
		if v != inDeliver {
			break
		}
		if ep.recording {
			ep.recorded = append(ep.recorded, msgs[n])
		}
		n++
	}
	tl, markFn, restoreFn, stragglerFn := ep.tl, ep.markFn, ep.restoreFn, ep.stragglerFn
	ep.mu.Unlock()
	if stop {
		ep.sub.Stop()
	}
	for i := range msgs[:n] {
		m := &msgs[i]
		tl.Deliver(ep.peer, ep.local, m.Net, m.Time)
		// A drive of a net this subsystem does not have goes nowhere,
		// as it always has.
		if ep.inNet == nil || ep.inNet.Name != m.Net {
			ep.inNet = ep.sub.Net(m.Net)
		}
		if ep.inNet != nil {
			ep.sub.DriveNetNow(ep.inNet, m.Source, m.Time, m.Value)
		}
	}
	if n == len(msgs) {
		return n, false
	}
	m := &msgs[n]
	switch v {
	case inStraggler:
		tl.Straggler(ep.peer, ep.local, m.Net, m.Time, now)
		retry := true
		if stragglerFn != nil {
			retry = stragglerFn(m.Time) // false: the sender rewinds past it and sends it again
		} else {
			ep.sub.RequestRollback(m.Time)
		}
		if retry {
			return n, true // re-deliver after the restore
		}
	case inMark:
		if markFn != nil {
			markFn(m.Tag)
		}
	case inRestore:
		if restoreFn != nil {
			restoreFn(m.Tag)
		}
	case inClose:
		ep.sub.RemoveExternal()
	}
	return n + 1, false
}

// LastSeqIn returns the highest channel sequence number processed
// from the peer — diagnostic context for peer-loss errors.
func (ep *Endpoint) LastSeqIn() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.st.seqIn
}

// ResetProtocol zeroes all per-connection protocol state for a
// checkpoint rewind (safeTime.reset) and drops the queued egress of the
// abandoned timeline. Egress stays paused until ResumeProtocol.
//
// Call on the subsystem's scheduler goroutine (via InjectFunc), after
// every message of the dead connection epoch has drained from the
// injection queue; calling earlier would interleave old-timeline
// sequence numbers with the reset counters.
func (ep *Endpoint) ResetProtocol() {
	ep.mu.Lock()
	ep.st.reset()
	ep.out.reset()
	ep.mu.Unlock()
}

// ResumeProtocol reopens egress after a rewind's restore completes.
func (ep *Endpoint) ResumeProtocol() {
	ep.mu.Lock()
	ep.st.paused = false
	ep.mu.Unlock()
}
