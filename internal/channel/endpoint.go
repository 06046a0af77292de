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

// CoalesceConfig sizes egress message coalescing. Data drives
// accumulate in the endpoint's egress queue until one of the budgets
// trips; urgent messages (safe-time asks and grants, marks, restores,
// close) always flush immediately, with any queued drives preceding
// them in the same batch so FIFO order is preserved. Nothing bounds
// how long a drive may be held in virtual time, and nothing needs to:
// timestamps are stamped at egress and every scheduler stall and
// horizon departure flushes, so holding moves wall-clock delivery only.
type CoalesceConfig struct {
	// MaxMsgs flushes once this many messages are queued. Values
	// below 2 disable coalescing: every message is its own flush.
	MaxMsgs int
	// MaxBytes flushes once the queued payload bytes (signal sizes,
	// not wire encoding) reach this budget. 0 means no byte budget.
	MaxBytes int
}

// Enabled reports whether the config actually coalesces.
func (c CoalesceConfig) Enabled() bool { return c.MaxMsgs > 1 }

// DefaultCoalesce is the policy every endpoint starts with: batches
// big enough to amortize framing over a burst of word drives, small
// enough that a page of packets still streams. SetCoalescing overrides
// it; the zero CoalesceConfig is the flush-per-message reference the
// tests compare against.
var DefaultCoalesce = CoalesceConfig{MaxMsgs: 64, MaxBytes: 32 << 10}

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

		coalesce: DefaultCoalesce,
	}
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
// fill the egress slot for the message it returns, unlock, and only
// then perform — the timeline record, the flush, the drive, the
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

	// Egress queue. Messages are appended to pendingOut under ep.mu as
	// slotLocked fills them, so the queue is the seq order; flush extracts the
	// whole queue and hands it to the transport under sendMu, which
	// serializes flushes and keeps batches in order. coalesce decides
	// only when the queue flushes: once a budget trips, or — the zero
	// config — after every message.
	coalesce     CoalesceConfig
	pendingOut   []Message
	spareOut     []Message // previous batch's backing array, reused
	pendingBytes int

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
// protocol decide and fills the egress slot for the message decided on
// (a mark or restore carries tag); then, unlocked, it records the
// message on the timeline and flushes the queue onto the wire. It
// reports whether a message was queued.
func (ep *Endpoint) do(decide func(*safeTime) out, tag string) bool {
	ep.mu.Lock()
	o := decide(&ep.st)
	if o.seq == 0 {
		ep.mu.Unlock()
		return false
	}
	ep.slotLocked(o).Tag = tag
	tl := ep.tl
	ep.mu.Unlock()
	switch o.kind {
	case KindSafeTimeReq:
		tl.Ask(ep.local, ep.peer, o.t)
	case KindSafeTimeGrant:
		tl.Grant(ep.local, ep.peer, o.t)
	}
	ep.Flush()
	return true
}

// slotLocked extends the egress queue by one message, stamped with o,
// and returns it for the caller to fill in where it lies: no Message is
// built elsewhere and copied in, and queue order is seq order. A control
// kind is urgent — its caller flushes after releasing ep.mu, and the
// drives queued ahead of it leave in the same batch. Caller holds ep.mu.
func (ep *Endpoint) slotLocked(o out) *Message {
	ep.pendingOut = append(ep.pendingOut, Message{})
	m := &ep.pendingOut[len(ep.pendingOut)-1]
	m.stamp(o, ep.local)
	return m
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
	_, err := ep.sub.AttachHidden(localNet, name, ep.Name(), func(m core.Msg) {
		ep.egress(remoteNet, &m)
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

// egress forwards a local net drive across the channel: do's shape,
// with the flush left to the coalescing budgets.
func (ep *Endpoint) egress(remoteNet string, m *core.Msg) {
	size := signal.Size(m.Value) // what the link model charges for
	ep.mu.Lock()
	o := ep.st.data(m.Sent, size)
	if o.seq == 0 {
		ep.mu.Unlock()
		return
	}
	msg := ep.slotLocked(o)
	msg.Net, msg.Source, msg.Value = remoteNet, m.Source, m.Value
	ep.pendingBytes += size
	flush := !ep.coalesce.Enabled() || len(ep.pendingOut) >= ep.coalesce.MaxMsgs ||
		ep.coalesce.MaxBytes > 0 && ep.pendingBytes >= ep.coalesce.MaxBytes
	tl := ep.tl
	ep.mu.Unlock()
	// Recorded at the drive's send time; the peer records the matching
	// delivery at the arrival time, and the exporter pairs the two by
	// committed index into one flow.
	tl.Send(ep.local, ep.peer, remoteNet, m.Sent)
	if flush {
		ep.Flush()
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

// SetCoalescing replaces the endpoint's coalescing budgets
// (DefaultCoalesce until then). Safe to call at any time; a disable
// flushes whatever is queued.
func (ep *Endpoint) SetCoalescing(cfg CoalesceConfig) {
	ep.mu.Lock()
	ep.coalesce = cfg
	ep.mu.Unlock()
	if !cfg.Enabled() {
		// Whatever raced into the queue after this sees coalescing
		// off and flushes itself.
		ep.Flush()
	}
}

// Flush drains the egress queue onto the transport. An empty queue is
// a no-op. Concurrent flushes are serialized by sendMu, and the queue
// is extracted under ep.mu after sendMu is held, so batches leave in
// enqueue (= seq) order even when several goroutines race to flush.
// Once the transport has the batch its slots are cleared: a spent
// message would otherwise keep its value — a packet, a view of a whole
// page — alive until the slot is next written.
func (ep *Endpoint) Flush() {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	ep.mu.Lock()
	batch := ep.pendingOut
	// Swap in the previous batch's array: steady state allocates
	// nothing. The array being handed to the transport below is not
	// reused until the next flush, which sendMu holds off.
	ep.pendingOut = ep.spareOut[:0]
	ep.spareOut = batch
	ep.pendingBytes = 0
	if len(batch) > 0 {
		ep.st.stats.Flushes++
		ep.st.stats.FlushedMsgs += int64(len(batch))
	}
	ep.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	err := ep.tr.SendBatch(batch)
	clear(batch) // the transport keeps nothing (Transport)
	if err != nil {
		ep.mu.Lock()
		stop := ep.st.latch(fmt.Errorf("send: %w", err))
		ep.mu.Unlock()
		if stop {
			ep.sub.Stop()
		}
	}
}

// PendingOut returns how many egress messages are queued, unflushed.
func (ep *Endpoint) PendingOut() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.pendingOut)
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

// OnMessage is the ingress entry point, called by the transport pump
// in arrival order. All processing is deferred to the subsystem's
// scheduler goroutine through the injection queue, which preserves
// the channel's FIFO order relative to every other ingress action —
// the property both the safe-time protocol and the Chandy-Lamport
// marks depend on.
func (ep *Endpoint) OnMessage(m Message) {
	ep.queuedN.Add(1)
	ep.sub.InjectFunc(func() bool {
		retry := ep.process(&m)
		if !retry {
			ep.handledN.Add(1)
		}
		return retry
	})
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

// OnMessages is the batched ingress entry point: one burst of decoded
// messages, queued as a single injection. Processing order — and
// therefore the channel's FIFO guarantee — is identical to calling
// OnMessage per message; what changes is the cost: one injection-queue
// append and one scheduler wakeup per burst instead of one per
// message. Straggler retry semantics are preserved by resuming the
// in-batch cursor: a message that requests a rollback is retried (and
// the rest of the batch stays behind it) exactly as the per-message
// path would re-queue it at the front.
//
// OnMessages takes buf over — the caller got it from BatchBuf and must
// not touch it, or the slice it holds, again — so a burst crosses to
// the scheduler goroutine as decoded, without a copy. The handled
// count moves once per pass over the batch: by everything the pass
// processed, before a straggler's retry as at the end.
func (ep *Endpoint) OnMessages(buf *[]Message) {
	msgs := *buf
	switch len(msgs) {
	case 0:
		recycle(buf)
		return
	case 1:
		ep.OnMessage(msgs[0])
		recycle(buf)
		return
	}
	ep.queuedN.Add(int64(len(msgs)))
	handled := 0
	ep.sub.InjectFunc(func() bool {
		i := handled
		for i < len(msgs) && !ep.process(&msgs[i]) {
			i++
		}
		ep.handledN.Add(int64(i - handled))
		handled = i
		if i < len(msgs) {
			return true // straggler: retry this message after the rollback
		}
		recycle(buf)
		return false
	})
}

// process handles one message on the scheduler goroutine
// (safeTime.receive). It returns true (retry after rollback) for an
// optimistic straggler the handler wants redelivered.
func (ep *Endpoint) process(m *Message) bool {
	now := ep.sub.Now()
	ep.mu.Lock()
	v, stop := ep.st.receive(m, now)
	if v == inDeliver && ep.recording {
		ep.recorded = append(ep.recorded, *m)
	}
	tl, markFn, restoreFn, stragglerFn := ep.tl, ep.markFn, ep.restoreFn, ep.stragglerFn
	ep.mu.Unlock()
	if stop {
		ep.sub.Stop()
	}
	switch v {
	case inDeliver:
		tl.Deliver(ep.peer, ep.local, m.Net, m.Time)
		// A drive of a net this subsystem does not have goes nowhere,
		// as it always has.
		if ep.inNet == nil || ep.inNet.Name != m.Net {
			ep.inNet = ep.sub.Net(m.Net)
		}
		if ep.inNet != nil {
			ep.sub.DriveNetNow(ep.inNet, m.Source, m.Time, m.Value)
		}
	case inStraggler:
		tl.Straggler(ep.peer, ep.local, m.Net, m.Time, now)
		if stragglerFn != nil {
			return stragglerFn(m.Time)
		}
		ep.sub.RequestRollback(m.Time)
		return true // re-deliver after the restore
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
	return false
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
	clear(ep.pendingOut)
	ep.pendingOut = ep.pendingOut[:0]
	ep.pendingBytes = 0
	ep.mu.Unlock()
}

// ResumeProtocol reopens egress after a rewind's restore completes.
func (ep *Endpoint) ResumeProtocol() {
	ep.mu.Lock()
	ep.st.paused = false
	ep.mu.Unlock()
}
