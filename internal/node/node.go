// Package node implements Pia nodes: the network servers that host
// subsystems and interconnect them over TCP. Each node serves as both
// a client and a server and handles all inter-node communication so
// that it is hidden from the user; the paper used Java RMI here, this
// implementation speaks the length-prefixed frames of package wire: a
// binary hello/helloAck handshake (hello.go), then nothing but binary
// batch frames (internal/channel's codec) in both directions. One TCP
// connection carries one channel, which preserves the per-channel FIFO
// order the time-management protocols require.
package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/snapshot"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// ErrPeerLost is wrapped by every pump failure caused by losing the
// remote node mid-run — a raw EOF, a dead TCP connection, or an
// exhausted resilient session. A clean channel Close is not a peer
// loss.
var ErrPeerLost = errors.New("node: peer lost")

// peerLostError carries the context of a lost peer: which subsystem
// vanished and the last channel sequence number processed from it.
type peerLostError struct {
	Peer    string // peer subsystem name
	LastSeq uint64 // last channel seq processed from the peer
	Cause   error
}

func (e *peerLostError) Error() string {
	return fmt.Sprintf("node: peer %s lost after seq %d: %v", e.Peer, e.LastSeq, e.Cause)
}

// Unwrap makes errors.Is match both ErrPeerLost and the cause chain
// (e.g. resilience.ErrSessionLost).
func (e *peerLostError) Unwrap() []error { return []error{ErrPeerLost, e.Cause} }

// Hosted bundles a subsystem with its channel hub and snapshot agent
// on a node.
type Hosted struct {
	Sub   *core.Subsystem
	Hub   *channel.Hub
	Agent *snapshot.Agent

	// OnChannel, when set, is invoked after an incoming handshake
	// creates a server-side endpoint — the place to bind split nets.
	OnChannel func(ep *channel.Endpoint)

	// sessions, guarded by the node's mu, are the resumable sessions
	// serving this subsystem's channels. The subsystem's departure
	// gate consults them (see bindSession).
	sessions []*resilience.Session
}

// Node is a Pia node: a number of sockets, each of which can
// facilitate a connection to a design tool, a simulator subsystem or
// a remote device.
type Node struct {
	name string

	mu     sync.Mutex
	hosted map[string]*Hosted
	ln     net.Listener
	rln    *resilience.Listener
	conns  []*wire.Conn
	closed bool
	wg     sync.WaitGroup

	coalesce    channel.CoalesceConfig
	coalesceSet bool

	// Fault injection and session resilience, applied to every
	// connection the node creates after the Set call; a zero Config is
	// off.
	faults   faultnet.Config
	resil    resilience.Config
	flinks   []*faultnet.Link
	sessions []*resilience.Session

	// metricsReg, when non-nil, is the registry every hosted
	// subsystem and connection surface reports into (see metrics.go).
	metricsReg *metrics.Registry

	// tlRec, when non-nil, is the timeline recorder every hosted
	// subsystem, hub, fault link, and session records into (see
	// timeline.go); tlMetricsOn remembers that its health counters
	// are already exported through metricsReg.
	tlRec       *timeline.Recorder
	tlMetricsOn bool

	// flightRec, when non-nil, is the flight recorder notified on
	// connection failures (see flight.go). Error paths pay one
	// nil-guarded accessor, nothing more.
	flightRec *flight.Recorder
}

// New creates a node.
func New(name string) *Node {
	return &Node{name: name, hosted: make(map[string]*Hosted)}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Host registers a subsystem on the node, creating its hub and
// snapshot agent. Call before Listen/Connect involving the
// subsystem. Note the agent attaches to endpoints created later, so
// Host wires agents lazily: the agent is created on first use.
func (n *Node) Host(sub *core.Subsystem) *Hosted {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosted[sub.Name()]; ok {
		return h
	}
	h := &Hosted{Sub: sub, Hub: channel.NewHub(sub)}
	n.hosted[sub.Name()] = h
	if n.metricsReg != nil {
		h.Sub.EnableMetrics(n.metricsReg)
		h.Hub.EnableMetrics(n.metricsReg)
	}
	if n.tlRec != nil {
		h.Sub.EnableTimeline(n.tlRec)
		h.Hub.EnableTimeline(n.tlRec)
	}
	return h
}

// Unhost removes a hosted subsystem: new dials naming it are
// rejected at the hello handshake and its hub closes, announcing
// completion to any peers still attached. The multi-tenant service
// uses this to retire a stopped session's endpoints from the shared
// listener. Returns false if the name was not hosted.
func (n *Node) Unhost(name string) bool {
	n.mu.Lock()
	h := n.hosted[name]
	delete(n.hosted, name)
	n.mu.Unlock()
	if h == nil {
		return false
	}
	_ = h.Hub.Close()
	return true
}

// Hosted returns the named hosted subsystem, or nil.
func (n *Node) Hosted(name string) *Hosted {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosted[name]
}

// FinishAgents creates the snapshot agents once all channels exist.
// Call after every Listen/Connect binding is set up and before
// running.
func (n *Node) FinishAgents() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range n.hosted {
		if h.Agent == nil {
			h.Agent = snapshot.NewAgent(h.Hub)
		}
	}
}

// SetCoalescing replaces the egress frame cap (channel.DefaultCoalesce
// unless set) on every channel endpoint the node has created and every
// endpoint it creates later, both dialed and accepted.
func (n *Node) SetCoalescing(cfg channel.CoalesceConfig) {
	n.mu.Lock()
	n.coalesce = cfg
	n.coalesceSet = true
	hosted := make([]*Hosted, 0, len(n.hosted))
	for _, h := range n.hosted {
		hosted = append(hosted, h)
	}
	n.mu.Unlock()
	for _, h := range hosted {
		h.Hub.SetCoalescing(cfg)
	}
}

// applyCoalescing configures a freshly created endpoint with the
// node-wide policy, if one was set.
func (n *Node) applyCoalescing(ep *channel.Endpoint) {
	n.mu.Lock()
	cfg, set := n.coalesce, n.coalesceSet
	n.mu.Unlock()
	if set {
		ep.SetCoalescing(cfg)
	}
}

// SetFaults arms deterministic fault injection on every connection
// the node creates from now on. Each dialed channel gets its own
// faultnet link named "<node>-><remoteSub>"; the accepting side
// shapes all accepted connections through one link named
// "<node>/accept". Link names seed the per-link schedules, so the
// full fault pattern is a pure function of (cfg.Seed, topology).
// Call before Listen/Connect.
func (n *Node) SetFaults(cfg faultnet.Config) {
	n.mu.Lock()
	n.faults = cfg
	n.mu.Unlock()
}

// SetResilience arms the resumable session layer on every connection
// the node creates from now on: channels then survive connection
// loss, injected drops, corruption and partitions, and can fall back
// to checkpoint rewinds. Call before Listen/Connect — both nodes of
// a channel must agree (the session handshake is not spoken by a
// plain node).
func (n *Node) SetResilience(cfg resilience.Config) {
	n.mu.Lock()
	n.resil = cfg
	n.mu.Unlock()
}

func (n *Node) faultLink(name string) *faultnet.Link {
	n.mu.Lock()
	cfg := n.faults
	n.mu.Unlock()
	if !cfg.Enabled() {
		return nil
	}
	l := faultnet.NewLink(name, cfg)
	n.mu.Lock()
	l.SetTimeline(n.tlRec)
	n.flinks = append(n.flinks, l)
	n.mu.Unlock()
	return l
}

func (n *Node) resilient() (resilience.Config, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.resil, n.resil.Enabled()
}

func (n *Node) addSession(s *resilience.Session) {
	n.mu.Lock()
	if n.tlRec != nil {
		s.SetTimeline(n.tlRec)
	}
	n.sessions = append(n.sessions, s)
	n.mu.Unlock()
}

// bindSession ties a resumable session to the hosted subsystem it
// serves: finite-horizon departure now additionally waits until the
// session is quiescent — retained egress acked, no outage in
// progress, no rewind pending — and session transitions wake the
// scheduler to re-check. Without this, a run could end while the
// session still held egress that a dead connection would turn into a
// negotiated rewind, which needs exactly the scheduler that just
// left (the hang this gate exists to prevent).
func (n *Node) bindSession(h *Hosted, sess *resilience.Session) {
	n.mu.Lock()
	h.sessions = append(h.sessions, sess)
	first := len(h.sessions) == 1
	n.mu.Unlock()
	if first {
		h.Sub.SetDepartGate(func(vtime.Time) bool {
			n.mu.Lock()
			ss := append([]*resilience.Session(nil), h.sessions...)
			n.mu.Unlock()
			for _, s := range ss {
				if !s.Quiescent() {
					return false
				}
			}
			return true
		})
	}
	sess.SetOnChange(h.Sub.Wake)
}

// FaultLinks returns the node's fault-injection links, one per
// shaped connection path — the place to read per-link stats and
// verify schedule digests.
func (n *Node) FaultLinks() []*faultnet.Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*faultnet.Link(nil), n.flinks...)
}

// FaultStats returns per-link fault-injection counters by link name.
func (n *Node) FaultStats() map[string]faultnet.Stats {
	out := make(map[string]faultnet.Stats)
	for _, l := range n.FaultLinks() {
		out[l.Name()] = l.Stats()
	}
	return out
}

// ResilienceStats sums the session counters across every resilient
// connection the node owns.
func (n *Node) ResilienceStats() resilience.Stats {
	n.mu.Lock()
	sessions := append([]*resilience.Session(nil), n.sessions...)
	n.mu.Unlock()
	var total resilience.Stats
	for _, s := range sessions {
		total.Add(s.Stats())
	}
	return total
}

// agentOf returns the snapshot agent of a hosted subsystem under the
// node lock — FinishAgents creates agents after channels are bound,
// so resolution must happen at call time.
func (n *Node) agentOf(sub string) *snapshot.Agent {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h := n.hosted[sub]; h != nil {
		return h.Agent
	}
	return nil
}

// rewindHooks builds the checkpoint hooks a resilient session
// consults during a retention-miss rewind negotiation.
func (n *Node) rewindHooks(sub string) (func() string, func(string) bool) {
	latest := func() string {
		if a := n.agentOf(sub); a != nil {
			return a.LatestTag()
		}
		return ""
	}
	has := func(tag string) bool {
		a := n.agentOf(sub)
		return a != nil && a.HasTag(tag)
	}
	return latest, has
}

// WireStats sums the framing counters of every connection the node
// owns: bytes and frames, in and out. Frames against drives is what
// egress coalescing is judged by — fewer frames for the same drives is
// the whole point.
func (n *Node) WireStats() wire.Stats {
	n.mu.Lock()
	conns := append([]*wire.Conn(nil), n.conns...)
	n.mu.Unlock()
	var total wire.Stats
	for _, c := range conns {
		total.Add(c.Stats())
	}
	return total
}

// Listen starts accepting channel connections on addr (use ":0" for
// an ephemeral port) and returns the bound address. With resilience
// armed, accepted connections speak the resumable session protocol
// (and are shaped by the accept-side fault link, when faults are
// armed too).
func (n *Node) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("node %s: listen: %w", n.name, err)
	}
	if rcfg, ok := n.resilient(); ok {
		rl := resilience.NewListener(ln, rcfg)
		if flink := n.faultLink(n.name + "/accept"); flink != nil {
			rl.Wrap = flink.Wrap
		}
		n.mu.Lock()
		n.ln = ln
		n.rln = rl
		rl.SetTimeline(n.tlRec)
		n.mu.Unlock()
		n.wg.Add(2)
		go func() {
			defer n.wg.Done()
			rl.Serve()
		}()
		go n.acceptSessions(rl)
		return ln.Addr().String(), nil
	}
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if t, ok := c.(*net.TCPConn); ok {
			t.SetNoDelay(true)
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := n.serveConn(wire.NewConn(c), nil); err != nil && !n.isClosed() {
				n.notePeerLost(err)
			}
		}()
	}
}

// acceptSessions accepts resumable sessions: reconnects splice into
// their existing session inside the resilience listener, so each
// session surfaces here exactly once and pumps one channel for its
// whole life, across any number of TCP connections.
func (n *Node) acceptSessions(rl *resilience.Listener) {
	defer n.wg.Done()
	for {
		sess, err := rl.Accept()
		if err != nil {
			return // listener closed
		}
		n.addSession(sess)
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := n.serveConn(wire.NewConn(sess), sess); err != nil && !n.isClosed() {
				n.notePeerLost(err)
			}
		}()
	}
}

// serveConn handles the server side of one channel connection. sess
// is non-nil when the connection is a resumable session.
func (n *Node) serveConn(c *wire.Conn, sess *resilience.Session) error {
	kind, payload, err := c.RecvFrame()
	if err != nil {
		c.Close()
		return fmt.Errorf("handshake: %w", err)
	}
	h, err := decodeHello(kind, payload)
	if err != nil {
		n.refuse(c, fmt.Sprintf("node %s: %v", n.name, err))
		return fmt.Errorf("handshake: %w", err)
	}
	hosted := n.Hosted(h.ToSub)
	if hosted == nil {
		n.refuse(c, fmt.Sprintf("node %s hosts no subsystem %q", n.name, h.ToSub))
		return fmt.Errorf("unknown subsystem %q", h.ToSub)
	}
	ep, err := hosted.Hub.NewEndpoint(h.FromSub, h.Policy, h.Link, &connTransport{c: c})
	if err != nil {
		n.refuse(c, err.Error())
		return err
	}
	n.applyCoalescing(ep)
	if sess != nil {
		sess.SetRewindHooks(n.rewindHooks(h.ToSub))
		n.bindSession(hosted, sess)
	}
	if hosted.OnChannel != nil {
		hosted.OnChannel(ep)
	}
	// Registered before the ack, so that once the dialer's Connect
	// returns this side's Close and WireStats already cover the conn.
	n.addConn(c)
	if err := c.SendRaw(wire.FrameHello, appendHelloAck(nil, helloAck{OK: true})); err != nil {
		c.Close()
		return err
	}
	n.Timeline().SessionEvent(ep.Name(), "accepted", "from "+h.FromNode)
	return n.pump(c, ep, hosted, sess)
}

// refuse answers a hello with a refusal naming the reason, records
// it, and closes the connection.
func (n *Node) refuse(c *wire.Conn, reason string) {
	n.Timeline().SessionEvent(n.name+"/accept", "refused", reason)
	_ = c.SendRaw(wire.FrameHello, appendHelloAck(nil, helloAck{Error: reason}))
	c.Close()
}

// Connect dials a remote node and opens a channel between the local
// hosted subsystem and a subsystem hosted there. Both sides share
// the policy and link model. With resilience armed the connection is
// a resumable session that outlives any single TCP connection; with
// faults armed every dial and every egress frame pass through a
// deterministic fault link named "<node>-><remoteSub>".
func (n *Node) Connect(localSub, addr, remoteSub string, policy channel.Policy, link channel.LinkModel) (*channel.Endpoint, error) {
	hosted := n.Hosted(localSub)
	if hosted == nil {
		return nil, fmt.Errorf("node %s hosts no subsystem %q", n.name, localSub)
	}
	flink := n.faultLink(n.name + "->" + remoteSub)
	dialRaw := func() (io.ReadWriteCloser, error) {
		if flink != nil {
			return flink.Dial("tcp", addr)
		}
		tc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if t, ok := tc.(*net.TCPConn); ok {
			t.SetNoDelay(true)
		}
		return tc, nil
	}
	var (
		c    *wire.Conn
		sess *resilience.Session
	)
	if rcfg, ok := n.resilient(); ok {
		s, err := resilience.Dial(dialRaw, rcfg)
		if err != nil {
			return nil, fmt.Errorf("node %s: session to %s: %w", n.name, addr, err)
		}
		s.SetRewindHooks(n.rewindHooks(localSub))
		n.addSession(s)
		n.bindSession(hosted, s)
		sess = s
		c = wire.NewConn(s)
	} else {
		rwc, err := dialRaw()
		if err != nil {
			return nil, err
		}
		c = wire.NewConn(rwc)
	}
	h := hello{FromNode: n.name, FromSub: localSub, ToSub: remoteSub, Policy: policy, Link: link}
	if err := c.SendRaw(wire.FrameHello, appendHello(nil, h)); err != nil {
		c.Close()
		return nil, err
	}
	var ack helloAck
	kind, payload, err := c.RecvFrame()
	if err == nil {
		ack, err = decodeHelloAck(kind, payload)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("node %s: handshake with %s: %w", n.name, addr, err)
	}
	if !ack.OK {
		c.Close()
		return nil, fmt.Errorf("node %s: peer rejected channel: %s", n.name, ack.Error)
	}
	ep, err := hosted.Hub.NewEndpoint(remoteSub, policy, link, &connTransport{c: c})
	if err != nil {
		c.Close()
		return nil, err
	}
	n.applyCoalescing(ep)
	n.addConn(c)
	n.Timeline().SessionEvent(ep.Name(), "opened", "to "+addr)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := n.pump(c, ep, hosted, sess); err != nil && !n.isClosed() {
			n.notePeerLost(err)
		}
	}()
	return ep, nil
}

// maxBurst bounds how many messages pump hands the scheduler in one
// injection, however large the frame they come from.
const maxBurst = 256

// pump reads batch frames and hands their messages to the endpoint
// (readBursts) until the connection drops.
//
// On a resumable session, connection loss never reaches this loop —
// the session reconnects and replays underneath. Two session events
// do surface: a negotiated checkpoint rewind (handled in place, the
// pump continues on the rewound timeline) and terminal session loss.
// Any unrecoverable transport failure is wrapped in peerLostError and,
// unless the node is closing, latched on the endpoint, which ends the
// run of the subsystem it serves: nothing more will arrive from the
// peer, and that run may be stalled on a grant only the peer can send.
func (n *Node) pump(c *wire.Conn, ep *channel.Endpoint, h *Hosted, sess *resilience.Session) (err error) {
	defer func() {
		if err != nil && !n.isClosed() {
			ep.PeerLost(err)
			n.Timeline().SessionEvent(ep.Name(), "lost", err.Error())
		}
	}()
	dec := channel.NewBatchDecoder()
	for {
		err := readBursts(c, dec, ep.OnMessages)
		if err == nil {
			return nil // the peer closed the channel
		}
		var rw *resilience.RewoundError
		if sess != nil && errors.As(err, &rw) {
			if rerr := n.handleRewind(h, ep, sess, rw.Tag); rerr != nil {
				return rerr
			}
			// Fresh timeline: the peer's encoder restarted from
			// scratch, so batch-decoder state must too.
			dec = channel.NewBatchDecoder()
			continue
		}
		return &peerLostError{Peer: ep.Peer(), LastSeq: ep.LastSeqIn(), Cause: err}
	}
}

// readBursts reads batch frames from c and hands their messages to
// deliver in bursts of at most maxBurst — one scheduler injection and
// wake-up each — until a close has been delivered (nil) or something
// ends the connection: a read error, returned as RecvFrame gave it, a
// frame that fails to decode, or a frame of another kind, which is a
// protocol violation and is not decoded. dec is a cursor, so a frame
// longer than a burst is handed on in several, each decoded while the
// one before is being processed. A burst that ends a frame short of
// maxBurst is topped up from the frames c already holds in its receive
// buffer, never past a close; readBursts never waits for more bytes to
// do so, so nothing is delayed.
//
// Of a frame that fails to decode, what reaches deliver is what its
// bursts carried before the failing one: nothing, when it began in that
// burst — a frame of at most maxBurst messages is delivered whole or
// not at all — and for a longer frame the bursts already handed on.
// Those are well-formed and in order; nothing after the fault is
// delivered.
func readBursts(c *wire.Conn, dec *channel.BatchDecoder, deliver func(*channel.Batch)) error {
	unexpected := func(kind byte) error {
		return fmt.Errorf("node: unexpected frame kind %d after the handshake", kind)
	}
	open := false // dec holds a frame with messages left to decode
	for {
		if !open {
			kind, payload, err := c.RecvFrame()
			if err != nil {
				return err
			}
			if kind != wire.FrameBatch {
				return unexpected(kind)
			}
			dec.Start(payload)
		}
		// The burst is decoded into a buffer deliver takes over, so it
		// reaches the scheduler goroutine without a copy; the decoded
		// messages do not alias the receive buffer, which the next frame
		// reuses.
		buf := channel.BatchBuf()
		burst := buf.Msgs
		whole := 0 // where the frame being decoded starts in the burst
		var err error
		for {
			var done bool
			if burst, done, err = dec.Next(burst, maxBurst); err != nil {
				// The burst must not carry, or pin, what the failing
				// frame decoded in it.
				clear(burst[whole:])
				burst = burst[:whole]
				break
			}
			if open = !done; open || dec.Closed() || len(burst) >= maxBurst {
				break
			}
			kind, payload, ok := c.RecvBuffered()
			if !ok {
				break
			}
			if kind != wire.FrameBatch {
				err = unexpected(kind)
				break
			}
			whole = len(burst)
			dec.Start(payload)
		}
		closed := !open && dec.Closed()
		buf.Msgs = burst
		deliver(buf)
		if err != nil {
			return err
		}
		if closed {
			return nil
		}
	}
}

// handleRewind executes this node's share of a negotiated checkpoint
// rewind: once everything the dead connection already delivered has
// drained through the scheduler, the channel protocol resets, the
// tagged snapshot restores, egress reopens, and the session stream
// restarts from sequence one. Blocks the pump until the restore
// completes — nothing may be read from the rewound session before
// the protocol state is clean.
func (n *Node) handleRewind(h *Hosted, ep *channel.Endpoint, sess *resilience.Session, tag string) error {
	n.Timeline().SessionEvent(ep.Name(), "rewind", tag)
	agent := n.agentOf(h.Sub.Name())
	if agent == nil {
		return fmt.Errorf("node %s: rewind to %q with no snapshot agent", n.name, tag)
	}
	done := make(chan error, 1)
	agent.RewindTo(tag,
		func() { ep.ResetProtocol() },
		func() {
			// Reopen before the in-flight replay: replayed drives may
			// forward across the channel immediately.
			sess.ClearRewind()
			ep.ResumeProtocol()
		},
		func(err error) { done <- err })
	if err := <-done; err != nil {
		// Abandon the session: the peer must see a terminal death
		// rather than wait forever for post-rewind traffic this
		// side can no longer produce.
		sess.Close()
		return &peerLostError{Peer: ep.Peer(), LastSeq: ep.LastSeqIn(), Cause: err}
	}
	return nil
}

func (n *Node) addConn(c *wire.Conn) {
	n.mu.Lock()
	n.conns = append(n.conns, c)
	n.mu.Unlock()
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// CloseChannels announces completion on every hosted hub (grants of
// Infinity / Close messages) without tearing down the node.
func (n *Node) CloseChannels() error {
	n.mu.Lock()
	hosted := make([]*Hosted, 0, len(n.hosted))
	for _, h := range n.hosted {
		hosted = append(hosted, h)
	}
	n.mu.Unlock()
	var first error
	for _, h := range hosted {
		if err := h.Hub.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close tears the node down: listener, connections, hubs.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ln := n.ln
	rln := n.rln
	conns := n.conns
	sessions := n.sessions
	n.mu.Unlock()
	_ = n.CloseChannels()
	if rln != nil {
		rln.Close() // closes the net listener too
	} else if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, s := range sessions {
		s.Close()
	}
	n.wg.Wait()
	return nil
}

// connTransport adapts a wire.Conn to channel.Transport.
type connTransport struct {
	c *wire.Conn
}

func (t *connTransport) Close() error { return nil } // node owns the conn

// SendFrame writes a batch frame where the endpoint built it, header
// included: one Write — one syscall and, on a resilient session, one
// CRC envelope — with no copy and no allocation.
func (t *connTransport) SendFrame(frame []byte) error {
	return t.c.WriteFrame(frame)
}
