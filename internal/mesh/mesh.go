// Package mesh is the cluster control plane: it runs N pianodes as a
// full mesh with join/leave membership, per-peer heartbeat health, a
// replicated component->member placement map stamped with
// leader-issued epochs, and live component migration on top of the
// simulation layers below.
//
// # Roles
//
// Membership is a static peer list; the member with the
// lexicographically smallest name is the leader. The leader drives
// the run as lock-step rounds: it broadcasts a horizon, every member
// runs its local subsystem to it, and members report per-peer channel
// counters. A round's drain barrier holds when for every directed
// pair X->Y the count X sent equals the count Y enqueued equals the
// count Y absorbed — at that point every inter-member channel is
// provably empty and virtual time t <= horizon is globally final. The
// leader re-issues a round (cheap: re-entering Run at the same
// horizon is idempotent) until the barrier holds, which also rides
// out faultnet-induced retransmissions on the data plane.
//
// # Migration
//
// At a held barrier a local capture is a degenerate Chandy-Lamport
// cut (no in-flight channel state exists to record), so migration is:
// quiesce (the barrier itself) -> snapshot (extract the component
// image at the source) -> transfer (ship image + digest state to the
// destination inside the epoch broadcast) -> splice (every member
// moves the component in its replica of the global view, re-derives
// net splits, and rebinds channel endpoints; the destination rebuilds
// the component from the shared blueprint and adopts the state) ->
// resume (next round). Virtual time does not advance during any of
// this, so migration downtime in simulated time is exactly zero.
package mesh

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// Config describes one mesh member.
type Config struct {
	// Name is the member's (and its subsystem's) unique name.
	Name string
	// Blueprint is the shared system description. Must be identical
	// on every member.
	Blueprint *Blueprint
	// Node optionally supplies a prebuilt node (so callers can
	// SetFaults/SetResilience before any listener starts). Nil
	// creates a plain node named after the member.
	Node *node.Node
	// CtlListen and DataListen are listen addresses; empty means an
	// ephemeral loopback port.
	CtlListen  string
	DataListen string
	// Timeline, when non-nil, receives the member's timeline events
	// (and, on the leader, the migrate phase spans).
	Timeline *timeline.Recorder
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.CtlListen == "" {
		out.CtlListen = "127.0.0.1:0"
	}
	if out.DataListen == "" {
		out.DataListen = "127.0.0.1:0"
	}
	return out
}

// The control plane's wall-clock constants: no caller ever set one to
// another value, so they are not configuration (DESIGN §10.1 has the
// reasoning behind each value).
const (
	heartbeatEvery = 250 * time.Millisecond // note interval; a peer is dead after three silent ones
	connectTimeout = 10 * time.Second       // mesh formation, and each data-channel dial or accept
	phaseTimeout   = 60 * time.Second       // one call: a step round or a migration phase, every reply included

	// The two waits with no event behind them, because what they wait
	// for happens in another process: a peer's listener coming up, and
	// data frames still on the wire when a round's counters were read.
	ctlDialRetry   = 50 * time.Millisecond
	reissueBackoff = 500 * time.Microsecond

	maxQueuedMigrations = 16 // live requests held for the next barrier; the leader refuses the one after
)

// stats counts control-plane activity on one member. Leader-only
// fields are zero elsewhere.
type stats struct {
	Rounds     int64 // barriers that held (leader)
	Reissues   int64 // rounds re-issued because the barrier failed (leader)
	Migrations int64 // migrations completed (leader)
	Epoch      uint64
	// EpochPropagation is the wall-clock time from the last epoch
	// broadcast to its final ack (leader).
	EpochPropagation time.Duration
	// MigrationWall is the wall-clock span of the last migration,
	// prepare order to final dial ack (leader).
	MigrationWall time.Duration
	// MigrationVirtual is the virtual-time downtime of the last
	// migration: by construction zero, recorded to assert it.
	MigrationVirtual vtime.Duration
}

// Refused is a member's answer to a call it would not or could not
// carry out: the reply's Err, with who said it and in which phase.
type Refused struct {
	Member string
	Phase  string
	Reason string
}

func (e *Refused) Error() string {
	return fmt.Sprintf("mesh: member %s refused %s: %s", e.Member, e.Phase, e.Reason)
}

// inbound is one request on its way to the member loop.
type inbound struct {
	from string
	rq   request
}

// answer is one reply on its way to call, or — lost set — the news
// that from's control connection is gone. Both come off the same
// reader goroutine in order, so a member's last reply is always seen
// before its departure.
type answer struct {
	from string
	rp   reply
	lost bool
}

type migPlan struct {
	At vtime.Time
	move
}

// member is one mesh participant: a node hosting one subsystem named
// after the member, plus the control-plane machinery.
type member struct {
	name   string
	nd     *node.Node
	hosted *node.Hosted
	sub    *core.Subsystem
	hub    *channel.Hub

	bp        *Blueprint
	dataAddr  string
	ctlLn     net.Listener
	ctlAddr   string
	ms        *membership
	digest    *digest
	tl        *timeline.Recorder
	epoch     atomic.Uint64
	leaderNm  string
	memberSet []string // all member names, sorted

	inbox   chan inbound // requests, served one at a time by the member loop
	replies chan answer  // replies and departures, read only by call
	migReqs chan move    // leader: live requests waiting for the next barrier

	// callMu admits one call at a time, so every reply in flight
	// belongs to the call holding it or to one that already gave up.
	callMu       sync.Mutex
	callID       uint64
	phaseTimeout time.Duration // phaseTimeout, except in tests of the timer

	mu        sync.Mutex
	view      *viewState                        // replicated placement (guarded by serve loop + mu for readers)
	plans     []migPlan                         // leader: scheduled migrations, by virtual time
	accepted  map[string]chan *channel.Endpoint // data channels the node accepted, by dialing peer
	stats     stats
	buildErr  error
	runErr    error
	runDone   chan struct{}
	runOver   sync.Once
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New creates a member: it builds the node, hosts the subsystem,
// starts the control and data listeners, and installs the digest and
// channel-accept hooks. Call Start to join the mesh.
func New(cfg Config) (*member, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" || len(cfg.Name) > maxName {
		return nil, fmt.Errorf("mesh: member needs a name of 1 to %d bytes", maxName)
	}
	if cfg.Blueprint == nil {
		return nil, fmt.Errorf("mesh: member %s needs a blueprint", cfg.Name)
	}
	m := &member{
		name:         cfg.Name,
		bp:           cfg.Blueprint,
		tl:           cfg.Timeline,
		ms:           newMembership(cfg.Name),
		digest:       newDigest(),
		inbox:        make(chan inbound, 64),
		replies:      make(chan answer, 256),
		migReqs:      make(chan move, maxQueuedMigrations),
		phaseTimeout: phaseTimeout,
		accepted:     make(map[string]chan *channel.Endpoint),
		runDone:      make(chan struct{}),
		closed:       make(chan struct{}),
	}
	m.nd = cfg.Node
	if m.nd == nil {
		m.nd = node.New(cfg.Name)
	}
	if m.tl != nil {
		m.nd.EnableTimeline(m.tl)
	}
	m.sub = core.NewSubsystem(cfg.Name)
	m.hosted = m.nd.Host(m.sub)
	m.hub = m.hosted.Hub
	// The hook fires on the node's accept goroutine after the endpoint
	// is fully registered and before the handshake ack releases the
	// dialer; a hub holds one endpoint per peer, so the slot is free.
	m.hosted.OnChannel = func(ep *channel.Endpoint) { m.acceptedFrom(ep.Peer()) <- ep }
	m.digest.Install(m.sub)
	dataAddr, err := m.nd.Listen(cfg.DataListen)
	if err != nil {
		return nil, fmt.Errorf("mesh: %s data listen: %w", cfg.Name, err)
	}
	m.dataAddr = dataAddr
	ln, err := net.Listen("tcp", cfg.CtlListen)
	if err != nil {
		m.nd.Close()
		return nil, fmt.Errorf("mesh: %s control listen: %w", cfg.Name, err)
	}
	m.ctlLn = ln
	m.ctlAddr = ln.Addr().String()
	m.wg.Add(1)
	go m.acceptCtl()
	return m, nil
}

// CtlAddr returns the control-plane listen address.
func (m *member) CtlAddr() string { return m.ctlAddr }

// DataAddr returns the data-plane listen address.
func (m *member) DataAddr() string { return m.dataAddr }

// Name returns the member name.
func (m *member) Name() string { return m.name }

// Subsystem exposes the hosted subsystem (for tests and tooling; do
// not call Run on it — the mesh drives rounds).
func (m *member) Subsystem() *core.Subsystem { return m.sub }

// Node exposes the hosting node.
func (m *member) Node() *node.Node { return m.nd }

// Digests returns this member's per-component drive digests.
func (m *member) Digests() map[string]uint64 { return m.digest.Snapshot() }

// Health reports membership and heartbeat state.
func (m *member) Health() Health { return m.ms.health() }

// Epoch returns the currently applied placement epoch.
func (m *member) Epoch() uint64 { return m.epoch.Load() }

// IsLeader reports whether this member leads the mesh.
func (m *member) IsLeader() bool { return m.name == m.leaderNm }

// Members returns all member names, sorted (valid after Start).
func (m *member) Members() []string { return append([]string(nil), m.memberSet...) }

// Leader returns the leader's name (valid after Start).
func (m *member) Leader() string { return m.leaderNm }

// Stats returns control-plane counters.
func (m *member) Stats() stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Epoch = m.epoch.Load()
	return s
}

// Placement returns the member's replica of the component->member
// placement map at the current epoch.
func (m *member) Placement() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.view == nil {
		return map[string]string{}
	}
	return maps.Clone(m.view.placement)
}

// Start joins the mesh: peers maps every member name (self included
// or not) to its control address. Start connects the full control
// mesh, exchanges data-plane addresses, builds the local slice of the
// simulation, establishes the initial data channels, and starts
// serving the leader's calls — the first of which asks how the build
// went. It returns once this member is operational; the leader then
// calls Lead and followers call Wait.
func (m *member) Start(peers map[string]string) error {
	names := []string{m.name}
	for n := range peers {
		if n != m.name {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	m.memberSet = names
	m.leaderNm = names[0]
	if err := m.bp.Validate(names); err != nil {
		return err
	}

	// Connect the control mesh: the smaller name dials.
	deadline := time.Now().Add(connectTimeout)
	for _, peer := range names {
		if peer <= m.name {
			continue
		}
		if err := m.dialCtl(peer, peers[peer], deadline); err != nil {
			return err
		}
	}
	formed := time.NewTimer(time.Until(deadline))
	defer formed.Stop()
	for {
		joinOrLeave := m.ms.watch()
		if m.ms.joined() == len(names)-1 {
			break
		}
		select {
		case <-joinOrLeave:
		case <-formed.C:
			return fmt.Errorf("mesh: %s: mesh formation timed out (%d/%d peers)",
				m.name, m.ms.joined(), len(names)-1)
		case <-m.closed:
			return fmt.Errorf("mesh: %s closed while the mesh formed", m.name)
		}
	}

	// A failed build still serves: opReady is how the leader learns why.
	m.buildErr = m.buildData()
	m.wg.Add(2)
	go m.serve()
	go m.heartbeatLoop()
	return m.buildErr
}

// dialCtl establishes the control connection to one peer, retrying
// until the deadline so members may start in any order. The handshake
// runs under the same deadline.
func (m *member) dialCtl(peer, addr string, deadline time.Time) error {
	if addr == "" {
		return fmt.Errorf("mesh: %s: no control address for peer %s", m.name, peer)
	}
	var err error
	for time.Now().Before(deadline) {
		var c net.Conn
		if c, err = net.DialTimeout("tcp", addr, time.Until(deadline)); err == nil {
			if err = m.handshake(c, deadline, true); err == nil {
				return nil
			}
		}
		select {
		case <-time.After(min(ctlDialRetry, time.Until(deadline))):
		case <-m.closed:
			return fmt.Errorf("mesh: %s closed while dialing %s", m.name, peer)
		}
	}
	return fmt.Errorf("mesh: %s: dial control %s (%s): %w", m.name, peer, addr, err)
}

// acceptCtl accepts inbound control connections from smaller-named
// peers, each handshake under connectTimeout.
func (m *member) acceptCtl() {
	defer m.wg.Done()
	for {
		c, err := m.ctlLn.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			_ = m.handshake(c, time.Now().Add(connectTimeout), false) // a failed one closed c; the dialer retries
		}()
	}
}

// handshake exchanges hellos on a fresh control connection before
// deadline — the dialer speaks first — then clears the deadline, admits
// the peer and starts reading its connection. Close cuts a handshake
// still under way; a failed one closes c.
func (m *member) handshake(c net.Conn, deadline time.Time, dialer bool) error {
	if !m.ms.greet(c) {
		return fmt.Errorf("mesh: %s closed", m.name)
	}
	pc := &peerConn{Conn: wire.NewConn(c)}
	h, err := hellos(pc, c, ctlHello{From: m.name, DataAddr: m.dataAddr}, deadline, dialer)
	pc.name = h.From
	if err := m.ms.join(c, pc, h.DataAddr, err); err != nil {
		return err
	}
	m.wg.Add(1)
	go m.readLoop(pc)
	return nil
}

// hellos sends mine and reads the peer's hello on pc, the fresh
// control connection over c, in the dialer's or the acceptor's order
// and before deadline, which it then clears.
func hellos(pc *peerConn, c net.Conn, mine ctlHello, deadline time.Time, dialer bool) (ctlHello, error) {
	c.SetDeadline(deadline)
	if dialer {
		if err := pc.send(mine); err != nil {
			return ctlHello{}, err
		}
	}
	f, err := pc.recv()
	if err != nil {
		return ctlHello{}, err
	}
	h, ok := f.(ctlHello)
	if !ok {
		return ctlHello{}, fmt.Errorf("mesh: a %T where a hello belongs", f)
	}
	if !dialer {
		if err := pc.send(mine); err != nil {
			return ctlHello{}, err
		}
	}
	return h, c.SetDeadline(time.Time{})
}

// readLoop drains one control connection, routing frames. Whatever
// ends it — EOF, a reset, bytes that do not decode — the peer is gone.
func (m *member) readLoop(pc *peerConn) {
	defer m.wg.Done()
	for {
		f, err := pc.recv()
		if _, hello := f.(ctlHello); hello {
			err = fmt.Errorf("mesh: a second hello from %s", pc.name)
		}
		if err != nil {
			pc.Close()
			m.peerGone(pc.name)
			return
		}
		m.route(pc.name, f)
	}
}

// peerGone records a departure and tells a call that may be waiting
// on that member.
func (m *member) peerGone(name string) {
	m.ms.markLeft(name)
	m.answer(answer{from: name, lost: true})
}

// answer hands call a reply or a departure.
func (m *member) answer(a answer) {
	select {
	case m.replies <- a:
	case <-m.closed:
	}
}

// route dispatches one inbound frame. Notes are absorbed here, on the
// reader, so they are never stuck behind a long round; replies go to
// call; every other request is work for the member loop.
func (m *member) route(from string, f any) {
	m.ms.note(from) // any control traffic counts as a heartbeat
	switch f := f.(type) {
	case reply:
		m.answer(answer{from: from, rp: f})
	case request:
		switch {
		case f.ID != 0:
			select {
			case m.inbox <- inbound{from, f}:
			case <-m.closed:
			}
		case f.Op == opLeave:
			m.peerGone(from)
		}
	}
}

// send delivers a request or a reply to a member; frames to self are
// routed locally so the leader participates like any member.
func (m *member) send(to string, f any) error {
	if to == m.name {
		m.route(m.name, f)
		return nil
	}
	pc, err := m.ms.conn(to)
	if err != nil {
		return err
	}
	return pc.send(f)
}

// notify sends a note to every peer still connected, best effort.
func (m *member) notify(o op) {
	for _, pc := range m.ms.conns() {
		pc.send(request{Op: o})
	}
}

// heartbeatLoop keeps peers' membership tables warm.
func (m *member) heartbeatLoop() {
	defer m.wg.Done()
	t := time.NewTicker(heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-m.closed:
			return
		case <-t.C:
			m.notify(opHeartbeat)
		}
	}
}

// call is the one request/reply exchange of the control plane: it
// sends rq to every member in to under a fresh ID and gathers exactly
// one reply from each. A reply that echoes another ID belongs to a
// call that already gave up and is dropped, as is a second reply from
// one member. The first refusal, the first addressed member to leave
// and the phase timeout each end the call with an error naming the
// member and the phase.
func (m *member) call(to []string, rq request) (map[string]reply, error) {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	m.callID++
	rq.ID = m.callID
	var sendErr error
	for _, name := range to {
		out := rq
		if name != rq.Move.To {
			out.Image = image{} // an image rides only toward its destination
		}
		if err := m.send(name, out); err != nil && sendErr == nil {
			sendErr = fmt.Errorf("mesh: %s: %s to %s: %w", m.name, rq.Op, name, err)
		}
	}
	if sendErr != nil {
		return nil, sendErr
	}
	timeout := time.NewTimer(m.phaseTimeout)
	defer timeout.Stop()
	got := make(map[string]reply, len(to))
	for len(got) < len(to) {
		select {
		case in := <-m.replies:
			_, dup := got[in.from]
			switch {
			case dup || !slices.Contains(to, in.from): // a second reply, or a member not asked
			case in.lost:
				// Our own Close tears down the control connections, so
				// a peer's loss may be that close's echo: it is
				// reported as the close.
				select {
				case <-m.closed:
					return nil, fmt.Errorf("mesh: %s closed during %s", m.name, rq.Op)
				default:
				}
				return nil, fmt.Errorf("mesh: %s: member %s left during %s", m.name, in.from, rq.Op)
			case in.rp.ID != rq.ID: // an earlier call's
			case in.rp.Err != "":
				return nil, &Refused{Member: in.from, Phase: rq.Op.String(), Reason: in.rp.Err}
			default:
				got[in.from] = in.rp
			}
		case <-timeout.C:
			return nil, fmt.Errorf("mesh: %s: %s timed out after %v with %d of %d replies",
				m.name, rq.Op, m.phaseTimeout, len(got), len(to))
		case <-m.closed:
			return nil, fmt.Errorf("mesh: %s closed during %s", m.name, rq.Op)
		}
	}
	return got, nil
}

// serve is the member loop: the single goroutine that touches the
// subsystem. Every Run call, every migration splice, and every
// mid-run channel dial happens here, which both serializes them
// logically and gives the race detector a visible happens-before
// between channel acceptance and the next scheduler pass.
func (m *member) serve() {
	defer m.wg.Done()
	for {
		select {
		case <-m.closed:
			return
		case in := <-m.inbox:
			rp := m.handle(in.rq)
			m.send(in.from, rp)
			// Only after the reply is on its way: Wait returning is
			// what lets the caller Close this member.
			if in.rq.Op == opFinish {
				m.runOver.Do(func() { close(m.runDone) })
			}
		}
	}
}

// handle carries out one request and builds its reply.
func (m *member) handle(rq request) reply {
	rp := reply{ID: rq.ID, Op: rq.Op}
	var err error
	switch rq.Op {
	case opReady:
		err = m.buildErr
	case opStep:
		rp.Counters, err = m.step(rq.Until)
	case opMigrate:
		err = m.queueMigration(rq.Move)
	case opPrepare:
		rp.Image, err = m.extract(rq.Move)
	case opApply:
		err = m.applyEpoch(rq.Move, rq.Image)
	case opDial:
		err = m.openChannels()
	case opFinish:
	default:
		err = fmt.Errorf("%s does not know %s", m.name, rq.Op)
	}
	if err != nil {
		rp.Err = err.Error()
	}
	return rp
}

// step runs one round and reports channel counters.
func (m *member) step(until vtime.Time) (counters, error) {
	err := m.sub.Run(until)
	if err != nil {
		m.mu.Lock()
		if m.runErr == nil {
			m.runErr = err
		}
		m.mu.Unlock()
	}
	c := make(counters)
	for _, ep := range m.hub.Endpoints() { // one per peer
		c[ep.Peer()] = peerCount{Sent: ep.SentCount(), Queued: ep.QueuedCount(), Handled: ep.HandledCount()}
	}
	return c, err
}

// Wait blocks until the leader finishes the run (or the member is
// closed) and returns the member's local run error, if any.
func (m *member) Wait() error {
	select {
	case <-m.runDone:
	case <-m.closed:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runErr
}

// MigrateAt schedules (on the leader) a live migration of comp to
// dest at the first drained barrier whose horizon is >= at. Calls
// before Lead are deterministic in virtual time: the same schedule
// yields the same cut on every run.
func (m *member) MigrateAt(at vtime.Time, comp, dest string) error {
	if !m.IsLeader() {
		return fmt.Errorf("mesh: MigrateAt on non-leader %s", m.name)
	}
	m.mu.Lock()
	m.plans = append(m.plans, migPlan{At: at, move: move{Comp: comp, To: dest}})
	sort.SliceStable(m.plans, func(i, j int) bool { return m.plans[i].At < m.plans[j].At })
	m.mu.Unlock()
	return nil
}

// RequestMigration asks the leader (from any member) to migrate comp
// to dest at the next drained barrier, and returns the leader's
// verdict: nil once the request is queued, a *Refused carrying the
// leader's reason when it is not.
func (m *member) RequestMigration(comp, dest string) error {
	if len(comp) > maxName || len(dest) > maxName {
		return &Refused{Member: m.name, Phase: opMigrate.String(), Reason: fmt.Sprintf("a name over %d bytes", maxName)}
	}
	_, err := m.call([]string{m.leaderNm}, request{Op: opMigrate, Move: move{Comp: comp, To: dest}})
	return err
}

// Lead drives the whole run from the leader: lock-step rounds of
// size step up to until, executing scheduled and requested
// migrations at drained barriers. It returns when every member has
// finished (or on the first error).
func (m *member) Lead(until vtime.Time, step vtime.Duration) error {
	if !m.IsLeader() {
		return fmt.Errorf("mesh: Lead called on non-leader %s (leader is %s)", m.name, m.leaderNm)
	}
	if step <= 0 {
		return fmt.Errorf("mesh: non-positive step %v", step)
	}
	err := m.rounds(until, step)
	// However the rounds ended, every member still listening is told
	// the run is over.
	if _, ferr := m.call(m.memberSet, request{Op: opFinish}); err == nil {
		err = ferr
	}
	return err
}

// rounds is the leader's script: ready, then step until the barrier
// holds, migrate what is due, and on to the next horizon.
func (m *member) rounds(until vtime.Time, step vtime.Duration) error {
	if _, err := m.call(m.memberSet, request{Op: opReady}); err != nil {
		return err
	}
	for t := vtime.Time(0); t < until; {
		h := vtime.Min(t.Add(step), until)
		reports, err := m.call(m.memberSet, request{Op: opStep, Until: h})
		if err != nil {
			return err
		}
		held := barrierHolds(reports)
		m.mu.Lock()
		if held {
			m.stats.Rounds++
		} else {
			m.stats.Reissues++
		}
		m.mu.Unlock()
		if !held {
			time.Sleep(reissueBackoff)
			continue
		}
		t = h
		if err := m.runMigrations(t); err != nil {
			return err
		}
	}
	return nil
}

// barrierHolds checks the drain condition over all members' reports:
// for every directed pair X->Y, X's Sent toward Y equals Y's Queued
// and Handled from X. Counters are cumulative, so equality means
// nothing is in flight or queued anywhere.
func barrierHolds(reports map[string]reply) bool {
	for x, rx := range reports {
		for y, out := range rx.Counters {
			ry, ok := reports[y]
			if in := ry.Counters[x]; !ok || in.Queued != out.Sent || in.Handled != out.Sent {
				return false
			}
		}
	}
	return true
}

// Close leaves the mesh and tears down listeners, connections and
// the node.
func (m *member) Close() error {
	var err error
	m.closeOnce.Do(func() {
		m.notify(opLeave)
		close(m.closed)
		m.ctlLn.Close()
		m.ms.close()
		err = m.nd.Close()
		m.wg.Wait()
	})
	return err
}
