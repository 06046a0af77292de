// Package mesh is the cluster control plane: it runs N pianodes as a
// full mesh with join/leave membership, per-peer health, a
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
// provably empty and virtual time t <= horizon is globally final. When
// it fails, the leader re-issues the round (re-entering Run at the
// same horizon is idempotent) carrying, for each member, what its
// peers reported sending toward it; the member waits for its channels
// to queue that many before it runs again (Mattern's counting rule),
// so a round ends on a drain event, never on a timer.
//
// # Migration
//
// At a held barrier a local capture is a degenerate Chandy-Lamport
// cut (no in-flight channel state exists to record), so migration is:
// quiesce (the barrier itself) -> snapshot (extract the component
// image at the source) -> transfer (ship image + digest state to the
// destination inside the epoch broadcast) -> splice (every member
// moves the component in its replica of the global view, re-derives
// net splits, and rebinds channel endpoints; the destination runs the
// shared description again for a fresh instance of the component and
// adopts the state) ->
// resume (next round). Virtual time does not advance during any of
// this, so migration downtime in simulated time is exactly zero.
package mesh

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/node"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// Config describes one mesh member.
type Config struct {
	// Name is the member's (and its subsystem's) unique name.
	Name string
	// Describe describes the whole system, identically on every member,
	// each subsystem named after a member. The member builds its slice,
	// re-partitions the description's view at each placement epoch, and
	// runs Describe again for a fresh instance of a component migrating
	// in. Migration is transparent only over pure-latency channels.
	Describe func(*pia.SystemBuilder) error
	// Node optionally supplies a prebuilt node (so callers can
	// SetFaults/SetResilience before it listens). Nil creates a plain
	// node named after the member.
	Node *node.Node
	// Listen is the node's listen address, the member's one address:
	// its channels and its control connections both arrive there.
	// Empty means an ephemeral loopback port.
	Listen string
	// Timeline, when non-nil, receives the member's timeline events
	// (and, on the leader, the migrate phase spans).
	Timeline *timeline.Recorder
}

// The control plane's wall-clock constants: no caller ever set one to
// another value, so they are not configuration (DESIGN §10.1 has the
// reasoning behind each value).
const (
	heartbeatEvery = 250 * time.Millisecond // note interval on a plain node; a peer silent for three is dead
	connectTimeout = 30 * time.Second       // mesh formation, each data-channel dial or accept, and a drain
	phaseTimeout   = 60 * time.Second       // one call: a step round or a migration phase, every reply included

	// The one wait with no event behind it, because what it waits for
	// happens in another process: a peer's listener coming up.
	ctlDialRetry = 50 * time.Millisecond

	maxQueuedMigrations = 16 // live requests held for the next barrier; the leader refuses the one after
)

// stats counts control-plane activity on one member. Leader-only
// fields are zero elsewhere.
type stats struct {
	Rounds     int64  // barriers that held (leader)
	Reissues   int64  // rounds re-issued because the barrier failed (leader)
	Migrations int64  // migrations completed (leader)
	Dropped    int64  // migrations dropped because the source could not capture the component (leader)
	LastDrop   string // the source's reason for the last dropped migration (leader)
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
	wake   chan struct{} // the hub's wake: a burst queued or a channel failed (drain)

	describe  func(*pia.SystemBuilder) error
	design    *design.System // its view is the replicated placement (written on the member loop under mu)
	addr      string
	addrs     map[string]string // every peer's address, by name (set by Start)
	ms        *membership
	digest    *core.DriveDigest
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
	view      *viewState                        // derived from the placement (guarded by serve loop + mu for readers)
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

// New creates a member: it runs the description and builds the
// member's slice of it, builds the node, hosts the subsystem,
// subscribes the drive digest, installs the channel-accept hook and the
// control taker, and starts the node listening. Call Start to join the
// mesh.
func New(cfg Config) (*member, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Name == "" || len(cfg.Name) > maxName {
		return nil, fmt.Errorf("mesh: member needs a name of 1 to %d bytes", maxName)
	}
	if cfg.Describe == nil {
		return nil, fmt.Errorf("mesh: member %s needs a description", cfg.Name)
	}
	b, d, err := describe(cfg.Describe)
	if err != nil {
		return nil, fmt.Errorf("mesh: member %s: %w", cfg.Name, err)
	}
	// A member the description places nothing on still joins, empty,
	// so that a component can migrate in later.
	var sub *core.Subsystem
	if d.Places(cfg.Name) {
		if sub, err = b.BuildSubsystem(cfg.Name); err != nil {
			return nil, fmt.Errorf("mesh: member %s: %w", cfg.Name, err)
		}
	} else {
		sub = d.NewSubsystem(cfg.Name)
	}
	m := &member{
		name:         cfg.Name,
		describe:     cfg.Describe,
		design:       d,
		sub:          sub,
		tl:           cfg.Timeline,
		ms:           newMembership(cfg.Name),
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
	m.hosted = m.nd.Host(m.sub)
	m.hub = m.hosted.Hub
	m.wake = make(chan struct{}, 1)
	m.hub.SetWake(m.wake)
	// The hook fires on the node's accept goroutine after the endpoint
	// is fully registered and before the handshake ack releases the
	// dialer; a hub holds one endpoint per peer, so the slot is free.
	m.hosted.OnChannel = func(ep *channel.Endpoint) { m.acceptedFrom(ep.Peer()) <- ep }
	m.digest = m.sub.DigestDrives()
	m.nd.SetControl(m.admit)
	if m.addr, err = m.nd.Listen(cfg.Listen); err != nil {
		return nil, fmt.Errorf("mesh: %s: %w", cfg.Name, err)
	}
	// A resilient node's sessions detect a dead peer; a plain one's
	// control connections carry the one heartbeat.
	if !m.nd.Resilient() {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	return m, nil
}

// Addr returns the member's address: its node's listen address.
func (m *member) Addr() string { return m.addr }

// Name returns the member name.
func (m *member) Name() string { return m.name }

// Subsystem exposes the hosted subsystem (for tests and tooling; do
// not call Run on it — the mesh drives rounds).
func (m *member) Subsystem() *core.Subsystem { return m.sub }

// Digests returns the drive digests of the components this member
// hosts: the equivalence oracle for live migration. The member hashes
// only its own components' drives, so each drive is counted once, at
// the member whose component made it. A migrating component's hash
// goes with its image, and its pre-barrier drives all happened at the
// source and its post-barrier drives all happen at the destination, so
// its hash stays bit-identical to the stationary run's.
func (m *member) Digests() map[string]uint64 { return m.digest.Snapshot() }

// Health reports membership state.
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
	out := make(map[string]string, len(m.design.Order))
	for _, c := range m.design.Order {
		out[c] = m.design.View.Subsystem(c)
	}
	return out
}

// Start joins the mesh: peers maps every member name (self included
// or not) to its address. Start connects the full control mesh, builds
// the local slice of the simulation, establishes the initial data
// channels, and starts serving the leader's calls — the first of which
// asks how the build went. It returns once this member is operational;
// the leader then calls Lead and followers call Wait.
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
	m.addrs = peers
	for _, sub := range m.design.View.Subsystems() {
		if !slices.Contains(names, sub) {
			return m.design.Unhosted(sub)
		}
	}

	// Connect the control mesh: the smaller name dials, every peer at
	// once, since a dial over a faulted link may wait out a dropped
	// session handshake.
	deadline := time.Now().Add(connectTimeout)
	dialed := make(chan error, len(names))
	for _, peer := range names {
		if peer > m.name {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				pc, err := m.dialCtl(peer, peers[peer], deadline)
				dialed <- err
				if err == nil {
					m.readLoop(pc)
				}
			}()
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
		case err := <-dialed:
			if err != nil {
				return err
			}
		case <-formed.C:
			return fmt.Errorf("mesh: %s: mesh formation timed out (%d/%d peers)",
				m.name, m.ms.joined(), len(names)-1)
		case <-m.closed:
			return fmt.Errorf("mesh: %s closed while the mesh formed", m.name)
		}
	}

	// A failed build still serves: opReady is how the leader learns why.
	m.buildErr = m.buildData()
	m.wg.Add(1)
	go m.serve()
	return m.buildErr
}

// dialCtl opens the control connection to one peer through the node,
// retrying until the deadline so members may start in any order, and
// makes it the peer's.
func (m *member) dialCtl(peer, addr string, deadline time.Time) (*peerConn, error) {
	if addr == "" {
		return nil, fmt.Errorf("mesh: %s: no address for peer %s", m.name, peer)
	}
	var err error
	for time.Now().Before(deadline) {
		var c *wire.Conn
		if c, err = m.nd.DialControl(m.name, peer, addr); err == nil {
			pc := &peerConn{name: peer, Conn: c}
			return pc, m.ms.join(pc)
		}
		select {
		case <-time.After(min(ctlDialRetry, time.Until(deadline))):
		case <-m.closed:
			return nil, fmt.Errorf("mesh: %s closed while dialing %s", m.name, peer)
		}
	}
	return nil, fmt.Errorf("mesh: %s: dial control %s (%s): %w", m.name, peer, addr, err)
}

// admit is the node's control taker: it makes a control connection
// the node accepted the dialer's, and reads it until it ends.
func (m *member) admit(from string, c *wire.Conn) {
	pc := &peerConn{name: from, Conn: c}
	if m.ms.join(pc) == nil {
		m.readLoop(pc)
	}
}

// readLoop drains one control connection, routing frames. Whatever
// ends it — EOF, a reset, bytes that do not decode, on a plain node
// three heartbeat intervals of silence — the peer is gone.
func (m *member) readLoop(pc *peerConn) {
	var silent *time.Timer
	if !m.nd.Resilient() {
		silent = time.AfterFunc(3*heartbeatEvery, func() { pc.Close() })
		defer silent.Stop()
	}
	for {
		f, err := pc.recv()
		if err != nil {
			pc.Close()
			m.peerGone(pc.name)
			return
		}
		if silent != nil {
			silent.Reset(3 * heartbeatEvery)
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
		case f.Op == opSent:
			m.ms.noteSent(from, f.Sent)
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

// heartbeatLoop keeps a plain node's control connections from falling
// silent: any frame counts as a heartbeat.
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
		rp.Image, err = m.extract(rq.Move, rq.Until)
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

// step runs one round and reports channel counters. The subsystem runs
// to until, drains, and runs again to absorb what the drain brought in.
// It drains even after a failed run, so that no peer waits out its
// drain for this member's note.
func (m *member) step(until vtime.Time) (counters, error) {
	err := m.run(until)
	if derr := m.drain(); err == nil {
		if err = derr; err == nil {
			err = m.run(until)
		}
	}
	c := make(counters)
	for _, ep := range m.hub.Endpoints() { // one per peer
		c[ep.Peer()] = peerCount{Sent: ep.SentCount(), Queued: ep.QueuedCount(), Handled: ep.HandledCount()}
	}
	return c, err
}

// run runs the subsystem to until and keeps the first error it
// returned.
func (m *member) run(until vtime.Time) error {
	err := m.sub.Run(until)
	if err != nil {
		m.mu.Lock()
		if m.runErr == nil {
			m.runErr = err
		}
		m.mu.Unlock()
	}
	return err
}

// drain tells each channel peer in an opSent note how many messages
// this member has sent it, then waits until each peer's own note has
// come and the channel from it has queued as many as the note says:
// Mattern's counting rule, traded peer to peer, so that data still on
// the wire when a peer's run ended is taken in by this round rather
// than by a re-issue. The wait wakes on the hub's wake, which an
// endpoint posts when a burst reaches the injection queue and when it
// latches an error, and on membership changes, notes included. A peer
// whose channel failed or who left ends it with an error naming the
// peer, and so does connectTimeout.
func (m *member) drain() error {
	eps := m.hub.Endpoints()
	for _, ep := range eps {
		m.send(ep.Peer(), request{Op: opSent, Sent: ep.SentCount()})
	}
	patience := time.NewTimer(connectTimeout)
	defer patience.Stop()
	for _, ep := range eps {
		peer := ep.Peer()
		want, noted := int64(0), false
		for {
			changed := m.ms.watch()
			if !noted {
				want, noted = m.ms.takeSent(peer)
			}
			if noted && ep.QueuedCount() >= want {
				break
			}
			if err := ep.Err(); err != nil {
				return fmt.Errorf("%s: the channel from %s failed while draining: %w", m.name, peer, err)
			}
			if _, err := m.ms.conn(peer); err != nil {
				return fmt.Errorf("%s: member %s left while draining", m.name, peer)
			}
			select {
			case <-m.wake:
			case <-changed:
			case <-patience.C:
				return fmt.Errorf("%s: the channel from %s had not drained after %v", m.name, peer, connectTimeout)
			case <-m.closed:
				return fmt.Errorf("%s closed while draining", m.name)
			}
		}
	}
	return nil
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

// Close leaves the mesh and tears down the control connections and
// the node.
func (m *member) Close() error {
	var err error
	m.closeOnce.Do(func() {
		m.notify(opLeave)
		close(m.closed)
		m.ms.close()
		err = m.nd.Close()
		m.wg.Wait()
	})
	return err
}
