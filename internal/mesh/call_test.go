// Direct tests of the control plane's one exchange, call, and of the
// member's one handler behind it. The far end of a control connection
// is played by the test, frame by frame, so every ordering below is
// forced rather than slept for.
package mesh

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	pia "repro"
	"repro/internal/node"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// guard bounds every wait in this file that should be over in
// microseconds; it only ever elapses in a failing test.
const guard = 10 * time.Second

// peer is the test's end of one control connection, a connection of a
// node of the test's own: the peerConn is the member's framing over it,
// and a reader goroutine hands on what arrives.
type peer struct {
	t *testing.T
	*peerConn
	frames chan any      // decoded frames, then the error that ended the reads
	done   chan struct{} // closed when the reads end
}

// scripted starts the test's end of c, a control connection to or from
// the member as name: it reads c and heartbeats on it until c closes.
func scripted(t *testing.T, name string, c *wire.Conn) *peer {
	p := &peer{t: t, peerConn: &peerConn{name: name, Conn: c}, frames: make(chan any, 64), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			f, err := p.recv()
			if err != nil {
				p.frames <- err
				return
			}
			p.frames <- f
		}
	}()
	go func() {
		for {
			select {
			case <-p.done:
				return
			case <-time.After(heartbeatEvery):
				if p.send(request{Op: opHeartbeat}) != nil {
					return
				}
			}
		}
	}()
	return p
}

func (p *peer) next() any {
	p.t.Helper()
	select {
	case f := <-p.frames:
		if err, ok := f.(error); ok {
			p.t.Fatalf("scripted peer: %v", err)
		}
		return f
	case <-time.After(guard):
		p.t.Fatalf("scripted peer: nothing arrived in %v", guard)
		return nil
	}
}

// nextRequest skips heartbeat notes: they arrive on their own clock.
func (p *peer) nextRequest() request {
	p.t.Helper()
	for {
		rq, ok := p.next().(request)
		if !ok {
			p.t.Fatalf("scripted peer: want a request")
		}
		if rq.Op != opHeartbeat {
			return rq
		}
	}
}

func (p *peer) nextReply() reply {
	p.t.Helper()
	for {
		switch f := p.next().(type) {
		case reply:
			return f
		case request:
			if f.Op != opHeartbeat {
				p.t.Fatalf("scripted peer: want a reply, got request %s", f.Op)
			}
		}
	}
}

// hungUp reads what the member still sends until it closes its end,
// and fails unless that is a clean EOF inside the guard.
func (p *peer) hungUp() {
	p.t.Helper()
	for {
		select {
		case f := <-p.frames:
			if err, ok := f.(error); ok {
				if err != io.EOF {
					p.t.Fatalf("scripted peer: want the member to hang up, got %v", err)
				}
				return
			}
		case <-time.After(guard):
			p.t.Fatalf("scripted peer: the member kept the connection open")
		}
	}
}

func (p *peer) mustSend(f any) {
	p.t.Helper()
	if err := p.send(f); err != nil {
		p.t.Fatalf("scripted peer send: %v", err)
	}
}

// testNode is a node of the test's own, closed when the test ends.
func testNode(t *testing.T, name string) *node.Node {
	n := node.New(name)
	t.Cleanup(func() { n.Close() })
	return n
}

func newMember(t *testing.T, name string, describe func(*pia.SystemBuilder) error) *member {
	t.Helper()
	m, err := New(Config{Name: name, Describe: describe})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// awaitMembership blocks on the membership signal until cond holds.
func awaitMembership(t *testing.T, m *member, what string, cond func() bool) {
	t.Helper()
	for {
		changed := m.ms.watch()
		if cond() {
			return
		}
		select {
		case <-changed:
		case <-time.After(guard):
			t.Fatalf("%s never saw %s: %+v", m.name, what, m.Health())
		}
	}
}

func hasLeft(m *member, name string) func() bool {
	return func() bool {
		for _, ph := range m.Health().Members {
			if ph.Name == name {
				return ph.Left
			}
		}
		return false
	}
}

// dialAs joins m's control mesh as name and returns once m admitted it.
func dialAs(t *testing.T, m *member, name string) *peer {
	t.Helper()
	c, err := testNode(t, name).DialControl(name, m.name, m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := scripted(t, name, c)
	awaitMembership(t, m, name+" joining", func() bool { _, err := m.ms.conn(name); return err == nil })
	return p
}

// listenAs plays a larger-named member: the address to list in Start's
// peer map, and the connection Start dials.
func listenAs(t *testing.T, name string) (string, <-chan *peer) {
	t.Helper()
	n := testNode(t, name)
	out := make(chan *peer, 1)
	n.SetControl(func(_ string, c *wire.Conn) {
		p := scripted(t, name, c)
		out <- p
		<-p.done // the node closes c when this returns
	})
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, out
}

// within fails the test unless fn returns inside the guard, and
// returns what fn returned.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(guard):
		t.Fatalf("%s still blocked after %v", what, guard)
		return nil
	}
}

func marked(id uint64, mark int64) reply {
	return reply{ID: id, Op: opStep, Counters: counters{"mark": {Sent: mark}}}
}

// TestCallGathersOneReplyPerMember: replies are preloaded in a known
// order, so the gather meets a stale ID under the right op, a reply
// from a member the call did not address, a duplicate, and the two it
// wants — and keeps exactly those two.
func TestCallGathersOneReplyPerMember(t *testing.T) {
	m := newMember(t, "alpha", nothing)
	p1, p2 := dialAs(t, m, "p1"), dialAs(t, m, "p2")
	dialAs(t, m, "p3")
	id := m.callID + 1
	m.route("p1", marked(id+7, 1)) // stale: another call's ID
	m.route("p3", marked(id, 2))   // not addressed
	m.route("p1", marked(id, 3))
	m.route("p1", marked(id, 4)) // duplicate
	m.route("p2", marked(id, 5))
	got, err := m.call([]string{"p1", "p2"}, request{Op: opStep, Until: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["p1"].Counters["mark"].Sent != 3 || got["p2"].Counters["mark"].Sent != 5 {
		t.Fatalf("gathered %+v, want p1's first right-ID reply and p2's", got)
	}
	for _, p := range []*peer{p1, p2} {
		if rq := p.nextRequest(); rq.ID != id || rq.Op != opStep || rq.Until != 42 {
			t.Fatalf("member received %+v, want step %d to 42", rq, id)
		}
	}
	// What the first call left behind is stale to the second.
	m.route("p1", marked(id, 6))
	m.route("p1", marked(id+1, 7))
	got, err = m.call([]string{"p1"}, request{Op: opStep})
	if err != nil || got["p1"].Counters["mark"].Sent != 7 {
		t.Fatalf("second call gathered %+v, %v; want mark 7", got, err)
	}
}

// TestCallSurfacesRefusal: the first non-empty Err ends the call with
// an error naming the member and the phase.
func TestCallSurfacesRefusal(t *testing.T) {
	m := newMember(t, "alpha", nothing)
	dialAs(t, m, "p1")
	dialAs(t, m, "p2")
	id := m.callID + 1
	m.route("p1", reply{ID: id, Op: opApply})
	m.route("p2", reply{ID: id, Op: opApply, Err: "placement forked"})
	_, err := m.call([]string{"p1", "p2"}, request{Op: opApply})
	var refused *Refused
	if !errors.As(err, &refused) || *refused != (Refused{Member: "p2", Phase: "apply", Reason: "placement forked"}) {
		t.Fatalf("call returned %v, want p2's refusal of apply", err)
	}
}

// TestCallTimesOut: one timer bounds the whole gather.
func TestCallTimesOut(t *testing.T) {
	m := newMember(t, "alpha", nothing)
	dialAs(t, m, "p1")
	p2 := dialAs(t, m, "p2")
	m.phaseTimeout = 50 * time.Millisecond
	m.route("p1", reply{ID: m.callID + 1, Op: opDial})
	_, err := m.call([]string{"p1", "p2"}, request{Op: opDial})
	if err == nil || !strings.Contains(err.Error(), "dial timed out") || !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("call returned %v, want a dial timeout with 1 of 2 replies", err)
	}
	// The slow member's answer, when it does come, belongs to nobody.
	rq := p2.nextRequest()
	m.route("p2", reply{ID: rq.ID, Op: opDial, Err: "too late to matter"})
	m.route("p2", reply{ID: rq.ID + 1, Op: opFinish})
	if _, err := m.call([]string{"p2"}, request{Op: opFinish}); err != nil {
		t.Fatalf("call after a timed-out one: %v", err)
	}
}

// TestCallEndsWhenMemberLeaves: a member that hangs up, or says it is
// leaving, while its reply is awaited ends the call at once — and is
// refused at send time afterwards.
func TestCallEndsWhenMemberLeaves(t *testing.T) {
	for _, how := range []string{"hangs up", "announces leave"} {
		m := newMember(t, "alpha", nothing)
		p := dialAs(t, m, "p1")
		go func() {
			p.nextRequest()
			if how == "hangs up" {
				p.Close()
			} else {
				p.send(request{Op: opLeave})
			}
		}()
		err := within(t, "call to a departing member", func() error {
			_, err := m.call([]string{"p1"}, request{Op: opStep})
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "p1 left during step") {
			t.Fatalf("%s: call returned %v, want p1 leaving during step", how, err)
		}
		awaitMembership(t, m, "p1 leaving", hasLeft(m, "p1"))
		if _, err := m.call([]string{"p1"}, request{Op: opStep}); err == nil || !strings.Contains(err.Error(), "has left") {
			t.Fatalf("%s: call to a departed member returned %v", how, err)
		}
	}
}

// TestCloseDuringGather: Close does not wait out the phase timeout of
// a call in flight.
func TestCloseDuringGather(t *testing.T) {
	m := newMember(t, "alpha", nothing)
	p := dialAs(t, m, "p1")
	go func() {
		p.nextRequest() // the call is gathering now
		m.Close()
	}()
	err := within(t, "call on a closing member", func() error {
		_, err := m.call([]string{"p1"}, request{Op: opStep})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "closed during step") {
		t.Fatalf("call returned %v, want closed during step", err)
	}
}

// nothing is the empty description.
func nothing(*pia.SystemBuilder) error { return nil }

// solo describes the smallest system that runs: a pump and a drain on
// one member, nothing crossing.
func solo(home string) func(*pia.SystemBuilder) error {
	return func(b *pia.SystemBuilder) error {
		return b.AddComponent("pump", home, &pumpBeh{N: 3, Period: vtime.Millisecond}, "out").
			AddComponent("drain", home, &drainBeh{}, "in").
			AddNet("local", 100*vtime.Microsecond, "pump.out", "drain.in").
			Err()
	}
}

// startWithScriptedPeer starts a real member beside one scripted peer
// and returns the peer's end of their control connection.
func startWithScriptedPeer(t *testing.T, name, peerName string, describe func(*pia.SystemBuilder) error) (*member, *peer, error) {
	t.Helper()
	m := newMember(t, name, describe)
	if peerName < name {
		started := make(chan error, 1)
		go func() { started <- m.Start(map[string]string{peerName: "unused: the smaller name dials"}) }()
		p := dialAs(t, m, peerName)
		return m, p, <-started
	}
	addr, dialed := listenAs(t, peerName)
	err := m.Start(map[string]string{peerName: addr})
	return m, <-dialed, err
}

// TestUnknownOpIsRefused: an op this build does not know is a protocol
// error, here on a connection the member dialed: the member hangs up —
// no panic, no reply — and records the peer as left.
func TestUnknownOpIsRefused(t *testing.T) {
	m, p, err := startWithScriptedPeer(t, "alpha", "zulu", solo("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	p.mustSend(request{ID: 5, Op: op(99)})
	awaitMembership(t, m, "zulu dropped", hasLeft(m, "zulu"))
	p.hungUp()
}

// TestLeadEndsWhenFollowerDies: a follower whose control connection
// dies mid-round makes Lead return, naming it, instead of waiting out
// the phase timeout.
func TestLeadEndsWhenFollowerDies(t *testing.T) {
	m, p, err := startWithScriptedPeer(t, "alpha", "zulu", solo("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		rq := p.nextRequest()
		p.send(reply{ID: rq.ID, Op: rq.Op}) // ready
		p.nextRequest()                     // the first step: die holding it
		p.Close()
	}()
	err = within(t, "Lead with a dead follower", func() error {
		return m.Lead(vtime.Time(10*vtime.Millisecond), vtime.Millisecond)
	})
	if err == nil || !strings.Contains(err.Error(), "zulu left during step") {
		t.Fatalf("Lead returned %v, want zulu leaving during step", err)
	}
	// The leader itself was still told the run is over.
	if err := within(t, "Wait on the leader", m.Wait); err != nil {
		t.Fatalf("leader's own run: %v", err)
	}
}

// TestFollowerAnswersTheLeader drives a real follower from a scripted
// leader through the whole vocabulary a follower of a one-member
// system can be asked: ready, step with its counters, a migration
// request it must refuse, finish.
func TestFollowerAnswersTheLeader(t *testing.T) {
	m, p, err := startWithScriptedPeer(t, "bravo", "alpha", solo("bravo"))
	if err != nil {
		t.Fatal(err)
	}
	ask := func(rq request) reply {
		t.Helper()
		p.mustSend(rq)
		rp := p.nextReply()
		if rp.ID != rq.ID || rp.Op != rq.Op {
			t.Fatalf("%s %d answered by %s %d", rq.Op, rq.ID, rp.Op, rp.ID)
		}
		return rp
	}
	if rp := ask(request{ID: 1, Op: opReady}); rp.Err != "" {
		t.Fatalf("ready: %s", rp.Err)
	}
	rp := ask(request{ID: 2, Op: opStep, Until: vtime.Time(10 * vtime.Millisecond)})
	if rp.Err != "" || len(rp.Counters) != 0 {
		t.Fatalf("step of a member with no channels answered %+v", rp)
	}
	drain := &drainBeh{}
	savedState(t, m.Subsystem(), "drain", drain)
	if got := drain.Count; got != 3 {
		t.Fatalf("drain absorbed %d values after the step, want 3", got)
	}
	if rp := ask(request{ID: 3, Op: opMigrate, Move: move{Comp: "pump", To: "alpha"}}); !strings.Contains(rp.Err, "not the leader") {
		t.Fatalf("a follower asked to queue a migration answered %+v", rp)
	}
	if rp := ask(request{ID: 4, Op: opApply, Move: move{Epoch: 1, Comp: "ghost", To: "alpha"}}); rp.Err == "" {
		t.Fatalf("an epoch moving an unknown component was applied")
	}
	ask(request{ID: 5, Op: opFinish})
	if err := within(t, "Wait after finish", m.Wait); err != nil {
		t.Fatal(err)
	}
}

// TestBuildFailureReachesTheLeader: a member whose build failed — here
// the data channel its slice needs, dialed at an address nothing
// listens on — still answers opReady, with the reason.
func TestBuildFailureReachesTheLeader(t *testing.T) {
	crossing := func(b *pia.SystemBuilder) error {
		return b.SetDefaultChannel(pia.Conservative, demoLink).
			AddComponent("pump", "alpha", &pumpBeh{N: 3, Period: vtime.Millisecond}, "out").
			AddComponent("drain", "zulu", &drainBeh{}, "in").
			AddNet("wire", 0, "pump.out", "drain.in").
			Err()
	}
	_, p, err := startWithScriptedPeer(t, "alpha", "zulu", crossing)
	if err == nil || !strings.Contains(err.Error(), "data channel with zulu") {
		t.Fatalf("Start returned %v, want the data channel to zulu failing", err)
	}
	p.mustSend(request{ID: 1, Op: opReady})
	if rp := p.nextReply(); rp.Err != err.Error() {
		t.Fatalf("ready answered %q, want Start's error %q", rp.Err, err)
	}
}

// TestRequestMigrationReturnsTheVerdict: on a real three-member mesh a
// follower's request comes back queued or refused with the leader's
// reason, the queue is bounded, and what was queued happens.
func TestRequestMigrationReturnsTheVerdict(t *testing.T) {
	p := demoParams()
	lm, err := StartLocalMesh(demo(p), demoNames, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lm.Close)
	charlie := lm.member("charlie")
	wantRefusal := func(err error, reason string) {
		t.Helper()
		var refused *Refused
		if !errors.As(err, &refused) || refused.Member != "alpha" || refused.Phase != "migrate" || !strings.Contains(refused.Reason, reason) {
			t.Fatalf("verdict %v, want alpha refusing migrate with %q", err, reason)
		}
	}
	wantRefusal(charlie.RequestMigration("ghost", "bravo"), `unknown component "ghost"`)
	wantRefusal(charlie.RequestMigration("hot", "nowhere"), `unknown member "nowhere"`)
	// A name no control frame may carry is refused by the asker, and
	// costs it nothing: the requests below still reach the leader.
	var refused *Refused
	if err := charlie.RequestMigration(strings.Repeat("x", maxName+1), "bravo"); !errors.As(err, &refused) || refused.Member != "charlie" {
		t.Fatalf("an over-long component name gave %v, want charlie's own refusal", err)
	}
	for i := 0; i < maxQueuedMigrations; i++ {
		from := lm.Members[i%len(lm.Members)] // the leader asks itself the same way
		if err := from.RequestMigration("hot", "bravo"); err != nil {
			t.Fatalf("request %d from %s: %v", i, from.Name(), err)
		}
	}
	wantRefusal(charlie.RequestMigration("hot", "bravo"), "already wait")

	if err := lm.Run(p.Horizon(), 25*vtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if home := charlie.Placement()["hot"]; home != "bravo" || charlie.Epoch() != 1 {
		t.Fatalf("after the run hot is on %q at epoch %d, want bravo at 1", home, charlie.Epoch())
	}
	if h := hotState(t, lm); h.I != p.Values || h.Got != p.Values*p.Sinks {
		t.Fatalf("migrated hot finished I=%d Got=%d", h.I, h.Got)
	}
	wantRefusal(charlie.RequestMigration("hot", "alpha"), "run is over")
}
