package channel

import (
	"encoding/binary"
	"fmt"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"

	"repro/internal/vtime"
)

// The safe-time model: two or three subsystems, each a clock and a few
// pending events, joined by conservative channels whose ends are bare
// safeTime values over FIFO links held as slices — no goroutine, socket
// or Endpoint. A subsystem's scheduler is core's run loop reduced to
// what the protocol sees, as three kinds of action:
//
//   - deliver: the subsystem, between passes, takes the head message of
//     one of its in-links (safeTime.receive); a stalled subsystem wakes.
//   - publish: the hub's rule at a key publication (Hub.publish): the
//     grant toward each peer on its floor, then ask forwarding.
//   - step: the rest of the pass. Past the horizon it drains — asking
//     horizon+1 of every gate not yet beyond it, waiting out pending
//     asks — and departs with a departure grant; else it asks every
//     gate below the key and stalls, or advances to the key and runs
//     the event, which may send a drive onward.
//
// A departed or stopped subsystem still takes deliveries, as a real one
// queues them, but passes no more. An event with hops left sends a drive
// carrying hops-1 to a neighbour; the receiver schedules it at its
// arrival, so chains cross every link, fan through the middle of a line
// and circle a ring, and some arrive beyond the horizon.
//
// After every action the model checks:
//
//	(i)   no subsystem stands past a gate's bound: a step runs at a key
//	      every gate allows, and afterwards no bound falls below the
//	      clock (§2.1: system time never passes a channel's safe time);
//	(ii)  no data reaches a receiver behind its clock;
//	(iii) every grant a publication sends is at most the pending ask it
//	      answers and equals min(key, every other peer's bound) plus the
//	      lookahead, capped at that ask: the asker's restriction removed
//	      (§2.2.2);
//	(v)   receive reports stop exactly when an endpoint latches its first
//	      error, a forged message latches one, the error then never
//	      changes, and the owner passes no more;
//
// and when nothing more can happen, (iv): every subsystem departed at
// the horizon with every event up to it run (with no horizon: every
// event run), every link empty and no error latched — no deadlock and
// no livelock. A fault walk may forge one message onto a link — a
// sequence gap, or data behind the receiver's clock — and then checks
// (v) in place of (iv): the receiver latched and stopped.

// modelLink is every model channel's link: lookahead 4, and a message
// holds the link for 1, so drives sent together arrive spaced.
var modelLink = LinkModel{Latency: 3, PerMessage: 1}

// mEvent is a pending event: at t, it sends a drive carrying hops-1 to
// neighbour to when hops > 0.
type mEvent struct {
	t    vtime.Time
	hops int
	to   int
}

// topology is a model system: each subsystem's neighbours, in gate
// order, its initial events, the run's horizon, and how many actions the
// exhaustive walk branches over before it finishes each schedule in a
// fixed order.
type topology struct {
	name   string
	nbrs   [][]int
	events [][]mEvent
	until  vtime.Time
	depth  int
}

// modelTopologies are the simple cycles graph.Topology.Validate allows,
// smallest first: a pair, a line of three and a ring of three. In the
// first three, subsystem 1 first waits on one far event, so it asks far
// ahead, and then a chain reaches it from subsystem 0 and must bounce
// back: its drive back is what the echo cap on the far grant is for. In
// the open line, whose run has no horizon to drain at, the middle has no
// work of its own until one late drive, so it does not ask for itself:
// the ends' demand reaches across it only by forwarding.
var modelTopologies = []topology{
	{"pair", [][]int{{1}, {0}},
		[][]mEvent{{{2, 3, 1}}, {{20, 0, 0}}}, 24, 15},
	{"line", [][]int{{1}, {0, 2}, {1}},
		[][]mEvent{{{2, 3, 1}}, {{20, 0, 0}}, {{1, 2, 1}}}, 24, 10},
	{"ring", [][]int{{1, 2}, {2, 0}, {0, 1}},
		[][]mEvent{{{2, 3, 1}}, {{20, 0, 2}}, {{1, 1, 0}}}, 24, 9},
	{"open line", [][]int{{1}, {0, 2}, {1}},
		[][]mEvent{{{2, 0, 1}, {14, 0, 1}}, nil, {{9, 0, 1}, {17, 1, 1}}}, vtime.Infinity, 11},
}

const (
	opDeliver = iota
	opPublish
	opStep
	opForgeGap    // a grant skipping a sequence number
	opForgeBehind // data behind the receiver's clock, in sequence
)

// act is one model action by subsystem sub; from is the sending end of
// the link a deliver or forge acts on.
type act struct {
	op, sub, from int
}

func (a act) String() string {
	name := [...]string{"deliver", "publish", "step", "forge-gap", "forge-behind"}[a.op]
	if a.op == opPublish || a.op == opStep {
		return fmt.Sprintf("%s(%d)", name, a.sub)
	}
	return fmt.Sprintf("%s(%d<-%d)", name, a.sub, a.from)
}

// mEnd is a subsystem's end of the channel toward peer.
type mEnd struct {
	peer    int
	st      safeTime
	latched error // the first error st latched
}

type mSub struct {
	now       vtime.Time
	events    []mEvent
	ends      []mEnd
	published bool // between publish and step
	stalled   bool // waiting for a delivery
	departed  bool
	stopped   bool
}

// world is one state of a model run.
type world struct {
	subs   []mSub
	links  [][]Message // links[from*n+to]
	fault  bool        // a forge may happen
	forged int         // the subsystem a forged message went to, -1 none
}

func newWorld(top *topology, fault bool) *world {
	n := len(top.nbrs)
	w := &world{subs: make([]mSub, n), links: make([][]Message, n*n), fault: fault, forged: -1}
	for i := range w.subs {
		s := &w.subs[i]
		s.events = slices.Clone(top.events[i])
		for _, p := range top.nbrs[i] {
			s.ends = append(s.ends, mEnd{peer: p, st: safeTime{
				local: strconv.Itoa(i), peer: strconv.Itoa(p), conservative: true, link: modelLink,
			}})
		}
	}
	return w
}

func (w *world) clone() *world {
	c := *w
	c.subs = slices.Clone(w.subs)
	for i := range c.subs {
		s := &c.subs[i]
		s.events = slices.Clone(s.events)
		s.ends = slices.Clone(s.ends)
		for k := range s.ends {
			st := &s.ends[k].st
			st.grants, st.unacked = slices.Clone(st.grants), slices.Clone(st.unacked)
		}
	}
	c.links = slices.Clone(w.links)
	for i := range c.links {
		c.links[i] = slices.Clone(c.links[i])
	}
	return &c
}

func (w *world) link(from, to int) *[]Message { return &w.links[from*len(w.subs)+to] }

func (s *mSub) end(peer int) *mEnd {
	for k := range s.ends {
		if s.ends[k].peer == peer {
			return &s.ends[k]
		}
	}
	panic("no end toward " + strconv.Itoa(peer))
}

func (s *mSub) key() vtime.Time {
	k := vtime.Infinity
	for _, ev := range s.events {
		k = min(k, ev.t)
	}
	return k
}

// enabled appends every action possible in w to acts, in a fixed order.
func (w *world) enabled(acts []act) []act {
	for i := range w.subs {
		s := &w.subs[i]
		for k := range s.ends {
			if p := s.ends[k].peer; len(*w.link(p, i)) > 0 && (!s.published || s.departed || s.stopped) {
				acts = append(acts, act{opDeliver, i, p})
			}
		}
	}
	for i := range w.subs {
		if s := &w.subs[i]; !s.published && !s.stalled && !s.departed && !s.stopped {
			acts = append(acts, act{opPublish, i, 0})
		}
	}
	for i := range w.subs {
		if w.subs[i].published {
			acts = append(acts, act{opStep, i, 0})
		}
	}
	if w.fault && w.forged < 0 {
		for i := range w.subs {
			for k := range w.subs[i].ends {
				p := w.subs[i].ends[k].peer
				acts = append(acts, act{opForgeGap, i, p})
				if w.subs[i].now > 0 {
					acts = append(acts, act{opForgeBehind, i, p})
				}
			}
		}
	}
	return acts
}

// checker runs actions on worlds and fails tb, naming the schedule, the
// moment an invariant breaks.
type checker struct {
	tb       testing.TB
	top      *topology
	path     []act
	finished map[string]bool // keys of the states finish has run from
	buf      []byte
}

func (c *checker) failf(format string, args ...any) {
	c.tb.Helper()
	c.tb.Fatalf("%s: %s\nschedule: %v", c.top.name, fmt.Sprintf(format, args...), c.path)
}

// send puts what end e of subsystem i decided on the link to its peer.
func (c *checker) send(w *world, i int, e *mEnd, o out, hops int) {
	if o.seq == 0 {
		return
	}
	var m Message
	m.stamp(o, strconv.Itoa(i))
	if o.kind == KindData {
		m.Value = hops
	}
	l := w.link(i, e.peer)
	*l = append(*l, m)
}

func (c *checker) apply(w *world, a act) {
	c.path = append(c.path, a)
	s := &w.subs[a.sub]
	switch a.op {
	case opDeliver:
		c.deliver(w, a.sub, a.from)
	case opPublish:
		c.publish(w, a.sub)
	case opStep:
		c.step(w, a.sub)
	case opForgeGap, opForgeBehind:
		peer := &w.subs[a.from]
		m := Message{Kind: kindSafeTimeGrant, From: "forged", Seq: peer.end(a.sub).st.seqOut + 2}
		if a.op == opForgeBehind {
			m = Message{Kind: KindData, From: "forged", Seq: peer.end(a.sub).st.seqOut + 1, Time: s.now - 1, Value: 0}
		}
		l := w.link(a.from, a.sub)
		*l = append(*l, m)
		w.forged = a.sub
	}
	for i := range w.subs {
		s := &w.subs[i]
		for k := range s.ends {
			e := &s.ends[k]
			if b := e.st.bound(); b < s.now {
				c.failf("(i) subsystem %d at %v past its gate toward %d, bound %v", i, s.now, e.peer, b)
			}
			if e.st.err != e.latched {
				c.failf("(v) subsystem %d's error toward %d changed from %v to %v", i, e.peer, e.latched, e.st.err)
			}
			if e.st.err != nil && w.forged < 0 {
				c.failf("subsystem %d latched %v with nothing forged", i, e.st.err)
			}
		}
	}
}

func (c *checker) deliver(w *world, i, from int) {
	s := &w.subs[i]
	l := w.link(from, i)
	m := (*l)[0]
	*l = (*l)[1:]
	e := s.end(from)
	first := e.st.err == nil
	v, stop := e.st.receive(&m, s.now)
	if stop != (first && e.st.err != nil) || first && m.From == "forged" && !stop {
		c.failf("(v) receive of %v at subsystem %d reported stop %v, latched %v before, %v after", m, i, stop, !first, e.st.err)
	}
	if stop {
		e.latched, s.stopped = e.st.err, true
	}
	if m.Kind == KindData && m.From != "forged" && m.Time < s.now {
		c.failf("(ii) data @%v from %d reached subsystem %d at %v", m.Time, from, i, s.now)
	}
	if v == inDeliver {
		hops, _ := m.Value.(int)
		nb := c.top.nbrs[i]
		next := nb[(slices.Index(nb, from)+1)%len(nb)]
		s.events = append(s.events, mEvent{t: m.Time, hops: hops, to: next})
	}
	s.stalled = false
}

// publish is Hub.publish on the model's ends, checking (iii) on every
// grant it sends.
func (c *checker) publish(w *world, i int) {
	s := &w.subs[i]
	key := s.key()
	bounds := make([]vtime.Time, len(s.ends))
	for k := range s.ends {
		bounds[k] = s.ends[k].st.bound()
	}
	needed := vtime.Time(0)
	for k := range s.ends {
		e := &s.ends[k]
		pending := e.st.pendingAsk
		o := e.st.grant(floorExcept(key, bounds, k))
		if o.seq != 0 {
			want := key
			for j, b := range bounds {
				if s.ends[j].peer != e.peer {
					want = min(want, b)
				}
			}
			if want = min(want.Add(modelLink.Lookahead()), pending); pending == 0 || o.t != want {
				c.failf("(iii) subsystem %d granted %v toward %d, pending ask %v, want %v", i, o.t, e.peer, pending, want)
			}
		}
		c.send(w, i, e, o, 0)
		needed = max(needed, e.st.demand())
	}
	if forwards(key, floorExcept(key, bounds, -1), needed) {
		for k := range s.ends {
			c.send(w, i, &s.ends[k], s.ends[k].st.forward(needed), 0)
		}
	}
	s.published = true
}

func (c *checker) step(w *world, i int) {
	s := &w.subs[i]
	s.published = false
	key, until := s.key(), c.top.until
	if key == vtime.Infinity && until == vtime.Infinity {
		s.stalled = true // on the outside world, for good
		return
	}
	if key > until {
		drained := true
		for k := range s.ends {
			e := &s.ends[k]
			if e.st.bound() <= until {
				c.send(w, i, e, e.st.ask(until+1), 0)
				drained = false
			} else if !e.st.quiesced() {
				drained = false
			}
		}
		if !drained {
			s.stalled = true
			return
		}
		for k := range s.ends {
			c.send(w, i, &s.ends[k], s.ends[k].st.depart(until+1), 0)
		}
		s.departed = true
		return
	}
	blocked := false
	for k := range s.ends {
		if e := &s.ends[k]; e.st.bound() < key {
			c.send(w, i, e, e.st.ask(key), 0)
			blocked = true
		}
	}
	if blocked {
		s.stalled = true
		return
	}
	at := slices.IndexFunc(s.events, func(ev mEvent) bool { return ev.t == key })
	ev := s.events[at]
	s.events = slices.Delete(s.events, at, at+1)
	s.now = key
	if ev.hops > 0 {
		e := s.end(ev.to)
		c.send(w, i, e, e.st.data(s.now, 0), ev.hops-1)
	}
}

// key appends to b everything in w its future depends on: the same key,
// the same run to the end.
func (w *world) key(b []byte) []byte {
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
	}
	flag := func(f bool) int64 {
		if f {
			return 1
		}
		return 0
	}
	put(int64(w.forged))
	for i := range w.subs {
		s := &w.subs[i]
		put(int64(s.now), flag(s.published), flag(s.stalled), flag(s.departed), flag(s.stopped), int64(len(s.events)))
		for _, ev := range s.events {
			put(int64(ev.t), int64(ev.hops), int64(ev.to))
		}
		for k := range s.ends {
			e, st := &s.ends[k], &s.ends[k].st
			put(flag(e.latched != nil), int64(len(st.grants)), int64(len(st.unacked)))
			for _, g := range st.grants {
				put(int64(g.val), int64(g.ack))
			}
			for _, r := range st.unacked {
				put(int64(r.seq0), int64(r.arrival0), int64(r.stride), int64(r.n))
			}
			put(int64(st.seqOut), int64(st.seqIn), int64(st.retry), int64(st.lastAsk), st.lastAskData,
				int64(st.lastAskSeqOut), int64(st.lastSent), st.lastGrantData, int64(st.lastGrantAck),
				st.lastDepartData, int64(st.pendingAsk), int64(st.busyUntil), st.stats.DataIn,
				flag(st.closed), flag(st.paused), flag(st.peerDone), flag(st.err != nil))
		}
	}
	for _, l := range w.links {
		put(int64(len(l)))
		for _, m := range l {
			hops, _ := m.Value.(int)
			put(int64(m.Kind), int64(m.Seq), int64(m.Ack), int64(m.Time), int64(m.Ask), int64(m.Grant),
				int64(hops), flag(m.From == "forged"))
		}
	}
	return b
}

// finish runs w to its end, taking the first possible action each time
// and never forging, then checks how the run ended. A run from a state
// finished before is that run again, so it is not repeated.
func (c *checker) finish(w *world) {
	c.buf = w.key(c.buf[:0])
	if c.finished[string(c.buf)] {
		return
	}
	c.finished[string(c.buf)] = true
	w.fault = false
	var acts []act
	for n := 0; ; n++ {
		if acts = w.enabled(acts[:0]); len(acts) == 0 {
			break
		}
		if n > 10_000 {
			c.failf("(iv) livelock: still acting after %d actions", n)
		}
		c.apply(w, acts[0])
	}
	if w.forged >= 0 {
		s := &w.subs[w.forged]
		if !s.stopped {
			c.failf("(v) subsystem %d took a forged message and did not stop", w.forged)
		}
		return
	}
	for i := range w.subs {
		s := &w.subs[i]
		// At a horizon a subsystem departs with every event up to it
		// run; with none, the run ends with every event run.
		stuck := !s.departed || s.key() <= c.top.until
		if c.top.until == vtime.Infinity {
			stuck = s.key() != vtime.Infinity
		}
		if stuck {
			c.failf("(iv) deadlock: subsystem %d stuck at %v, key %v, stalled %v", i, s.now, s.key(), s.stalled)
		}
	}
	for k, l := range w.links {
		if len(l) > 0 {
			c.failf("(iv) link %d->%d still holds %v", k/len(w.subs), k%len(w.subs), l)
		}
	}
}

// explore branches over every action possible in w until depth, then
// finishes each schedule; it returns how many schedules it checked.
func (c *checker) explore(w *world, depth int) int {
	acts := w.enabled(nil)
	if depth == 0 || len(acts) == 0 {
		c.finish(w)
		return 1
	}
	n, mark := 0, len(c.path)
	for k, a := range acts {
		next := w
		if k < len(acts)-1 {
			next = w.clone()
		}
		c.apply(next, a)
		n += c.explore(next, depth-1)
		c.path = c.path[:mark]
	}
	return n
}

// TestSafeTimeModel walks every interleaving of deliveries, publishes
// and steps up to each topology's depth, each schedule then run to its
// end, for the clean protocol and — shallower, since a forge may come
// at any point — with one forged message, checking the invariants above
// after every action.
func TestSafeTimeModel(t *testing.T) {
	total := 0
	for ti := range modelTopologies {
		top := &modelTopologies[ti]
		for _, fault := range []bool{false, true} {
			depth := top.depth
			if fault {
				depth -= 3
			}
			c := &checker{tb: t, top: top, finished: map[string]bool{}}
			n := c.explore(newWorld(top, fault), depth)
			t.Logf("%s, forging %v: %d schedules to depth %d", top.name, fault, n, depth)
			total += n
		}
	}
	t.Logf("%d schedules", total)
	if min := 100_000; total < min {
		t.Fatalf("%d schedules, want at least %d", total, min)
	}
}

// TestSafeTimePure: the protocol file imports no locking, clock,
// transport, scheduler or recorder, so the value stays checkable on its
// own.
func TestSafeTimePure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "safetime.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"sync", "sync/atomic", "time", "net", "repro/internal/core", "repro/internal/timeline", "repro/internal/wire"}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); slices.Contains(banned, path) {
			t.Errorf("safetime.go imports %s", path)
		}
	}
}

// TestStragglerRedelivery: an optimistic straggler is not received, and
// its sequence number stays marked — handed back after the rollback it
// is its own redelivery, and when the handler keeps it (a coordinated
// restore regenerates it) the next message follows it in sequence.
func TestStragglerRedelivery(t *testing.T) {
	s := safeTime{local: "a", peer: "b", link: modelLink}
	for _, step := range []struct {
		seq     uint64
		at, now vtime.Time
		want    verdict
	}{
		{1, 5, 10, inStraggler},
		{1, 5, 3, inDeliver}, // handed back after rolling back to 3
		{2, 6, 10, inStraggler},
		{3, 12, 10, inDeliver}, // 2 was kept, not handed back
	} {
		m := Message{Kind: KindData, Seq: step.seq, Time: step.at}
		if v, stop := s.receive(&m, step.now); v != step.want || stop {
			t.Fatalf("seq %d at %v, clock %v: verdict %d stop %v, want %d", step.seq, step.at, step.now, v, stop, step.want)
		}
	}
	if st := s.stats; s.err != nil || st.SeqErrors != 0 || st.Stragglers != 2 || st.DataIn != 2 {
		t.Fatalf("err %v, stats %+v: want no error, 2 stragglers, 2 received", s.err, st)
	}
}
