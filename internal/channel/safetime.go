package channel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// safeTime is the paper's §2.2.2 channel protocol for one endpoint, as a
// value with no lock, clock or transport. Each method takes one input —
// a drive to send, a gate's demand, a publication's floor, a departure,
// a received message — and returns what to do: the message to send (an
// out) or what to do with the one received (a verdict). The Endpoint
// holds it under its mutex; the model test drives bare values.
type safeTime struct {
	local, peer  string // the subsystems the channel joins, for errors
	conservative bool
	link         LinkModel

	grants  []grantRec  // frontier of the peer's promises (see bound)
	unacked []egressRun // our egress not yet covered by every frontier grant

	seqOut uint64 // last sequence number we stamped
	seqIn  uint64 // last peer sequence number processed
	retry  uint64 // a straggler handed back for redelivery, 0 none

	lastAsk        vtime.Time // ask we sent most recently
	lastAskData    int64      // stats.DataIn when it was sent
	lastAskSeqOut  uint64     // seqOut when it was sent
	lastSent       vtime.Time // grant we pushed most recently
	lastGrantData  int64      // stats.DataIn at our last grant push
	lastGrantAck   uint64     // seqIn at our last grant push
	lastDepartData int64      // stats.DataIn at our last departure grant
	pendingAsk     vtime.Time // the peer's latest ask, 0 none
	busyUntil      vtime.Time // link serialization horizon

	closed   bool // we sent Close
	paused   bool // rewind in progress: egress discarded
	peerDone bool // the peer sent Close

	err   error // the first protocol or transport error, latched
	stats Stats
}

// out is a message the protocol decided to send: its kind, sequence
// stamp and, for data, an ask or a grant, its time. The zero out sends
// nothing.
type out struct {
	kind     msgKind
	seq, ack uint64
	t        vtime.Time
}

// stamp writes o into m, the egress slot that carries it.
func (m *Message) stamp(o out, from string) {
	m.Kind, m.From, m.Seq, m.Ack = o.kind, from, o.seq, o.ack
	switch o.kind {
	case KindData:
		m.Time = o.t
	case kindSafeTimeReq:
		m.Ask = o.t
	case kindSafeTimeGrant:
		m.Grant = o.t
	}
}

// verdict is what the endpoint does with a received message once the
// protocol has taken its part.
type verdict uint8

const (
	inAbsorb    verdict = iota // nothing more: an ask, a grant, a repeated close
	inDeliver                  // drive the data at its time
	inStraggler                // optimistic data behind the clock: roll back
	inMark
	inRestore
	inClose // the peer's Close: one ingress source fewer
)

// egressRun tracks n consecutive outgoing data messages the peer may
// still react to under some frontier grant: message i of the run has
// sequence number seq0+i and arrives at arrival0+i*stride. Arrivals
// never fall along an endpoint's egress — LinkModel.Arrival starts each
// message at max(sent, busyUntil), at or after the start of the one
// before — so stride is never negative and a run's earliest arrival
// beyond any sequence number is that of its first message beyond it. A
// page burst, evenly spaced by the link's serialization, is one run.
type egressRun struct {
	seq0     uint64
	arrival0 vtime.Time
	stride   vtime.Duration
	n        uint64
}

// at is the arrival of the run's i-th message.
func (r *egressRun) at(i uint64) vtime.Time {
	return r.arrival0 + vtime.Time(r.stride)*vtime.Time(i)
}

// grantRec is one promise from the peer: "given everything of yours I
// had processed up to Ack, nothing will arrive from me below Val."
// Your messages beyond Ack may provoke earlier reactions, so the
// promise is capped by their echo times at evaluation.
type grantRec struct {
	val vtime.Time
	ack uint64
}

// next stamps a message of kind k carrying t with our next sequence
// number and, as its Ack, the last peer message we processed.
func (s *safeTime) next(k msgKind, t vtime.Time) out {
	s.seqOut++
	return out{kind: k, seq: s.seqOut, ack: s.seqIn, t: t}
}

// data stamps a drive of size bytes sent at virtual time sent: it
// arrives once the link has serialized it, and its echo caps the peer's
// grants until one acknowledges it. A paused channel sends nothing: its
// egress belongs to a timeline a rewind is abandoning.
func (s *safeTime) data(sent vtime.Time, size int) out {
	if s.closed || s.paused {
		return out{}
	}
	arrive, busy := s.link.arrival(sent, size, s.busyUntil)
	s.busyUntil = busy
	s.stats.DataOut++
	s.stats.BytesOut += int64(size)
	o := s.next(KindData, arrive)
	// Extend the last run when this is its next sequence number at its
	// stride (a run of one takes whatever stride comes); else start one.
	if k := len(s.unacked); k > 0 {
		r := &s.unacked[k-1]
		if d := arrive.Sub(r.at(r.n - 1)); o.seq == r.seq0+r.n && d >= 0 && (r.n == 1 || d == r.stride) {
			r.stride = d
			r.n++
			return o
		}
	}
	s.unacked = append(s.unacked, egressRun{seq0: o.seq, arrival0: arrive, n: 1})
	return o
}

// ask decides a gate's demand for a safe time of at least t. An ask is
// re-sent when t rises, after new peer data has arrived since the last
// one (the piggybacked Ack then refreshes the peer's view of what is
// still in flight), or after we have sent new egress (whose echoes cap
// every grant issued against the old ask, so only a reply to a fresher
// ask can raise our bound).
func (s *safeTime) ask(t vtime.Time) out {
	stale := s.stats.DataIn > s.lastAskData || s.seqOut > s.lastAskSeqOut
	if s.peerDone || s.closed || s.paused || (t <= s.lastAsk && !stale) {
		return out{}
	}
	s.lastAsk = max(t, s.lastAsk) // keep the strongest outstanding demand
	s.lastAskData = s.stats.DataIn
	s.stats.AsksOut++
	o := s.next(kindSafeTimeReq, s.lastAsk)
	s.lastAskSeqOut = s.seqOut
	return o
}

// grant decides the grant toward the peer from floor, our key with the
// peer's restriction removed (floorExcept). Grants are strictly
// solicited and never exceed the pending ask: the ask was sent (FIFO)
// after everything the asker had transmitted, so floor already accounts
// for every input that could make us act earlier, whereas an
// unsolicited grant can be overtaken by a peer message already in
// flight, leaving the peer a promise we can no longer keep.
func (s *safeTime) grant(floor vtime.Time) out {
	pending := s.pendingAsk
	if s.closed || s.paused || !s.conservative || pending == 0 {
		return out{}
	}
	g := min(floor.Add(s.link.Lookahead()), pending)
	// Send when the grant satisfies the demand, improves the last sent
	// value by at least one lookahead (the lifting chain moves in >=
	// lookahead increments, so holding back smaller improvements bounds
	// chatter without hurting liveness), or repeats a value with a fresh
	// Ack after new peer data — the refreshed Ack is what lifts the
	// peer's echo cap on that data. Values need not be monotone: each
	// grant stands on the floor of its own instant, and the receiver's
	// frontier keeps whichever (value, ack) combinations bound it best.
	refresh := s.stats.DataIn > s.lastGrantData
	improved := g >= pending || g.Sub(s.lastSent) >= s.link.Lookahead()
	duplicate := g == s.lastSent && s.seqIn == s.lastGrantAck
	if duplicate || (!improved && !refresh) {
		return out{}
	}
	s.lastSent, s.lastGrantData, s.lastGrantAck = g, s.stats.DataIn, s.seqIn
	if g >= pending {
		s.pendingAsk = 0
	}
	s.stats.GrantsOut++
	return s.next(kindSafeTimeGrant, g)
}

// depart decides the grant g covering a finite horizon that a subsystem
// leaving its run pushes: sound because it will not simulate at or
// below the horizon again, and reactions it might have to the peer's
// in-flight messages are covered by the peer's echo cap. It is sent
// even when it does not raise the peer's bound, because its Ack is what
// releases that echo cap on data we have processed.
func (s *safeTime) depart(g vtime.Time) out {
	if !s.conservative || s.closed || s.paused || s.peerDone ||
		// Nothing new to tell: resending would ping-pong departure
		// grants between idle peers forever in round-based drivers.
		g <= s.lastSent && s.stats.DataIn <= s.lastDepartData {
		return out{}
	}
	g = max(g, s.lastSent) // an idempotent re-grant as an ack carrier
	s.lastSent, s.lastDepartData = g, s.stats.DataIn
	if g >= s.pendingAsk {
		s.pendingAsk = 0
	}
	s.stats.GrantsOut++
	return s.next(kindSafeTimeGrant, g)
}

// forward relays upstream a demand the hub cannot satisfy (forwards):
// an ask for needed when this peer still restricts us below it.
func (s *safeTime) forward(needed vtime.Time) out {
	if s.bound() >= needed {
		return out{}
	}
	return s.ask(needed)
}

// control stamps a snapshot mark or restore order.
func (s *safeTime) control(k msgKind) out {
	if s.closed || s.paused {
		return out{}
	}
	return s.next(k, 0)
}

// close stamps our Close, once.
func (s *safeTime) close() out {
	if s.closed {
		return out{}
	}
	s.closed = true
	return s.next(KindClose, 0)
}

// receive takes m, the peer's next message, at subsystem time now. It
// reports stop when m latched the endpoint's first error, which must
// end its owner's run: a FIFO gap, or conservative data behind the
// clock; either is then handled as if well-formed. Optimistic data
// behind the clock is a straggler: not counted as received, and its
// sequence number marked, so that the same message handed back after
// the rollback is taken as its redelivery rather than as a gap.
func (s *safeTime) receive(m *Message, now vtime.Time) (v verdict, stop bool) {
	if m.Seq != s.retry || s.retry == 0 {
		s.seqIn++
		if m.Seq != s.seqIn {
			s.stats.SeqErrors++
			stop = s.latch(fmt.Errorf("FIFO violation: got seq %d, want %d", m.Seq, s.seqIn))
			s.seqIn = m.Seq
		}
	}
	s.retry = 0
	switch m.Kind {
	case KindData:
		if m.Time < now {
			if !s.conservative {
				s.stats.Stragglers++
				s.retry = m.Seq
				return inStraggler, stop
			}
			stop = s.latch(fmt.Errorf("conservative causality violation: data @%v behind subsystem time %v", m.Time, now)) || stop
		}
		s.stats.DataIn++
		s.stats.BytesIn += int64(signal.Size(m.Value))
		return inDeliver, stop
	case kindSafeTimeReq:
		// Only recorded: the answer is computed fresh at the next
		// publication, with the floor and Ack of one instant. An old
		// value paired with a new Ack would be unsound — the new Ack may
		// cover data whose reactions the old value never accounted for.
		s.stats.AsksIn++
		s.pendingAsk = max(s.pendingAsk, m.Ask)
	case kindSafeTimeGrant:
		s.stats.GrantsIn++
		s.addGrant(m.Grant, m.Ack)
	case kindMark:
		return inMark, stop
	case kindRestore:
		return inRestore, stop
	case KindClose:
		if !s.peerDone {
			s.peerDone = true
			return inClose, stop
		}
	}
	return inAbsorb, stop
}

// bound is the gate's bound: the earliest virtual time at which anything
// can still arrive from the peer (Infinity once it has closed, or when
// the channel is optimistic and restricts nothing). Each frontier grant
// was computed with our restriction removed, so it does not account for
// the peer's reactions to our messages beyond its Ack; it is capped by
// the earliest echo of that egress (arrival at the peer plus the return
// lookahead), and the bound is the best-capped grant.
func (s *safeTime) bound() vtime.Time {
	if s.peerDone || !s.conservative {
		return vtime.Infinity
	}
	best := vtime.Time(0)
	for _, g := range s.grants {
		cand := g.val
		for i := range s.unacked {
			r := &s.unacked[i]
			first := uint64(0) // the run's first message the grant had not seen
			if g.ack >= r.seq0 {
				first = g.ack - r.seq0 + 1
			}
			if first < r.n {
				cand = min(cand, r.at(first).Add(s.link.Lookahead()))
			}
		}
		best = max(best, cand)
	}
	return best
}

// addGrant merges a new promise into the frontier, dropping dominated
// entries and egress records covered by every remaining grant.
func (s *safeTime) addGrant(val vtime.Time, ack uint64) {
	kept := s.grants[:0]
	dominated := false
	for _, g := range s.grants {
		if g.val <= val && g.ack <= ack {
			continue // dominated by the new grant
		}
		dominated = dominated || g.val >= val && g.ack >= ack
		kept = append(kept, g)
	}
	s.grants = kept
	if !dominated {
		s.grants = append(s.grants, grantRec{val: val, ack: ack})
	}
	minAck := ^uint64(0)
	for _, g := range s.grants {
		minAck = min(minAck, g.ack)
	}
	keptE := s.unacked[:0]
	for _, r := range s.unacked {
		if minAck >= r.seq0 {
			covered := minAck - r.seq0 + 1
			if covered >= r.n {
				continue
			}
			r.seq0, r.arrival0, r.n = r.seq0+covered, r.at(covered), r.n-covered
		}
		keptE = append(keptE, r)
	}
	s.unacked = keptE
}

// quiesced reports that we owe the peer nothing: no ask is outstanding.
func (s *safeTime) quiesced() bool { return s.pendingAsk == 0 }

// demand is the floor the peer's pending ask needs of us — the ask less
// the lookahead our grant adds — or 0 when it needs nothing.
func (s *safeTime) demand() vtime.Time {
	if !s.conservative || s.pendingAsk == 0 {
		return 0
	}
	return s.pendingAsk.Add(-s.link.Lookahead())
}

// latch records err as the endpoint's error unless one is latched
// already, and reports whether it was the first. What the error dropped
// will never arrive, so every subsystem may by now be stalled on
// another with no Run left to come back and have Err looked at; the
// owner's run ending is what gets it looked at.
func (s *safeTime) latch(err error) bool {
	if s.err != nil {
		return false
	}
	s.err = fmt.Errorf("channel %s: %w", graph.ChannelComponentName(s.local, s.peer), err)
	return true
}

// reset zeroes the protocol for a checkpoint rewind: both sides restart
// from sequence 1 with no grants, asks or unacked egress, and egress
// pauses until the restore completes. Only whether either side has
// finished and the counters carry over; a transport error from the
// dying epoch is part of what the rewind recovers from.
func (s *safeTime) reset() {
	*s = safeTime{
		local: s.local, peer: s.peer, conservative: s.conservative, link: s.link,
		closed: s.closed, peerDone: s.peerDone, paused: true,
		stats: s.stats,
	}
}

// floorExcept is the time a subsystem at key reports toward the peer at
// index skip, given the bounds every peer holds it to: the paper's "its
// own subsystem time with all restrictions from the opposite processor
// removed. If this were not the case, there would be deadlock."
// Excluding the target decouples the grant from the target's own, so a
// pair resolves at once and a chain in one hop per link; the target's
// in-flight messages are handled on its side, by the echo cap. Around a
// cycle longer than simple the exclusions no longer decouple the
// recursion, which is why the paper allows only simple cycles. skip -1
// removes nothing.
func floorExcept(key vtime.Time, bounds []vtime.Time, skip int) vtime.Time {
	for j, b := range bounds {
		if j != skip {
			key = min(key, b)
		}
	}
	return key
}

// forwards reports whether a hub relays needed, the largest demand of
// its pending asks, upstream: it cannot satisfy it from floor
// (floorExcept removing nothing), and what caps floor is grants it
// holds, not its own work at key. Only genuine demand moves it, so idle
// systems stay silent while demand propagates along chains.
func forwards(key, floor, needed vtime.Time) bool {
	return needed != 0 && floor < needed && floor < key
}
