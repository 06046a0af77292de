package node

import (
	"errors"
	"strconv"

	"repro/internal/flight"
)

// EnableFlight attaches a flight recorder to the node's failure
// triggers: an unrecoverable transport loss on a resumable session
// (the pump surfacing *peerLostError) records the loss and trips the
// recorder, and the node's metrics registry / timeline recorder
// (wired before or after this call) are attached so post-mortems are
// self-contained. Idempotent per node; with flight never enabled the
// error paths pay one nil check.
func (n *Node) EnableFlight(r *flight.Recorder) {
	if r == nil {
		return
	}
	n.mu.Lock()
	if n.flightRec != nil {
		n.mu.Unlock()
		return
	}
	n.flightRec = r
	n.mu.Unlock()

	r.SetInfo("node", n.name)
	n.wireObservers()
}

// flightRecorder returns the attached recorder (nil-safe to use).
func (n *Node) flightRecorder() *flight.Recorder {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.flightRec
}

// notePeerLost inspects a pump/serve error and, when it is a
// *peerLostError (a resumable session exhausting its transport for
// good), records the transition and trips the flight recorder. Any
// other connection error is recorded as a transition but does not
// freeze the ring.
func (n *Node) notePeerLost(err error) {
	r := n.flightRecorder()
	if r == nil {
		return
	}
	var lost *peerLostError
	if errors.As(err, &lost) {
		r.Record("peer", lost.Peer, "peer lost: "+err.Error(), int64(lost.LastSeq))
		r.Trip("peer-lost", lost.Peer+" last_seq="+strconv.FormatUint(lost.LastSeq, 10))
		return
	}
	r.Record("conn", n.name, err.Error(), 0)
}
