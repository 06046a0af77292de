// Control-plane wire protocol. Members speak gob over dedicated TCP
// connections, one per unordered member pair (the lexicographically
// smaller name dials). The control plane is deliberately NOT routed
// through the data-plane wire layer: membership and migration
// coordination must stay reachable while faultnet is mangling the
// data links, exactly like a management network in a real cluster.
//
// After the hello/welcome handshake a connection carries requests and
// the replies that echo their IDs, in both directions. An operation is
// an op code; what it carries beyond "do it" and "done, or this error"
// is a field of the request or the reply.
package mesh

import (
	"fmt"

	"repro/internal/vtime"
)

// ctlHello opens a control connection (sent by the dialer).
// DataAddr is the sender's data-plane listen address, which peers
// need later to dial simulation channels toward it.
type ctlHello struct {
	From     string
	DataAddr string
}

// ctlWelcome acknowledges a hello (sent by the acceptor).
type ctlWelcome struct {
	From     string
	DataAddr string
}

// op names one control-plane operation. The first two are one-way
// notes (request ID 0, never answered); every other op is a call that
// gets exactly one reply.
type op uint8

const (
	opHeartbeat op = iota + 1 // note, any -> any: keeps the membership table warm when nothing else flows
	opLeave                   // note, any -> any: graceful departure
	opReady                   // leader -> all: report the local build (components, nets, data channels)
	opStep                    // leader -> all: run to request.Until, reply with channel counters
	opMigrate                 // any -> leader: queue a live migration (Move.Comp, Move.To)
	opPrepare                 // leader -> source: extract Move.Comp, reply with its image
	opApply                   // leader -> all: apply placement epoch Move.Epoch
	opDial                    // leader -> all: open the channels the applied epoch added
	opFinish                  // leader -> all: no more rounds
)

var opNames = [...]string{"", "heartbeat", "leave", "ready", "step", "migrate", "prepare", "apply", "dial", "finish"}

func (o op) String() string {
	if int(o) < len(opNames) && o != 0 {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// request is one call (ID > 0, answered by the reply echoing it) or
// one note (ID 0).
type request struct {
	ID uint64
	Op op
	// Until is opStep's horizon. The leader re-issues the same horizon
	// under a fresh ID until the drain barrier holds; re-entering Run at
	// a reached horizon is idempotent.
	Until vtime.Time
	Move  move  // opMigrate, opPrepare, opApply
	Image image // opApply, toward the destination only
}

// reply answers the request whose ID it echoes. A non-empty Err is the
// member's refusal or failure.
type reply struct {
	ID       uint64
	Op       op
	Err      string
	Counters counters // opStep
	Image    image    // opPrepare
}

// move names one migration: Comp goes From -> To under placement
// epoch Epoch. A request to the leader fills Comp and To; the leader
// stamps the rest.
type move struct {
	Epoch uint64
	Comp  string
	From  string
	To    string
}

// image is an encoded snapshot.ComponentImage plus the component's
// running drive-digest state, which must move with it so the digest
// stream stays continuous across homes.
type image struct {
	Bytes  []byte
	Digest uint64
}

// counters are a member's cumulative per-peer channel counts after a
// round. The barrier holds when, for every directed pair X->Y, X's
// Sent[Y] equals Y's Queued[X] equals Y's Handled[X]: every message
// sent has been received AND absorbed into the destination subsystem,
// so all channels are provably empty.
type counters struct {
	Sent    map[string]int64 // peer -> messages we sent toward it
	Queued  map[string]int64 // peer -> messages we enqueued from it
	Handled map[string]int64 // peer -> messages we absorbed from it
}
