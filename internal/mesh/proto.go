// Control-plane wire protocol. Members speak wire.FrameMesh frames over
// dedicated TCP connections, one per unordered member pair (the
// lexicographically smaller name dials). The control plane is
// deliberately NOT routed through the data-plane channels: membership
// and migration coordination must stay reachable while faultnet is
// mangling the data links, exactly like a management network in a real
// cluster.
//
// Each side opens with one hello; after that a connection carries
// requests and the replies that echo their IDs, in both directions. An
// operation is an op code; what it carries beyond "do it" and "done, or
// this error" is a field of the request or the reply. Every frame is
// laid out by hand:
//
//	hello    u8 ctlVersion, u8 tagHello, string From, string DataAddr
//	request  u8 ctlVersion, u8 tagRequest, uvarint ID, u8 Op,
//	         varint Until, move, image
//	reply    u8 ctlVersion, u8 tagReply, uvarint ID, u8 Op,
//	         string Err, counters, image
//	move     uvarint Epoch, string Comp, string From, string To
//	image    string Bytes, uvarint Digest
//	counters uvarint n, n x (string Peer, varint Sent,
//	         varint Queued, varint Handled), peers in increasing order
//
// A string is a uvarint length and its bytes: a name or address at
// most maxName of them, a refusal's reason at most maxReason (clipped
// on send), an image at most maxImage (refused on send). A counter list
// holds at most maxMembers peers. An unknown frame kind, version, tag
// or op, a short body, a varint in more bytes than it needs, peers out
// of order or trailing bytes is a protocol error: it ends that
// connection — the peer is marked left — and the member goes on
// serving the others.
package mesh

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/vtime"
	"repro/internal/wire"
)

const (
	ctlVersion byte = 1

	tagHello   byte = 1
	tagRequest byte = 2
	tagReply   byte = 3

	maxName    = 1 << 10
	maxReason  = 4 << 10
	maxImage   = 32 << 20
	maxMembers = 1 << 10
	// minCount is the fewest bytes a counter entry takes: an empty
	// peer name and three one-byte varints.
	minCount = 4
)

// ctlHello opens a control connection; each side sends one. DataAddr
// is the sender's data-plane listen address, which peers need later to
// dial simulation channels toward it.
type ctlHello struct {
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

// peerCount is a member's cumulative channel counts toward one peer.
type peerCount struct {
	Sent    int64 // messages we sent toward it
	Queued  int64 // messages we enqueued from it
	Handled int64 // messages we absorbed from it
}

// counters are a member's per-peer channel counts after a round. The
// barrier holds when, for every directed pair X->Y, X's Sent toward Y
// equals Y's Queued and Handled from X: every message sent has been
// received AND absorbed into the destination subsystem, so all
// channels are provably empty.
type counters map[string]peerCount

// appendFrame encodes a ctlHello, request or reply. A reply's Err is
// clipped to maxReason, so the frame is always one the peer can read.
func appendFrame(dst []byte, f any) []byte {
	switch f := f.(type) {
	case ctlHello:
		dst = wire.AppendString(append(dst, ctlVersion, tagHello), f.From)
		return wire.AppendString(dst, f.DataAddr)
	case request:
		dst = binary.AppendUvarint(append(dst, ctlVersion, tagRequest), f.ID)
		dst = binary.AppendVarint(append(dst, byte(f.Op)), int64(f.Until))
		return appendImage(appendMove(dst, f.Move), f.Image)
	case reply:
		dst = binary.AppendUvarint(append(dst, ctlVersion, tagReply), f.ID)
		reason := f.Err
		if len(reason) > maxReason {
			reason = reason[:maxReason]
		}
		dst = wire.AppendString(append(dst, byte(f.Op)), reason)
		return appendImage(appendCounters(dst, f.Counters), f.Image)
	}
	panic(fmt.Sprintf("mesh: %T is not a control frame", f))
}

func appendMove(dst []byte, mv move) []byte {
	dst = binary.AppendUvarint(dst, mv.Epoch)
	dst = wire.AppendString(dst, mv.Comp)
	dst = wire.AppendString(dst, mv.From)
	return wire.AppendString(dst, mv.To)
}

func appendImage(dst []byte, img image) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(img.Bytes)))
	return binary.AppendUvarint(append(dst, img.Bytes...), img.Digest)
}

func appendCounters(dst []byte, c counters) []byte {
	peers := make([]string, 0, len(c))
	for p := range c {
		peers = append(peers, p)
	}
	slices.Sort(peers)
	dst = binary.AppendUvarint(dst, uint64(len(peers)))
	for _, p := range peers {
		dst = wire.AppendString(dst, p)
		dst = binary.AppendVarint(dst, c[p].Sent)
		dst = binary.AppendVarint(dst, c[p].Queued)
		dst = binary.AppendVarint(dst, c[p].Handled)
	}
	return dst
}

// decodeFrame parses one control frame into a ctlHello, a request or a
// reply.
func decodeFrame(kind byte, payload []byte) (any, error) {
	f := wire.NewFields(kind, wire.FrameMesh, payload)
	if v := f.Byte(); v != ctlVersion {
		f.Failf("control version %d, this member speaks %d", v, ctlVersion)
	}
	var out any
	switch tag := f.Byte(); tag {
	case tagHello:
		out = ctlHello{From: f.String(maxName), DataAddr: f.String(maxName)}
	case tagRequest:
		out = request{ID: f.Uvarint(), Op: readOp(&f), Until: vtime.Time(f.Varint()), Move: readMove(&f), Image: readImage(&f)}
	case tagReply:
		out = reply{ID: f.Uvarint(), Op: readOp(&f), Err: f.String(maxReason), Counters: readCounters(&f), Image: readImage(&f)}
	default:
		f.Failf("control tag %d", tag)
	}
	if err := f.Done(); err != nil {
		return nil, fmt.Errorf("mesh: bad control frame: %w", err)
	}
	return out, nil
}

func readOp(f *wire.Fields) op {
	o := op(f.Byte())
	if o == 0 || o > opFinish {
		f.Failf("unknown %s", o)
	}
	return o
}

func readMove(f *wire.Fields) move {
	return move{Epoch: f.Uvarint(), Comp: f.String(maxName), From: f.String(maxName), To: f.String(maxName)}
}

func readImage(f *wire.Fields) image {
	var img image
	if b := f.String(maxImage); b != "" {
		img.Bytes = []byte(b)
	}
	img.Digest = f.Uvarint()
	return img
}

func readCounters(f *wire.Fields) counters {
	n := f.Len(maxMembers, minCount)
	if n == 0 {
		return nil
	}
	c := make(counters, n)
	last := ""
	for i := 0; i < n; i++ {
		p := f.String(maxName)
		if i > 0 && p <= last {
			f.Failf("counter peer %q after %q", p, last)
		}
		last = p
		c[p] = peerCount{Sent: f.Varint(), Queued: f.Varint(), Handled: f.Varint()}
	}
	return c
}
