package node

import (
	"encoding/binary"
	"fmt"

	"repro/internal/channel"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// The node handshake. A dialing node opens every data connection with
// one hello frame; the accepting node answers with one helloAck frame,
// and from then on both sides speak only batch frames. Both are frames
// of kind wire.FrameHello, laid out by hand:
//
//	hello     u8 helloVersion, u8 tagHello,
//	          string FromNode, string FromSub, string ToSub,
//	          u8 Policy, varint Latency, varint BytesPerSecond,
//	          varint PerMessage
//	helloAck  u8 helloVersion, u8 tagAccept
//	          u8 helloVersion, u8 tagRefuse, string Error
//
// A string is a uvarint length and its bytes, a name at most maxName of
// them and a refusal's reason at most maxReason. The policy byte must
// name a channel.Policy; the link model's three fields are signed
// varints, checked by the endpoint they configure. An unknown frame
// kind, version or tag, a short body or trailing bytes is a protocol
// error: the acceptor refuses with the reason and closes the
// connection, the dialer's Connect fails naming it.
const (
	helloVersion byte = 1

	tagHello  byte = 1
	tagAccept byte = 2
	tagRefuse byte = 3

	maxName   = 1 << 10
	maxReason = 4 << 10
)

// hello opens a channel: the dialing node announces which hosted
// subsystem it wants to bind to which remote subsystem.
type hello struct {
	FromNode string
	FromSub  string
	ToSub    string
	Policy   channel.Policy
	Link     channel.LinkModel
}

// helloAck confirms or rejects the binding.
type helloAck struct {
	OK    bool
	Error string
}

func appendHello(dst []byte, h hello) []byte {
	dst = append(dst, helloVersion, tagHello)
	dst = wire.AppendString(dst, h.FromNode)
	dst = wire.AppendString(dst, h.FromSub)
	dst = wire.AppendString(dst, h.ToSub)
	dst = append(dst, byte(h.Policy))
	dst = binary.AppendVarint(dst, int64(h.Link.Latency))
	dst = binary.AppendVarint(dst, h.Link.BytesPerSecond)
	return binary.AppendVarint(dst, int64(h.Link.PerMessage))
}

// appendHelloAck encodes a, clipping a refusal's reason to maxReason so
// the ack is always one the dialer can read.
func appendHelloAck(dst []byte, a helloAck) []byte {
	if a.OK {
		return append(dst, helloVersion, tagAccept)
	}
	reason := a.Error
	if len(reason) > maxReason {
		reason = reason[:maxReason]
	}
	return wire.AppendString(append(dst, helloVersion, tagRefuse), reason)
}

// openHandshake checks what every handshake frame starts with — its
// kind and version — and returns the fields after them, starting at
// the tag.
func openHandshake(kind byte, payload []byte) wire.Fields {
	f := wire.NewFields(kind, wire.FrameHello, payload)
	if v := f.Byte(); v != helloVersion {
		f.Failf("handshake version %d, this node speaks %d", v, helloVersion)
	}
	return f
}

// decodeHello parses the first frame of an accepted connection.
func decodeHello(kind byte, payload []byte) (hello, error) {
	f := openHandshake(kind, payload)
	if tag := f.Byte(); tag != tagHello {
		f.Failf("handshake tag %d where a hello belongs", tag)
	}
	h := hello{
		FromNode: f.String(maxName),
		FromSub:  f.String(maxName),
		ToSub:    f.String(maxName),
	}
	if h.Policy = channel.Policy(f.Byte()); h.Policy > channel.Optimistic {
		f.Failf("unknown channel policy %d", h.Policy)
	}
	h.Link.Latency = vtime.Duration(f.Varint())
	h.Link.BytesPerSecond = f.Varint()
	h.Link.PerMessage = vtime.Duration(f.Varint())
	if err := f.Done(); err != nil {
		return hello{}, fmt.Errorf("bad hello: %w", err)
	}
	return h, nil
}

// decodeHelloAck parses the acceptor's answer to a hello.
func decodeHelloAck(kind byte, payload []byte) (helloAck, error) {
	f := openHandshake(kind, payload)
	var a helloAck
	switch tag := f.Byte(); tag {
	case tagAccept:
		a.OK = true
	case tagRefuse:
		a.Error = f.String(maxReason)
	default:
		f.Failf("handshake tag %d where a helloAck belongs", tag)
	}
	if err := f.Done(); err != nil {
		return helloAck{}, fmt.Errorf("bad helloAck: %w", err)
	}
	return a, nil
}
