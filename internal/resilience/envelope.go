package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// A session envelope is a wire frame of one of the session kinds whose
// payload ends in a CRC32 (IEEE) over the frame's kind and body:
//
//	| u32 payload length | u8 kind | body | u32 CRC32(kind, body) |
//
// The length counts the body and the CRC, as a wire frame's counts its
// payload, so the envelope is read by wire.Conn's bounded reader and
// segmented by faultnet like every other frame; the CRC is what turns a
// mangled frame into a detected fault instead of silent corruption.
// Every integer is a uvarint, the tag a uvarint length and its bytes.
// The bodies, by kind:
//
//	FrameSessionHello, FrameSessionHelloAck  status, session id, recv-next, lowest, tag
//	FrameSessionData                         seq, ack, chunk (the rest of the body)
//	FrameSessionHeartbeat                    ack

// Hello/HelloAck status codes.
const (
	statusOK     = 0 // resume (or fresh session) accepted
	statusRewind = 1 // retention miss: both sides rewind to the tag
	statusReject = 2 // unknown session or no common checkpoint
)

// maxChunk bounds one data envelope's chunk; Session.Write splits
// larger writes. maxEnvelope bounds the payload the reader accepts: a
// full chunk with its two uvarints and its CRC. maxTag bounds a
// checkpoint tag, "snap:" and a subsystem name (the node handshake caps
// names at 1 KB) and a sequence number.
const (
	maxChunk    = 32 << 10
	maxEnvelope = maxChunk + 64
	maxTag      = 2 << 10
	crcLen      = 4
)

// handshake is a hello, which the dialing side sends first on every new
// raw connection, or the hello ack that answers it: one layout, two
// kinds.
type handshake struct {
	Status    uint64 // the ack's verdict; statusOK in a hello
	SessionID uint64 // 0 in a hello asks for a new session
	RecvNext  uint64 // next data seq the sender expects to receive
	Lowest    uint64 // lowest data seq the sender can still replay
	Tag       string // a hello's latest checkpoint tag; an ack's rewind tag
}

// begin opens an envelope at the end of dst: header room seal fills.
func begin(dst []byte) []byte { return append(dst, make([]byte, wire.HeaderLen)...) }

// seal closes the envelope dst[start:] begin opened and its body
// followed: it appends the CRC over kind and body and writes the
// header.
func seal(dst []byte, start int, kind byte) []byte {
	dst[start+wire.HeaderLen-1] = kind
	crc := crc32.Update(0, crc32.IEEETable, dst[start+wire.HeaderLen-1:])
	dst = append(dst, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	wire.PutHeader(dst[start:], kind)
	return dst
}

// appendData appends one data envelope to dst.
func appendData(dst []byte, seq, ack uint64, chunk []byte) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(begin(dst), seq)
	dst = binary.AppendUvarint(dst, ack)
	dst = append(dst, chunk...)
	return seal(dst, start, wire.FrameSessionData)
}

// appendHeartbeat appends one heartbeat envelope to dst.
func appendHeartbeat(dst []byte, ack uint64) []byte {
	start := len(dst)
	return seal(binary.AppendUvarint(begin(dst), ack), start, wire.FrameSessionHeartbeat)
}

// appendHandshake appends one hello or hello-ack envelope to dst. It
// refuses a tag the peer would refuse to read.
func appendHandshake(dst []byte, kind byte, h handshake) ([]byte, error) {
	if len(h.Tag) > maxTag {
		return dst, fmt.Errorf("resilience: checkpoint tag of %d bytes exceeds its cap of %d", len(h.Tag), maxTag)
	}
	start := len(dst)
	dst = binary.AppendUvarint(begin(dst), h.Status)
	dst = binary.AppendUvarint(dst, h.SessionID)
	dst = binary.AppendUvarint(dst, h.RecvNext)
	dst = binary.AppendUvarint(dst, h.Lowest)
	return seal(wire.AppendString(dst, h.Tag), start, kind), nil
}

// kindCRC[k-FrameSessionHello] is the CRC32 of session kind k's byte:
// the state the checksum over an envelope's kind and body continues
// from, with no slice of the kind to hand crc32 on every envelope.
// They are literals because computing them at init would build
// crc32's 8 KB IEEE tables in every process, sessions or none. A
// wrong one fails the envelope round trips (FuzzEnvelope's seeds cover
// all four kinds).
var kindCRC = [...]uint32{0xa2681b02, 0x3b614ab8, 0x4c667a2e, 0xdcd967bf}

// errCorrupt marks an envelope error as corruption — bytes arrived and
// were wrong — as opposed to transport loss (the underlying read
// error, returned as is). Sessions count the first kind in CrcKills.
var errCorrupt = errors.New("resilience: corrupt envelope")

// errKind is the corruption of a frame that is no session envelope.
var errKind = fmt.Errorf("%w: wrong kind", errCorrupt)

// recvEnvelope reads one frame from an epoch's connection and checks
// it as an envelope, returning its kind and its body without the CRC.
// The body aliases the connection's receive buffer: it is valid until
// the next read. A frame past maxEnvelope, refused before its body is
// read, a frame of a kind that is no session envelope's — a
// pre-envelope peer's arrives as kind 1–4 — refused undecoded, or a
// checksum mismatch is corruption; the caller kills the connection
// epoch and lets the resume protocol resync.
func recvEnvelope(c *wire.Conn) (kind byte, body []byte, err error) {
	kind, payload, err := c.RecvFrame()
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return 0, nil, fmt.Errorf("%w: %w", errCorrupt, err)
	}
	if err != nil {
		return 0, nil, err
	}
	if kind < wire.FrameSessionHello || kind > wire.FrameSessionHeartbeat {
		return 0, nil, fmt.Errorf("%w: frame kind %d is no session envelope", errKind, kind)
	}
	if len(payload) < crcLen {
		return 0, nil, fmt.Errorf("%w: %d-byte payload has no checksum", errCorrupt, len(payload))
	}
	body = payload[:len(payload)-crcLen]
	tail := wire.ReadFields(payload[len(body):])
	if crc32.Update(kindCRC[kind-wire.FrameSessionHello], crc32.IEEETable, body) != tail.U32() {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (kind %d, %d bytes)", errCorrupt, kind, len(body))
	}
	return kind, body, nil
}

// parseHandshake reads the body of a handshake envelope that must be of
// kind want; one of any other kind is refused undecoded.
func parseHandshake(kind, want byte, body []byte) (handshake, error) {
	f := wire.NewFields(kind, want, body)
	h := handshake{Status: f.Uvarint(), SessionID: f.Uvarint(), RecvNext: f.Uvarint(), Lowest: f.Uvarint(), Tag: f.String(maxTag)}
	if h.Status > statusReject {
		f.Failf("resilience: unknown handshake status %d", h.Status)
	}
	if err := f.Done(); err != nil {
		return handshake{}, fmt.Errorf("resilience: handshake: %w", err)
	}
	return h, nil
}

// parseData reads a data body; the chunk aliases it.
func parseData(body []byte) (seq, ack uint64, chunk []byte, err error) {
	f := wire.ReadFields(body)
	seq, ack, chunk = f.Uvarint(), f.Uvarint(), f.Rest()
	return seq, ack, chunk, f.Done()
}

// parseHeartbeat reads a heartbeat body.
func parseHeartbeat(body []byte) (ack uint64, err error) {
	f := wire.ReadFields(body)
	ack = f.Uvarint()
	return ack, f.Done()
}
