package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Session envelope framing. Every envelope is
//
//	| 4-byte BE length of the rest | 1-byte type | body | 4-byte CRC32 |
//
// with the CRC computed over type and body. The leading length prefix
// follows the same convention as the wire package, which is what lets
// faultnet segment (and mangle) session traffic generically; the
// trailing CRC is what turns a mangled frame into a detected fault
// instead of silent corruption.
const (
	typeHello     byte = 1 // client -> server, first frame on every raw conn
	typeHelloAck  byte = 2 // server -> client, second frame
	typeData      byte = 3 // seq(8) ack(8) payload
	typeHeartbeat byte = 4 // ack(8)
)

// Hello/HelloAck status codes.
const (
	statusOK     byte = 0 // resume (or fresh session) accepted
	statusRewind byte = 1 // retention miss: both sides rewind to the tag
	statusReject byte = 2 // unknown session or no common checkpoint
)

// maxChunk bounds one data envelope's payload; Session.Write splits
// larger writes. maxEnvelope bounds what the reader will accept.
const (
	maxChunk    = 32 << 10
	maxEnvelope = maxChunk + 64
)

// envelope header/trailer overhead: length prefix + type + CRC.
const (
	envHeader  = 5
	envTrailer = 4
)

// appendEnvelope frames type+body into dst.
func appendEnvelope(dst []byte, typ byte, body []byte) []byte {
	n := 1 + len(body) + envTrailer
	var hdr [envHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	dst = append(dst, hdr[:]...)
	dst = append(dst, body...)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	var tail [envTrailer]byte
	binary.BigEndian.PutUint32(tail[:], crc.Sum32())
	return append(dst, tail[:]...)
}

// encodeData builds one data envelope.
func encodeData(seq, ack uint64, payload []byte) []byte {
	body := make([]byte, 16, 16+len(payload))
	binary.BigEndian.PutUint64(body[0:8], seq)
	binary.BigEndian.PutUint64(body[8:16], ack)
	body = append(body, payload...)
	return appendEnvelope(nil, typeData, body)
}

// encodeHeartbeat builds one heartbeat envelope.
func encodeHeartbeat(ack uint64) []byte {
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], ack)
	return appendEnvelope(nil, typeHeartbeat, body[:])
}

// hello is the resume handshake sent by the dialing side on every new
// raw connection.
type hello struct {
	SessionID uint64 // 0 = new session
	RecvNext  uint64 // next data seq the sender expects to receive
	Lowest    uint64 // lowest data seq the sender can still replay
	Tag       string // latest completed checkpoint tag, for rewind
}

// helloAck answers a hello.
type helloAck struct {
	Status    byte
	SessionID uint64
	RecvNext  uint64 // next data seq the responder expects to receive
	Tag       string // rewind tag both sides restore, when Status is statusRewind
}

func encodeHello(h hello) []byte {
	body := make([]byte, 26, 26+len(h.Tag))
	binary.BigEndian.PutUint64(body[0:8], h.SessionID)
	binary.BigEndian.PutUint64(body[8:16], h.RecvNext)
	binary.BigEndian.PutUint64(body[16:24], h.Lowest)
	binary.BigEndian.PutUint16(body[24:26], uint16(len(h.Tag)))
	body = append(body, h.Tag...)
	return appendEnvelope(nil, typeHello, body)
}

func decodeHello(body []byte) (hello, error) {
	if len(body) < 26 {
		return hello{}, fmt.Errorf("resilience: short hello (%d bytes)", len(body))
	}
	h := hello{
		SessionID: binary.BigEndian.Uint64(body[0:8]),
		RecvNext:  binary.BigEndian.Uint64(body[8:16]),
		Lowest:    binary.BigEndian.Uint64(body[16:24]),
	}
	tagLen := int(binary.BigEndian.Uint16(body[24:26]))
	if len(body) != 26+tagLen {
		return hello{}, fmt.Errorf("resilience: hello tag length mismatch")
	}
	h.Tag = string(body[26:])
	return h, nil
}

func encodeHelloAck(a helloAck) []byte {
	body := make([]byte, 19, 19+len(a.Tag))
	body[0] = a.Status
	binary.BigEndian.PutUint64(body[1:9], a.SessionID)
	binary.BigEndian.PutUint64(body[9:17], a.RecvNext)
	binary.BigEndian.PutUint16(body[17:19], uint16(len(a.Tag)))
	body = append(body, a.Tag...)
	return appendEnvelope(nil, typeHelloAck, body)
}

func decodeHelloAck(body []byte) (helloAck, error) {
	if len(body) < 19 {
		return helloAck{}, fmt.Errorf("resilience: short hello ack (%d bytes)", len(body))
	}
	a := helloAck{
		Status:    body[0],
		SessionID: binary.BigEndian.Uint64(body[1:9]),
		RecvNext:  binary.BigEndian.Uint64(body[9:17]),
	}
	tagLen := int(binary.BigEndian.Uint16(body[17:19]))
	if len(body) != 19+tagLen {
		return helloAck{}, fmt.Errorf("resilience: hello ack tag length mismatch")
	}
	a.Tag = string(body[19:])
	return a, nil
}

// errCorrupt marks a readEnvelope error as corruption — bytes arrived
// and were wrong — as opposed to transport loss (the underlying read
// error, returned as is). Sessions count the first kind in CrcKills.
var errCorrupt = errors.New("resilience: corrupt envelope")

// readEnvelope reads and validates one envelope, returning its type
// and body. Any framing or checksum anomaly is an error: the caller
// kills the connection epoch and lets the resume protocol resync.
func readEnvelope(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [envHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1+envTrailer || n > maxEnvelope {
		return 0, nil, fmt.Errorf("%w: length %d out of range", errCorrupt, n)
	}
	typ = hdr[4]
	rest := make([]byte, n-1)
	if _, err := io.ReadFull(r, rest); err != nil {
		return 0, nil, err
	}
	body = rest[:len(rest)-envTrailer]
	wantCRC := binary.BigEndian.Uint32(rest[len(rest)-envTrailer:])
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(body)
	if crc.Sum32() != wantCRC {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (type %d, %d bytes)", errCorrupt, typ, len(body))
	}
	return typ, body, nil
}
