// Package proto is Pia's library of standard communication
// protocols, each with several built-in detail levels. A single
// logical action — "move this message to the peer" — has one
// implementation per level:
//
//   - LevelHardware renders the transfer as individual bus cycles
//     (one per byte), the most detailed and most expensive view;
//   - LevelWord passes four-byte words, the paper's "word passage"
//     transfer mode;
//   - LevelPacket passes 1 KB packets, the paper's "packet passage".
//
// Behaviours pick the implementation by consulting their component's
// current runlevel at each transfer — a safe point, since the
// interface state is idle between transfers. That is what lets the
// detail engine (package detail) retarget a running simulation.
package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// Detail levels understood by the library. Components may define
// additional private levels; unknown levels fall back to
// LevelPacket.
const (
	LevelHardware = "hardwareLevel"
	LevelWord     = "wordLevel"
	LevelPacket   = "packetLevel"
)

// Config carries the per-unit costs a transfer charges against the
// sender's local time, modelling the work the real interface does.
type Config struct {
	PerByte   vtime.Duration // hardware level: cost per bus cycle
	PerWord   vtime.Duration // word level: cost per 4-byte word
	PerPacket vtime.Duration // packet level: cost per packet
	PacketLen int            // payload bytes per packet (default 1024)
}

// DefaultConfig matches the paper's experiment: 4-byte words, 1 KB
// packets.
var DefaultConfig = Config{
	PerByte:   400 * vtime.Nanosecond,
	PerWord:   800 * vtime.Nanosecond,
	PerPacket: 20 * vtime.Microsecond,
	PacketLen: 1024,
}

func (c Config) packetLen() int {
	if c.PacketLen <= 0 {
		return 1024
	}
	return c.PacketLen
}

// SendMessage transfers payload over the net attached to port, using
// the implementation selected by level. The transfer is framed so
// that an Assembler on the receiving side can reconstruct it at any
// level: a length header precedes word- and hardware-level streams,
// and packet-level transfers use signal.Frame with a Last marker.
// It returns the number of net drives performed.
//
// Packets are views of payload, not copies: the caller must not modify
// payload after the call, since receivers — and anything that keeps a
// delivered value — may still be reading it. Only the Last packet owns
// its bytes.
func SendMessage(p *core.Proc, port string, payload []byte, level string, cfg Config) int {
	return SendParts(p, port, [][]byte{payload}, level, cfg)
}

// SendParts transfers the concatenation of parts exactly as
// SendMessage transfers it joined — the same drives, values and
// virtual times — without joining it: a word that straddles two parts
// is gathered from both, a packet inside one part is a view of it, and
// only a packet that straddles parts and the Last packet are copies.
// As with SendMessage, the parts must not be modified after the call.
func SendParts(p *core.Proc, port string, parts [][]byte, level string, cfg Config) int {
	total := 0
	for _, b := range parts {
		total += len(b)
	}
	switch level {
	case LevelHardware:
		return sendBytes(p, port, parts, total, cfg)
	case LevelWord:
		return sendWords(p, port, parts, total, cfg)
	default:
		return sendPackets(p, port, parts, total, cfg)
	}
}

// sendBytes renders the transfer as one bus cycle per byte. The cycles
// are boxed in shared chunks, not one allocation each.
func sendBytes(p *core.Proc, port string, parts [][]byte, total int, cfg Config) int {
	p.Send(port, signal.Control{Op: "len", Arg: int64(total)})
	i := 0
	var boxes signal.BusCycleBoxes
	for _, part := range parts {
		for _, b := range part {
			p.Advance(cfg.PerByte)
			p.Send(port, boxes.Box(signal.BusCycle{Addr: uint32(i), Data: signal.Word(b), Write: true}))
			i++
		}
	}
	return 1 + i
}

// sendWords passes individual four-byte words across the net. The
// words are boxed in shared chunks, not one allocation each.
func sendWords(p *core.Proc, port string, parts [][]byte, total int, cfg Config) int {
	p.Send(port, signal.Control{Op: "len", Arg: int64(total)})
	n := 1
	var boxes signal.WordBoxes
	c := cursor{parts: parts}
	for i := 0; i < total; i += 4 {
		var w [4]byte
		c.read(w[:min(4, total-i)])
		p.Advance(cfg.PerWord)
		p.Send(port, boxes.Box(signal.Word(binary.LittleEndian.Uint32(w[:]))))
		n++
	}
	return n
}

// sendPackets sends the data in packets (default 1 KB). The frames are
// boxed in shared chunks, the Last one alone.
func sendPackets(p *core.Proc, port string, parts [][]byte, total int, cfg Config) int {
	if total == 0 {
		p.Advance(cfg.PerPacket)
		p.Send(port, signal.Frame{Seq: 0, Last: true})
		return 1
	}
	plen := cfg.packetLen()
	var boxes signal.FrameBoxes
	c := cursor{parts: parts}
	n := 0
	for off := 0; off < total; off += plen {
		size := min(plen, total-off)
		last := off+size == total
		// A packet inside one part is a view of it, capacity-clipped so
		// a receiver's append cannot reach the next packet. One that
		// straddles parts is gathered into a copy, and so is the Last
		// one: the net keeps its last value (checkpointed with it), and
		// a view there would pin the whole part.
		var chunk []byte
		if !last {
			chunk = c.view(size)
		}
		if chunk == nil {
			chunk = make([]byte, size)
			c.read(chunk)
		}
		p.Advance(cfg.PerPacket)
		p.Send(port, boxes.Box(signal.Frame{Seq: uint32(n), Payload: chunk, Last: last}))
		n++
	}
	return n
}

// cursor reads the concatenation of parts in order. Its callers never
// ask for more bytes than are left.
type cursor struct {
	parts [][]byte
	off   int // into parts[0]
}

// rest returns what is left of the current part, first stepping past
// the parts already read and empty ones.
func (c *cursor) rest() []byte {
	for c.off == len(c.parts[0]) {
		c.parts, c.off = c.parts[1:], 0
	}
	return c.parts[0][c.off:]
}

// view returns the next n > 0 bytes as a capacity-clipped view when
// they lie in one part, and nil, without moving, when they do not.
func (c *cursor) view(n int) []byte {
	if r := c.rest(); len(r) >= n {
		c.off += n
		return r[:n:n]
	}
	return nil
}

// read fills dst with the next len(dst) bytes, gathered from as many
// parts as they span.
func (c *cursor) read(dst []byte) {
	for len(dst) > 0 {
		k := copy(dst, c.rest())
		c.off += k
		dst = dst[k:]
	}
}

// Assembler reconstructs messages from transfers at any detail
// level. Feed it every message received on the data port; when a
// complete payload is available it is returned with done=true.
type Assembler struct {
	// A word/byte stream accumulates in buf, sized from its header and
	// handed out as the result when the stream completes.
	buf      []byte
	expected int64 // -1: idle, >=0: word/byte stream in progress

	// A frame transfer says nothing about its length until Last, so
	// the payloads are kept as handed over (size bytes in all) and
	// handed out, or joined once, when Last arrives.
	parts   [][]byte
	size    int
	inFrame bool

	// Messages counts completed payloads (diagnostics).
	Messages int64
}

const (
	// maxPresize bounds what a length header may make an Assembler
	// allocate ahead of the data.
	maxPresize = 1 << 20

	// maxMessage bounds what a transfer in progress may hold, eight
	// times the largest page any workload moves. Past it Feed drops
	// the transfer and returns an error, so a peer that never sets
	// Frame.Last, or whose header promises 2^40 bytes and then streams
	// them, cannot grow memory without limit. A kept frame is charged
	// its slice header too, so empty and one-byte frames count.
	maxMessage  = 16 << 20
	sliceHeader = 24
)

// NewAssembler creates an idle assembler.
func NewAssembler() *Assembler { return &Assembler{expected: -1} }

// completion says what, if anything, a fed value completed.
type completion uint8

const (
	pending completion = iota // nothing yet
	stream                    // a word/byte stream, in buf
	frames                    // a frame transfer, in parts
	bare                      // a bare signal.Packet, the value itself
)

// Feed consumes one received value. It returns the completed payload
// once the transfer finishes, as one slice the caller owns: a frame
// transfer is FeedParts' parts joined, and a stream is the buffer its
// header sized.
func (a *Assembler) Feed(v any) ([]byte, bool, error) {
	c, err := a.feed(v)
	if c == pending {
		return nil, false, err
	}
	return a.joined(c, v), true, nil
}

// joined hands out the message v completed as one slice.
func (a *Assembler) joined(c completion, v any) []byte {
	var out []byte
	switch c {
	case stream:
		out = a.takeBuf()
	case frames:
		// bytes.Join allocates the result without zeroing it first.
		out = bytes.Join(a.parts, nil)
	case bare:
		out = bytes.Clone(v.(signal.Packet))
	}
	if out == nil {
		out = []byte{} // an empty transfer is still a message
	}
	a.complete(c)
	return out
}

// FeedParts consumes one received value like Feed, but hands a
// completed frame transfer out as the payloads its frames carried,
// unjoined and in order, for a forwarder or reader that never needs
// them contiguous. The assembler gives up its list of them, and the
// bytes are the sender's, to be read and not written. A bare packet is
// likewise the sender's bytes; a stream is one part the caller owns.
func (a *Assembler) FeedParts(v any) ([][]byte, bool, error) {
	c, err := a.feed(v)
	if c == pending {
		return nil, false, err
	}
	return a.parted(c, v), true, nil
}

// parted hands out the message v completed as parts.
func (a *Assembler) parted(c completion, v any) [][]byte {
	var parts [][]byte
	switch c {
	case stream:
		parts = [][]byte{a.takeBuf()}
	case frames:
		parts, a.parts = a.parts, nil
	case bare:
		parts = [][]byte{v.(signal.Packet)}
	}
	a.complete(c)
	return parts
}

// feed advances the transfer by one value and reports what, if
// anything, it completed; joined and parted take the result.
func (a *Assembler) feed(v any) (completion, error) {
	switch x := v.(type) {
	case signal.Control:
		if x.Op != "len" {
			return pending, nil // other control traffic is not ours
		}
		if a.expected >= 0 || a.inFrame {
			return pending, fmt.Errorf("proto: length header inside a transfer")
		}
		if x.Arg < 0 {
			return pending, fmt.Errorf("proto: negative length header %d", x.Arg)
		}
		a.expected = x.Arg
		a.buf = a.buf[:0]
		// The header says how much is coming: size buf once instead of
		// re-copying it through append's doublings. Past maxPresize a
		// (hostile or buggy) header is not believed and append grows
		// buf as the bytes actually arrive.
		if n := min(a.expected, maxPresize); int64(cap(a.buf)) < n {
			a.buf = make([]byte, 0, n)
		}
		if a.expected == 0 {
			return stream, nil
		}
		return pending, nil
	case signal.BusCycle:
		if a.expected < 0 {
			return pending, fmt.Errorf("proto: bus cycle without length header")
		}
		if !x.Write {
			return pending, nil
		}
		if len(a.buf) >= maxMessage {
			return pending, a.overflow()
		}
		a.buf = append(a.buf, byte(x.Data))
		if int64(len(a.buf)) >= a.expected {
			return stream, nil
		}
		return pending, nil
	case signal.Word:
		if a.expected < 0 {
			return pending, fmt.Errorf("proto: word without length header")
		}
		if len(a.buf) >= maxMessage {
			return pending, a.overflow()
		}
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], uint32(x))
		need := a.expected - int64(len(a.buf))
		if need > 4 {
			need = 4
		}
		a.buf = append(a.buf, w[:need]...)
		if int64(len(a.buf)) >= a.expected {
			return stream, nil
		}
		return pending, nil
	case signal.Frame:
		if a.expected >= 0 {
			return pending, fmt.Errorf("proto: frame inside a word/byte transfer")
		}
		a.inFrame = true
		a.parts = append(a.parts, x.Payload)
		a.size += len(x.Payload)
		if a.size+len(a.parts)*sliceHeader > maxMessage {
			return pending, a.overflow()
		}
		if x.Last {
			return frames, nil
		}
		return pending, nil
	case signal.Packet:
		// A bare packet is a complete message, and leaves any transfer
		// in progress as it was.
		return bare, nil
	default:
		return pending, nil
	}
}

// takeBuf hands a completed stream's buf out, capacity-clipped, and
// lets go of it: the next transfer sizes a new one from its header, so
// the result is never written again and the stream costs one
// allocation, not a second one and a copy.
func (a *Assembler) takeBuf() []byte {
	out := a.buf[:len(a.buf):len(a.buf)]
	a.buf = nil
	return out
}

// complete counts a completed message and readies the assembler for the
// next transfer; a bare packet interrupted none.
func (a *Assembler) complete(c completion) {
	if c != bare {
		a.Reset()
	}
	a.Messages++
}

// overflow drops a transfer that has reached maxMessage, with the
// storage it grew, and reports it.
func (a *Assembler) overflow() error {
	a.Reset()
	a.buf, a.parts = nil, nil
	return fmt.Errorf("proto: transfer in progress exceeds %d bytes", maxMessage)
}

// Reset drops any partial transfer (used after a rollback when the
// assembler is not part of saved state). The kept payloads are let go,
// not just forgotten, so a finished page is not pinned by the list.
func (a *Assembler) Reset() {
	a.buf = a.buf[:0]
	clear(a.parts)
	a.parts = a.parts[:0]
	a.size = 0
	a.expected = -1
	a.inFrame = false
}

// ReceiveMessage blocks on the port until one complete message has
// been assembled, at whatever detail level the sender used, and returns
// it as Feed does: one slice. It returns ok=false if the simulation
// ends first.
func ReceiveMessage(p *core.Proc, port string, a *Assembler) ([]byte, bool, error) {
	c, v, err := receive(p, port, a)
	if c == pending {
		return nil, false, err
	}
	return a.joined(c, v), true, nil
}

// ReceiveParts is ReceiveMessage for a consumer that never needs the
// message contiguous: it returns it as FeedParts does, a frame transfer
// as the payloads its frames carried, unjoined, and a word or hardware
// stream as one part, the buffer its header sized.
func ReceiveParts(p *core.Proc, port string, a *Assembler) ([][]byte, bool, error) {
	c, v, err := receive(p, port, a)
	if c == pending {
		return nil, false, err
	}
	return a.parted(c, v), true, nil
}

// receive feeds what arrives on the port to a until a value completes a
// message, and returns what it completed and that value. It returns
// pending when the simulation ends first, or with feed's error.
func receive(p *core.Proc, port string, a *Assembler) (completion, any, error) {
	for {
		m, ok := p.Recv(port)
		if !ok {
			return pending, nil, nil
		}
		if c, err := a.feed(m.Value); c != pending || err != nil {
			return c, m.Value, err
		}
	}
}
