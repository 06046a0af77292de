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
	switch level {
	case LevelHardware:
		return sendBytes(p, port, payload, cfg)
	case LevelWord:
		return sendWords(p, port, payload, cfg)
	default:
		return sendPackets(p, port, payload, cfg)
	}
}

// sendBytes renders the transfer as one bus cycle per byte.
func sendBytes(p *core.Proc, port string, payload []byte, cfg Config) int {
	p.Send(port, signal.Control{Op: "len", Arg: int64(len(payload))})
	n := 1
	for i, b := range payload {
		p.Advance(cfg.PerByte)
		p.Send(port, signal.BusCycle{Addr: uint32(i), Data: signal.Word(b), Write: true})
		n++
	}
	return n
}

// sendWords passes individual four-byte words across the net. The
// words are boxed in shared chunks, not one allocation each.
func sendWords(p *core.Proc, port string, payload []byte, cfg Config) int {
	p.Send(port, signal.Control{Op: "len", Arg: int64(len(payload))})
	n := 1
	var boxes signal.WordBoxes
	for i := 0; i < len(payload); i += 4 {
		var w [4]byte
		copy(w[:], payload[i:])
		p.Advance(cfg.PerWord)
		p.Send(port, boxes.Box(signal.Word(binary.LittleEndian.Uint32(w[:]))))
		n++
	}
	return n
}

// sendPackets sends the data in packets (default 1 KB).
func sendPackets(p *core.Proc, port string, payload []byte, cfg Config) int {
	plen := cfg.packetLen()
	n := 0
	if len(payload) == 0 {
		p.Advance(cfg.PerPacket)
		p.Send(port, signal.Frame{Seq: 0, Last: true})
		return 1
	}
	seq := uint32(0)
	for off := 0; off < len(payload); off += plen {
		end := min(off+plen, len(payload))
		last := end == len(payload)
		// A packet is a view of payload, capacity-clipped so a
		// receiver's append cannot reach the next packet. The Last one
		// is copied: the net keeps its last value (checkpointed with
		// it), and a view there would pin the whole payload.
		chunk := payload[off:end:end]
		if last {
			chunk = append(make([]byte, 0, len(chunk)), chunk...)
		}
		p.Advance(cfg.PerPacket)
		p.Send(port, signal.Frame{Seq: seq, Payload: chunk, Last: last})
		seq++
		n++
	}
	return n
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
	// joined once, into the result, when Last arrives.
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

// Feed consumes one received value. It returns the completed payload
// once the transfer finishes.
func (a *Assembler) Feed(v any) ([]byte, bool, error) {
	switch x := v.(type) {
	case signal.Control:
		if x.Op != "len" {
			return nil, false, nil // other control traffic is not ours
		}
		if a.expected >= 0 || a.inFrame {
			return nil, false, fmt.Errorf("proto: length header inside a transfer")
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
			return a.finish()
		}
		return nil, false, nil
	case signal.BusCycle:
		if a.expected < 0 {
			return nil, false, fmt.Errorf("proto: bus cycle without length header")
		}
		if !x.Write {
			return nil, false, nil
		}
		if len(a.buf) >= maxMessage {
			return nil, false, a.overflow()
		}
		a.buf = append(a.buf, byte(x.Data))
		if int64(len(a.buf)) >= a.expected {
			return a.finish()
		}
		return nil, false, nil
	case signal.Word:
		if a.expected < 0 {
			return nil, false, fmt.Errorf("proto: word without length header")
		}
		if len(a.buf) >= maxMessage {
			return nil, false, a.overflow()
		}
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], uint32(x))
		need := a.expected - int64(len(a.buf))
		if need > 4 {
			need = 4
		}
		a.buf = append(a.buf, w[:need]...)
		if int64(len(a.buf)) >= a.expected {
			return a.finish()
		}
		return nil, false, nil
	case signal.Frame:
		if a.expected >= 0 {
			return nil, false, fmt.Errorf("proto: frame inside a word/byte transfer")
		}
		a.inFrame = true
		a.parts = append(a.parts, x.Payload)
		a.size += len(x.Payload)
		if a.size+len(a.parts)*sliceHeader > maxMessage {
			return nil, false, a.overflow()
		}
		if x.Last {
			return a.finish()
		}
		return nil, false, nil
	case signal.Packet:
		// A bare packet is a complete message.
		a.Messages++
		out := make([]byte, len(x))
		copy(out, x)
		return out, true, nil
	default:
		return nil, false, nil
	}
}

// finish hands the completed transfer out as one slice the caller owns,
// never nil. A transfer is either a word/byte stream in buf or frames
// in parts. buf itself is handed out, capacity-clipped, and the
// assembler lets go of it: the next transfer sizes a new one from its
// header, so the result is never written again and the stream costs
// one allocation, not a second one and a copy. Frames are joined by
// bytes.Join, which allocates the result without zeroing it first.
func (a *Assembler) finish() ([]byte, bool, error) {
	var out []byte
	if a.inFrame {
		out = bytes.Join(a.parts, nil)
	} else {
		out = a.buf[:len(a.buf):len(a.buf)]
		a.buf = nil
	}
	if out == nil {
		out = []byte{} // an empty transfer is still a message
	}
	a.Reset()
	a.Messages++
	return out, true, nil
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
// been assembled, at whatever detail level the sender used. It
// returns ok=false if the simulation ends first.
func ReceiveMessage(p *core.Proc, port string, a *Assembler) ([]byte, bool, error) {
	for {
		m, ok := p.Recv(port)
		if !ok {
			return nil, false, nil
		}
		payload, done, err := a.Feed(m.Value)
		if err != nil {
			return nil, false, err
		}
		if done {
			return payload, true, nil
		}
	}
}

// Drives estimates the number of net drives a payload costs at a
// level — the quantity the remote experiments count, since each
// drive becomes one channel message.
func Drives(payloadLen int, level string, cfg Config) int {
	switch level {
	case LevelHardware:
		return 1 + payloadLen
	case LevelWord:
		return 1 + (payloadLen+3)/4
	default:
		n := (payloadLen + cfg.packetLen() - 1) / cfg.packetLen()
		if n == 0 {
			n = 1
		}
		return n
	}
}
