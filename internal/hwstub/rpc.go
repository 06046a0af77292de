package hwstub

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vtime"
	"repro/internal/wire"
)

// The hardware-server RPC: one request frame, one response frame, both
// of kind wire.FrameHW and laid out by hand. A request is an op tag —
// one per Device method — and the op's arguments:
//
//	opSetTime   varint Time
//	opReadTime  -
//	opRunFor    varint Dur
//	opStall     -
//	opPending   -
//	opWrite     u32 Addr, u32 Val
//	opRead      u32 Addr
//
// A response echoes the op tag, then carries the device's error (a
// string: uvarint length and bytes, empty for none, at most maxErr) and
// the op's results:
//
//	opReadTime          varint Time
//	opRead              u32 Val
//	opRunFor/opPending  uvarint n (at most maxIRQs), n x
//	                    (varint Line, varint At, u32 Data)
//
// and nothing for the other ops. An unknown kind or tag, a response to
// another op, a short body or trailing bytes is a protocol error: it
// closes the connection — the server keeps serving others — and the
// caller's error names it.
const (
	opSetTime  byte = 1
	opReadTime byte = 2
	opRunFor   byte = 3
	opStall    byte = 4
	opPending  byte = 5
	opWrite    byte = 6
	opRead     byte = 7

	maxErr  = 4 << 10
	maxIRQs = 1 << 16
	// minIRQ is the fewest bytes an interrupt takes: two one-byte
	// varints and its data word.
	minIRQ = 6
)

type hwReq struct {
	Op   byte
	Time vtime.Time
	Dur  vtime.Duration
	Addr uint32
	Val  uint32
}

type hwResp struct {
	Op   byte
	Err  string
	Time vtime.Time
	Val  uint32
	IRQs []Interrupt
}

func appendReq(dst []byte, q hwReq) []byte {
	dst = append(dst, q.Op)
	switch q.Op {
	case opSetTime:
		dst = binary.AppendVarint(dst, int64(q.Time))
	case opRunFor:
		dst = binary.AppendVarint(dst, int64(q.Dur))
	case opWrite:
		dst = binary.BigEndian.AppendUint32(dst, q.Addr)
		dst = binary.BigEndian.AppendUint32(dst, q.Val)
	case opRead:
		dst = binary.BigEndian.AppendUint32(dst, q.Addr)
	}
	return dst
}

func decodeReq(kind byte, payload []byte) (hwReq, error) {
	f := wire.NewFields(kind, wire.FrameHW, payload)
	q := hwReq{Op: f.Byte()}
	switch q.Op {
	case opSetTime:
		q.Time = vtime.Time(f.Varint())
	case opRunFor:
		q.Dur = vtime.Duration(f.Varint())
	case opWrite:
		q.Addr = f.U32()
		q.Val = f.U32()
	case opRead:
		q.Addr = f.U32()
	case opReadTime, opStall, opPending:
	default:
		f.Failf("unknown op %d", q.Op)
	}
	if err := f.Done(); err != nil {
		return hwReq{}, fmt.Errorf("hwstub: bad request: %w", err)
	}
	return q, nil
}

// appendResp encodes r, clipping the device's error to maxErr so the
// response is always one the caller can read.
func appendResp(dst []byte, r hwResp) []byte {
	msg := r.Err
	if len(msg) > maxErr {
		msg = msg[:maxErr]
	}
	dst = wire.AppendString(append(dst, r.Op), msg)
	switch r.Op {
	case opReadTime:
		dst = binary.AppendVarint(dst, int64(r.Time))
	case opRead:
		dst = binary.BigEndian.AppendUint32(dst, r.Val)
	case opRunFor, opPending:
		dst = binary.AppendUvarint(dst, uint64(len(r.IRQs)))
		for _, q := range r.IRQs {
			dst = binary.AppendVarint(dst, int64(q.Line))
			dst = binary.AppendVarint(dst, int64(q.At))
			dst = binary.BigEndian.AppendUint32(dst, q.Data)
		}
	}
	return dst
}

// decodeResp parses the response to a request of op want.
func decodeResp(kind byte, payload []byte, want byte) (hwResp, error) {
	f := wire.NewFields(kind, wire.FrameHW, payload)
	r := hwResp{Op: f.Byte()}
	if r.Op != want {
		f.Failf("response to op %d where op %d was asked", r.Op, want)
	}
	r.Err = f.String(maxErr)
	switch r.Op {
	case opReadTime:
		r.Time = vtime.Time(f.Varint())
	case opRead:
		r.Val = f.U32()
	case opRunFor, opPending:
		if n := f.Len(maxIRQs, minIRQ); n > 0 {
			r.IRQs = make([]Interrupt, n)
			for i := range r.IRQs {
				q := &r.IRQs[i]
				q.Line = int(f.Varint())
				q.At = vtime.Time(f.Varint())
				q.Data = f.U32()
			}
		}
	}
	if err := f.Done(); err != nil {
		return hwResp{}, fmt.Errorf("hwstub: bad response: %w", err)
	}
	return r, nil
}
