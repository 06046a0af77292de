package channel

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/signal"
	"repro/internal/vtime"
)

// Binary batch format.
//
// A batch frame payload (wire.FrameBatch) is
//
//	uvarint count
//	count x entry
//
// and each entry is
//
//	u8      encoding (encBinary | encGob)
//	uvarint length
//	length  bytes
//
// An encBinary entry is the hand-rolled codec below — it covers the
// hot message kinds (data drives carrying signal values, safe-time
// asks and grants) plus marks, restores and closes. Any message the
// fast path cannot express — in practice a data message whose Value
// is not a signal type — is carried as an encGob entry: the whole
// Message gob-encoded, self-describing, exactly as the pre-batch
// protocol framed every message. Entries of both encodings interleave
// freely inside one batch, so enabling the fast path never constrains
// what a channel may carry.
//
// The binary message layout is
//
//	u8      Kind
//	uvarint Seq
//	uvarint Ack
//	string  From            (uvarint length + bytes)
//	kind-specific fields:
//	  KindData:          string Net, string Source, uvarint Time, value
//	  KindSafeTimeReq:   uvarint Ask
//	  KindSafeTimeGrant: uvarint Grant
//	  KindMark/Restore:  string Tag
//	  KindClose:         (nothing)
//
// and values are tagged with one byte:
//
//	0 nil, 1 Level, 2 Word, 3 Byte, 4 Packet, 5 Frame, 6 BusCycle,
//	7 Control, 8 IRQ, 9 int (the common test/helper payload)
//
// Times are non-negative int64 ticks (Infinity = MaxInt64), encoded
// as uvarint.

const (
	encBinary byte = 0
	encGob    byte = 1
)

const (
	valNil      byte = 0
	valLevel    byte = 1
	valWord     byte = 2
	valByte     byte = 3
	valPacket   byte = 4
	valFrame    byte = 5
	valBusCycle byte = 6
	valControl  byte = 7
	valIRQ      byte = 8
	valInt      byte = 9
)

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendTime(dst []byte, t vtime.Time) []byte {
	return binary.AppendUvarint(dst, uint64(t))
}

// appendValue encodes a signal value on the fast path; ok=false means
// the value needs the gob fallback.
func appendValue(dst []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), true
	case signal.Level:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, valLevel, b), true
	case signal.Word:
		dst = append(dst, valWord)
		return binary.BigEndian.AppendUint32(dst, uint32(x)), true
	case signal.Byte:
		return append(dst, valByte, byte(x)), true
	case signal.Packet:
		dst = append(dst, valPacket)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), true
	case signal.Frame:
		dst = append(dst, valFrame)
		dst = appendString(dst, x.Src)
		dst = appendString(dst, x.Dst)
		dst = binary.BigEndian.AppendUint32(dst, x.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(x.Payload)))
		dst = append(dst, x.Payload...)
		b := byte(0)
		if x.Last {
			b = 1
		}
		return append(dst, b), true
	case signal.BusCycle:
		dst = append(dst, valBusCycle)
		dst = binary.BigEndian.AppendUint32(dst, x.Addr)
		dst = binary.BigEndian.AppendUint32(dst, uint32(x.Data))
		b := byte(0)
		if x.Write {
			b = 1
		}
		return append(dst, b), true
	case signal.Control:
		dst = append(dst, valControl)
		dst = appendString(dst, x.Op)
		return binary.AppendUvarint(dst, uint64(int64(x.Arg))+math.MaxInt64+1), true
	case signal.IRQ:
		dst = append(dst, valIRQ)
		dst = binary.AppendUvarint(dst, uint64(int64(x.Line))+math.MaxInt64+1)
		return appendString(dst, x.Cause), true
	case int:
		dst = append(dst, valInt)
		return binary.AppendUvarint(dst, uint64(int64(x))+math.MaxInt64+1), true
	default:
		return dst, false
	}
}

// appendMessage encodes m on the binary fast path; ok=false means the
// caller must fall back to gob (dst is returned unchanged then).
func appendMessage(dst []byte, m Message) ([]byte, bool) {
	mark := len(dst)
	dst = append(dst, byte(m.Kind))
	dst = appendUvarint(dst, m.Seq)
	dst = appendUvarint(dst, m.Ack)
	dst = appendString(dst, m.From)
	switch m.Kind {
	case KindData:
		dst = appendString(dst, m.Net)
		dst = appendString(dst, m.Source)
		dst = appendTime(dst, m.Time)
		out, ok := appendValue(dst, m.Value)
		if !ok {
			return dst[:mark], false
		}
		return out, true
	case KindSafeTimeReq:
		return appendTime(dst, m.Ask), true
	case KindSafeTimeGrant:
		return appendTime(dst, m.Grant), true
	case KindMark, KindRestore:
		return appendString(dst, m.Tag), true
	case KindClose:
		return dst, true
	default:
		return dst[:mark], false
	}
}

// forceGob, when set, makes AppendBatch skip the binary fast path and
// carry every entry as self-describing gob — the pre-zero-copy wire
// codec. It exists so the -exp wire ablation (and anyone debugging a
// framing suspicion) can force the compatibility fallback; decoders
// accept both encodings unconditionally, so the knob only ever needs
// to be set on the sending side.
var forceGob atomic.Bool

// SetForceGob forces (or releases) the gob fallback encoding for
// every batch entry this process sends. Safe from any goroutine.
func SetForceGob(on bool) { forceGob.Store(on) }

// ForceGob reports whether the gob fallback encoding is forced.
func ForceGob() bool { return forceGob.Load() }

// entryLenWidth is the fixed width of the patchable per-entry length
// varint: 4 bytes encode up to 2^28-1, comfortably above the frame
// limit. Continuation-padded varints are what binary.Uvarint already
// accepts, so old decoders read the new layout unchanged.
const entryLenWidth = 4

const maxEntryLen = 1<<(7*entryLenWidth) - 1

// putFixedUvarint4 writes v as a 4-byte continuation-padded varint so
// an entry length can be patched in place after the body is encoded.
func putFixedUvarint4(dst []byte, v uint64) {
	for i := 0; i < entryLenWidth-1; i++ {
		dst[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	dst[entryLenWidth-1] = byte(v & 0x7f)
}

// sliceWriter lets the gob fallback encode straight into the batch
// payload under construction, with no intermediate buffer.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// appendEntry encodes one message as a batch entry appended to dst:
// encoding byte, fixed-width patchable length, body encoded in place.
// The zero-copy point: the body is written directly into dst — there
// is no per-message intermediate slice on either encoding.
func appendEntry(dst []byte, m Message) ([]byte, error) {
	mark := len(dst)
	if !forceGob.Load() {
		dst = append(dst, encBinary)
		lenPos := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		if out, ok := appendMessage(dst, m); ok {
			putFixedUvarint4(out[lenPos:lenPos+entryLenWidth], uint64(len(out)-lenPos-entryLenWidth))
			return out, nil
		}
		dst = dst[:mark]
	}
	dst = append(dst, encGob)
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	w := sliceWriter{buf: dst}
	if err := gob.NewEncoder(&w).Encode(m); err != nil {
		return dst[:mark], fmt.Errorf("channel: batch gob fallback: %w", err)
	}
	dst = w.buf
	entry := len(dst) - lenPos - entryLenWidth
	if entry > maxEntryLen {
		return dst[:mark], fmt.Errorf("channel: batch entry of %d bytes exceeds limit", entry)
	}
	putFixedUvarint4(dst[lenPos:lenPos+entryLenWidth], uint64(entry))
	return dst, nil
}

// AppendBatch encodes messages into a batch frame payload appended to
// dst, stopping before the encoded payload would exceed limit bytes.
// It returns the payload and how many messages were consumed; at
// least one message is always encoded (a single oversized message is
// a protocol error surfaced by the transport's own frame limit, not
// silently truncated here). Messages the binary codec cannot express
// are embedded as gob entries; SetForceGob forces that fallback for
// every entry.
//
// Bodies are encoded directly into dst behind reserved fixed-width
// length varints that are patched afterwards, so the encode path
// performs no per-message allocation — callers that recycle dst (the
// wire egress builder does) encode whole batches with zero
// steady-state allocations.
func AppendBatch(dst []byte, msgs []Message, limit int) ([]byte, int, error) {
	if len(msgs) == 0 {
		return dst, 0, nil
	}
	base := len(dst)
	// Reserve a maximal uvarint for the count and patch it afterwards:
	// re-encoding with the real count would shift the entries.
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	entries := len(dst)
	n := 0
	for _, m := range msgs {
		mark := len(dst)
		var err error
		if dst, err = appendEntry(dst, m); err != nil {
			if n == 0 {
				return dst[:base], 0, err
			}
			break // ship what fits; the bad message surfaces next call
		}
		if n > 0 && len(dst)-base > limit {
			dst = dst[:mark] // does not fit: leave for the next frame
			break
		}
		n++
	}
	// Patch the count into the reserved bytes as a fixed-width
	// uvarint (10 bytes, high-bit continuation on the first nine).
	putFixedUvarint(dst[base:entries], uint64(n))
	return dst, n, nil
}

// putFixedUvarint writes v as a 10-byte varint (padded with
// continuation zeros) so the count can be patched in place.
func putFixedUvarint(dst []byte, v uint64) {
	for i := 0; i < 9; i++ {
		dst[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	dst[9] = byte(v & 0x7f)
}

// BatchDecoder decodes batch frame payloads. It interns the small
// recurring strings (subsystem, net and component names) so
// steady-state decoding does not allocate a fresh string per message,
// and sub-allocates byte payload copies (packets, frame bodies) from
// a recycled slab so a burst of packets costs one allocation per slab
// rather than one per message.
type BatchDecoder struct {
	names map[string]string
	slab  []byte
}

const (
	// slabSize is the arena chunk the decoder sub-allocates payload
	// copies from; slabMax bounds what is worth placing there (larger
	// payloads get their own allocation so a giant packet cannot pin
	// a mostly-empty slab).
	slabSize = 64 << 10
	slabMax  = 4 << 10
)

// NewBatchDecoder creates a decoder (one per connection pump).
func NewBatchDecoder() *BatchDecoder {
	return &BatchDecoder{names: make(map[string]string)}
}

// copyBytes copies b out of the receive buffer (which is reused for
// the next frame) into the decoder's slab. The returned slice is
// capacity-clipped so appends by the consumer cannot clobber a
// neighbouring payload.
func (d *BatchDecoder) copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > slabMax {
		return append([]byte(nil), b...)
	}
	if cap(d.slab)-len(d.slab) < len(b) {
		d.slab = make([]byte, 0, slabSize)
	}
	off := len(d.slab)
	d.slab = append(d.slab, b...)
	return d.slab[off : off+len(b) : off+len(b)]
}

func (d *BatchDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok { // no alloc: map lookup by []byte
		return s
	}
	s := string(b)
	if len(d.names) < 1024 { // bound pathological name churn
		d.names[s] = s
	}
	return s
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("channel: truncated varint")
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, fmt.Errorf("channel: truncated field (%d bytes wanted)", n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) byte1() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (d *BatchDecoder) str(r *reader) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return d.intern(b), nil
}

func (r *reader) zigzagless() (int64, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(v - math.MaxInt64 - 1), nil
}

func (d *BatchDecoder) value(r *reader) (any, error) {
	tag, err := r.byte1()
	if err != nil {
		return nil, err
	}
	switch tag {
	case valNil:
		return nil, nil
	case valLevel:
		b, err := r.byte1()
		return signal.Level(b != 0), err
	case valWord:
		w, err := r.u32()
		return signal.Word(w), err
	case valByte:
		b, err := r.byte1()
		return signal.Byte(b), err
	case valPacket:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return nil, err
		}
		return signal.Packet(d.copyBytes(b)), nil
	case valFrame:
		var f signal.Frame
		if f.Src, err = d.str(r); err != nil {
			return nil, err
		}
		if f.Dst, err = d.str(r); err != nil {
			return nil, err
		}
		if f.Seq, err = r.u32(); err != nil {
			return nil, err
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return nil, err
		}
		f.Payload = d.copyBytes(b)
		last, err := r.byte1()
		if err != nil {
			return nil, err
		}
		f.Last = last != 0
		return f, nil
	case valBusCycle:
		var bc signal.BusCycle
		if bc.Addr, err = r.u32(); err != nil {
			return nil, err
		}
		w, err := r.u32()
		if err != nil {
			return nil, err
		}
		bc.Data = signal.Word(w)
		wr, err := r.byte1()
		if err != nil {
			return nil, err
		}
		bc.Write = wr != 0
		return bc, nil
	case valControl:
		var c signal.Control
		if c.Op, err = d.str(r); err != nil {
			return nil, err
		}
		if c.Arg, err = r.zigzagless(); err != nil {
			return nil, err
		}
		return c, nil
	case valIRQ:
		var q signal.IRQ
		line, err := r.zigzagless()
		if err != nil {
			return nil, err
		}
		q.Line = int(line)
		if q.Cause, err = d.str(r); err != nil {
			return nil, err
		}
		return q, nil
	case valInt:
		v, err := r.zigzagless()
		return int(v), err
	default:
		return nil, fmt.Errorf("channel: unknown value tag %d", tag)
	}
}

func (d *BatchDecoder) message(body []byte) (Message, error) {
	r := &reader{buf: body}
	var m Message
	k, err := r.byte1()
	if err != nil {
		return m, err
	}
	m.Kind = Kind(k)
	seq, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.Seq = seq
	ack, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.Ack = ack
	if m.From, err = d.str(r); err != nil {
		return m, err
	}
	switch m.Kind {
	case KindData:
		if m.Net, err = d.str(r); err != nil {
			return m, err
		}
		if m.Source, err = d.str(r); err != nil {
			return m, err
		}
		t, err := r.uvarint()
		if err != nil {
			return m, err
		}
		m.Time = vtime.Time(t)
		if m.Value, err = d.value(r); err != nil {
			return m, err
		}
	case KindSafeTimeReq:
		t, err := r.uvarint()
		if err != nil {
			return m, err
		}
		m.Ask = vtime.Time(t)
	case KindSafeTimeGrant:
		t, err := r.uvarint()
		if err != nil {
			return m, err
		}
		m.Grant = vtime.Time(t)
	case KindMark, KindRestore:
		if m.Tag, err = d.str(r); err != nil {
			return m, err
		}
	case KindClose:
	default:
		return m, fmt.Errorf("channel: unknown message kind %d in batch", k)
	}
	return m, nil
}

// entry decodes the next batch entry from r. The gob fallback lives
// in its own function so its escaping Message does not force a heap
// allocation onto the binary fast path.
func (d *BatchDecoder) entry(r *reader) (Message, error) {
	enc, err := r.byte1()
	if err != nil {
		return Message{}, err
	}
	n, err := r.uvarint()
	if err != nil {
		return Message{}, err
	}
	body, err := r.bytes(int(n))
	if err != nil {
		return Message{}, err
	}
	switch enc {
	case encBinary:
		return d.message(body)
	case encGob:
		return decodeGobEntry(body)
	default:
		return Message{}, fmt.Errorf("channel: unknown batch encoding %d", enc)
	}
}

func decodeGobEntry(body []byte) (Message, error) {
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
		return m, fmt.Errorf("channel: batch gob entry: %w", err)
	}
	return m, nil
}

// DecodeBatchInto decodes a batch frame payload into buf[:0] and
// returns it; see DecodeBatchAppend. Passing the returned slice back
// in keeps steady-state decoding allocation-free for protocol traffic.
func (d *BatchDecoder) DecodeBatchInto(payload []byte, buf []Message) (msgs []Message, closed bool, err error) {
	return d.DecodeBatchAppend(payload, buf[:0])
}

// DecodeBatchAppend decodes a batch frame payload, appending every
// message to buf, and reports whether a KindClose was seen (the
// connection pump's signal to stop reading). Message fields are slices
// of decoder-owned memory (interned names, slab payload copies) —
// never of the frame payload itself — so the caller may reuse the
// receive buffer immediately while the decoded batch travels on. On an
// error the messages decoded before it are still returned.
func (d *BatchDecoder) DecodeBatchAppend(payload []byte, buf []Message) (msgs []Message, closed bool, err error) {
	r := &reader{buf: payload}
	count, err := r.uvarint()
	if err != nil {
		return buf, false, err
	}
	for i := uint64(0); i < count; i++ {
		m, err := d.entry(r)
		if err != nil {
			return buf, closed, err
		}
		if m.Kind == KindClose {
			closed = true
		}
		buf = append(buf, m)
	}
	return buf, closed, nil
}
