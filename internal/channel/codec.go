package channel

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

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
//	u8      encoding
//	uvarint length
//	length  bytes
//
// with three encoding bytes assigned:
//
//	0  a control message (encBinary)
//	1  retired — was a gob-encoded Message; rejected with the body
//	   undecoded, like every unassigned value
//	2  a run of data messages (encRun)
//
// A control entry body is
//
//	u8      Kind
//	uvarint Seq
//	uvarint Ack
//	string  From            (uvarint length + bytes)
//	kind-specific fields:
//	  KindSafeTimeReq:   uvarint Ask
//	  KindSafeTimeGrant: uvarint Grant
//	  KindMark/Restore:  string Tag
//	  KindClose:         (nothing)
//
// KindData has no control layout: a data message travels only in a run
// entry, a lone drive as a run of one. A run entry body says what its
// drives share once and then only what differs:
//
//	uvarint Seq0            (the first item's Seq; item i has Seq0+i)
//	uvarint Ack
//	string  From
//	string  Net
//	string  Source
//	items, to the end of the body, at least one:
//	  uvarint ΔTime         (from the previous item's Time; the first
//	                         item's is from 0, so it is its Time)
//	  value
//
// The encoder extends a run while the next message is KindData with the
// same From, Net, Source and Ack, the next Seq and a Time that does not
// fall; anything else ends the entry. A page burst of word drives
// therefore costs one header and 8 or 9 bytes a word.
//
// Values are tagged with one byte:
//
//	0 nil, 1 Level, 2 Word, 3 Byte, 4 Packet, 5 Frame, 6 BusCycle,
//	7 Control, 8 IRQ, 9 int (the common test/helper payload),
//	10 extension: string name, uvarint length, body — a type that
//	   registered its own layout under that name with RegisterValue
//
// Times are non-negative int64 ticks (Infinity = MaxInt64), encoded
// as uvarint.

const (
	encBinary byte = 0
	encRun    byte = 2
)

// maxBatchMsgs bounds the messages of one batch frame. A run item can
// be two wire bytes and decodes to a 128-byte Message, so without a
// bound one hostile frame of wire.MaxFrame bytes would decode to
// gigabytes; with it a frame decodes to at most 8 MB. AppendBatch ends
// a frame here and DecodeBatchAppend rejects a frame that goes past.
const maxBatchMsgs = 1 << 16

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
	valExt      byte = 10
)

// valueCodec is one RegisterValue registration.
type valueCodec struct {
	name string
	enc  func(dst []byte, v any) []byte
	dec  func(body []byte) (any, error)
}

var (
	valuesMu     sync.RWMutex
	valuesByType = map[reflect.Type]*valueCodec{}
	valuesByName = map[string]*valueCodec{}
)

// RegisterValue teaches the batch codec to carry values of type T, so
// a net driven with them can be split across nodes. Each value travels
// as an extension entry (tag 10): the registered name, a length, and
// the bytes enc appended to dst. dec receives exactly those bytes and
// must copy whatever it keeps — they alias the connection's receive
// buffer — and must return an error, not panic, on a body it cannot
// read: the bytes come from the peer. Both ends of a channel must
// register the same name for the same layout. Call it from an init
// function; like gob.Register it panics on a name or type registered
// twice.
func RegisterValue[T any](name string, enc func(dst []byte, v T) []byte, dec func(body []byte) (T, error)) {
	typ := reflect.TypeFor[T]()
	vc := &valueCodec{
		name: name,
		enc:  func(dst []byte, v any) []byte { return enc(dst, v.(T)) },
		dec:  func(body []byte) (any, error) { return dec(body) },
	}
	valuesMu.Lock()
	defer valuesMu.Unlock()
	if _, dup := valuesByName[name]; dup {
		panic(fmt.Sprintf("channel: RegisterValue: name %q registered twice", name))
	}
	if prev, dup := valuesByType[typ]; dup {
		panic(fmt.Sprintf("channel: RegisterValue: type %v already registered as %q", typ, prev.name))
	}
	valuesByName[name] = vc
	valuesByType[typ] = vc
}

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

// appendValue encodes a data message's value: the closed tag table
// first, then the RegisterValue registry. A type in neither is an
// error — nothing is encoded by reflection.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case signal.Level:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, valLevel, b), nil
	case signal.Word:
		dst = append(dst, valWord)
		return binary.BigEndian.AppendUint32(dst, uint32(x)), nil
	case signal.Byte:
		return append(dst, valByte, byte(x)), nil
	case signal.Packet:
		dst = append(dst, valPacket)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
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
		return append(dst, b), nil
	case signal.BusCycle:
		dst = append(dst, valBusCycle)
		dst = binary.BigEndian.AppendUint32(dst, x.Addr)
		dst = binary.BigEndian.AppendUint32(dst, uint32(x.Data))
		b := byte(0)
		if x.Write {
			b = 1
		}
		return append(dst, b), nil
	case signal.Control:
		dst = append(dst, valControl)
		dst = appendString(dst, x.Op)
		return binary.AppendUvarint(dst, uint64(int64(x.Arg))+math.MaxInt64+1), nil
	case signal.IRQ:
		dst = append(dst, valIRQ)
		dst = binary.AppendUvarint(dst, uint64(int64(x.Line))+math.MaxInt64+1)
		return appendString(dst, x.Cause), nil
	case int:
		dst = append(dst, valInt)
		return binary.AppendUvarint(dst, uint64(int64(x))+math.MaxInt64+1), nil
	default:
		return appendExtValue(dst, v)
	}
}

// appendExtValue is appendValue's miss path, kept out of line so the
// registry lookup costs the word/packet hot path nothing.
func appendExtValue(dst []byte, v any) ([]byte, error) {
	valuesMu.RLock()
	vc := valuesByType[reflect.TypeOf(v)]
	valuesMu.RUnlock()
	if vc == nil {
		return dst, fmt.Errorf("channel: no wire codec for value type %T: register one with channel.RegisterValue", v)
	}
	dst = append(dst, valExt)
	dst = appendString(dst, vc.name)
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = vc.enc(dst, v)
	// A body too long for the fixed-width length makes the entry too
	// long as well, which appendEntry rejects.
	putFixedUvarint4(dst[lenPos:], uint64(len(dst)-lenPos-entryLenWidth))
	return dst, nil
}

// appendMessage encodes a control message's entry body onto dst.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	dst = append(dst, byte(m.Kind))
	dst = appendUvarint(dst, m.Seq)
	dst = appendUvarint(dst, m.Ack)
	dst = appendString(dst, m.From)
	switch m.Kind {
	case KindSafeTimeReq:
		return appendTime(dst, m.Ask), nil
	case KindSafeTimeGrant:
		return appendTime(dst, m.Grant), nil
	case KindMark, KindRestore:
		return appendString(dst, m.Tag), nil
	case KindClose:
		return dst, nil
	default:
		return dst, fmt.Errorf("channel: cannot encode message kind %d", uint8(m.Kind))
	}
}

// entryLenWidth is the fixed width of the patchable per-entry length
// varint: 4 bytes encode up to 2^28-1, comfortably above the frame
// limit. Continuation-padded varints are what binary.Uvarint already
// accepts.
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

// appendEntry encodes one control message as a batch entry appended to
// dst: encoding byte, fixed-width patchable length, body encoded in
// place — there is no per-message intermediate slice. On an error dst
// is returned as it came in.
func appendEntry(dst []byte, m *Message) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, encBinary, 0, 0, 0, 0)
	body := len(dst)
	dst, err := appendMessage(dst, m)
	if err != nil {
		return dst[:mark], err
	}
	if len(dst)-body > maxEntryLen {
		return dst[:mark], fmt.Errorf("channel: batch entry of %d bytes exceeds limit", len(dst)-body)
	}
	putFixedUvarint4(dst[body-entryLenWidth:], uint64(len(dst)-body))
	return dst, nil
}

// sameRun reports whether m, the took-th message after first, extends
// first's run: what the run header says once must hold for it, its Seq
// must be Seq0+took without wrapping, and its Time must be expressible
// as a non-negative delta from prev.
func sameRun(first, m *Message, took int, prev vtime.Time) bool {
	return m.Kind == KindData && m.Seq == first.Seq+uint64(took) && m.Seq > first.Seq &&
		m.Ack == first.Ack && m.Time >= prev &&
		m.From == first.From && m.Net == first.Net && m.Source == first.Source
}

// appendRun encodes the data message msgs[0] and every message after
// it that extends its run as one run entry appended to dst, and
// returns how many it took. The entry stops before it would pass room
// bytes; took 0 with a nil error means not even the first item fits
// (never when must is set: the first message of a frame is encoded
// whatever its size). An error is msgs[0]'s — a later message that
// cannot be encoded just ends the run, to fail the call it is first
// in. Whenever took is 0, dst is returned as it came in.
func appendRun(dst []byte, msgs []Message, room int, must bool) (out []byte, took int, err error) {
	mark := len(dst)
	first := &msgs[0]
	if first.Time < 0 {
		return dst, 0, fmt.Errorf("channel: cannot encode a data message at negative time %d", int64(first.Time))
	}
	dst = append(dst, encRun, 0, 0, 0, 0)
	body := len(dst)
	dst = appendUvarint(dst, first.Seq)
	dst = appendUvarint(dst, first.Ack)
	dst = appendString(dst, first.From)
	dst = appendString(dst, first.Net)
	dst = appendString(dst, first.Source)
	prev := vtime.Time(0)
	for took < len(msgs) {
		m := &msgs[took]
		if took > 0 && !sameRun(first, m, took, prev) {
			break
		}
		item := len(dst)
		dst = appendUvarint(dst, uint64(m.Time-prev))
		if dst, err = appendValue(dst, m.Value); err == nil && len(dst)-body > maxEntryLen {
			err = fmt.Errorf("channel: batch entry of %d bytes exceeds limit", len(dst)-body)
		}
		if err != nil || len(dst)-mark > room && !(must && took == 0) {
			if took == 0 {
				return dst[:mark], 0, err
			}
			dst = dst[:item]
			break
		}
		prev = m.Time
		took++
	}
	putFixedUvarint4(dst[body-entryLenWidth:], uint64(len(dst)-body))
	return dst, took, nil
}

// AppendBatch encodes messages into a batch frame payload appended to
// dst, stopping before the encoded payload would exceed limit bytes or
// maxBatchMsgs messages. It returns the payload and how many messages
// were consumed; at least one message is always encoded (a single
// oversized message is a protocol error surfaced by the transport's
// own frame limit, not silently truncated here). A data message whose
// value has no codec (see RegisterValue) is an error.
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
	if len(msgs) > maxBatchMsgs {
		msgs = msgs[:maxBatchMsgs]
	}
	base := len(dst)
	// Reserve a maximal uvarint for the count and patch it afterwards:
	// re-encoding with the real count would shift the entries.
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	entries := len(dst)
	count, n := 0, 0
	for n < len(msgs) {
		mark := len(dst)
		took := 1
		var err error
		if msgs[n].Kind == KindData {
			dst, took, err = appendRun(dst, msgs[n:], limit-(mark-base), n == 0)
		} else {
			dst, err = appendEntry(dst, &msgs[n])
			if err == nil && n > 0 && len(dst)-base > limit {
				dst, took = dst[:mark], 0 // does not fit: leave for the next frame
			}
		}
		if err != nil && n == 0 {
			return dst[:base], 0, err
		}
		if err != nil || took == 0 {
			break // ship what fits; the rest — a bad message first — is the next call's
		}
		n += took
		count++
	}
	// Patch the entry count into the reserved bytes as a fixed-width
	// uvarint (10 bytes, high-bit continuation on the first nine).
	putFixedUvarint(dst[base:entries], uint64(count))
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
// rather than one per message. Words and frames are boxed the same
// way: one 1 KB chunk per signal.WordChunk words >= 256, one 1 152 B
// chunk per signal.FrameChunk frames that are not Last, one 3 KB chunk
// per signal.BusCycleChunk bus cycles.
type BatchDecoder struct {
	names  map[string]string
	slab   []byte
	words  signal.WordBoxes
	frames signal.FrameBoxes
	cycles signal.BusCycleBoxes
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

// bytes is the one bounds check behind every length a peer supplies
// (entry, string, packet, frame, extension body). It compares against
// the remainder: r.pos+n overflows for a hostile n.
func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.pos {
		return nil, fmt.Errorf("channel: truncated field (%d bytes wanted)", n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// lenBytes reads a uvarint length and that many bytes.
func (r *reader) lenBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	return r.bytes(int(n))
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
	b, err := r.lenBytes()
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
		return d.words.Box(signal.Word(w)), err
	case valByte:
		b, err := r.byte1()
		return signal.Byte(b), err
	case valPacket:
		b, err := r.lenBytes()
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
		b, err := r.lenBytes()
		if err != nil {
			return nil, err
		}
		f.Payload = d.copyBytes(b)
		last, err := r.byte1()
		if err != nil {
			return nil, err
		}
		f.Last = last != 0
		return d.frames.Box(f), nil
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
		return d.cycles.Box(bc), nil
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
	case valExt:
		return extValue(r)
	default:
		return nil, fmt.Errorf("channel: unknown value tag %d", tag)
	}
}

// extValue decodes an extension value through the RegisterValue
// registry. The name is looked up, never interned: an unknown one is
// a protocol error and must not grow decoder state.
func extValue(r *reader) (any, error) {
	name, err := r.lenBytes()
	if err != nil {
		return nil, err
	}
	valuesMu.RLock()
	vc := valuesByName[string(name)]
	valuesMu.RUnlock()
	if vc == nil {
		return nil, fmt.Errorf("channel: value type %q is not registered (channel.RegisterValue)", name)
	}
	body, err := r.lenBytes()
	if err != nil {
		return nil, err
	}
	v, err := vc.dec(body)
	if err != nil {
		return nil, fmt.Errorf("channel: %s value: %w", vc.name, err)
	}
	return v, nil
}

// grow extends buf by one zero Message and returns it for the decoder
// to fill in place.
func grow(buf []Message) ([]Message, *Message) {
	buf = append(buf, Message{})
	return buf, &buf[len(buf)-1]
}

// message decodes a control entry body into m, a zero Message.
func (d *BatchDecoder) message(body []byte, m *Message) error {
	r := &reader{buf: body}
	k, err := r.byte1()
	if err != nil {
		return err
	}
	m.Kind = Kind(k)
	if m.Seq, err = r.uvarint(); err != nil {
		return err
	}
	if m.Ack, err = r.uvarint(); err != nil {
		return err
	}
	if m.From, err = d.str(r); err != nil {
		return err
	}
	switch m.Kind {
	case KindSafeTimeReq:
		t, err := r.uvarint()
		if err != nil {
			return err
		}
		m.Ask = vtime.Time(t)
	case KindSafeTimeGrant:
		t, err := r.uvarint()
		if err != nil {
			return err
		}
		m.Grant = vtime.Time(t)
	case KindMark, KindRestore:
		if m.Tag, err = d.str(r); err != nil {
			return err
		}
	case KindClose:
	default:
		// KindData included: a drive travels in a run entry.
		return fmt.Errorf("channel: unknown message kind %d in batch", k)
	}
	return nil
}

// run decodes a run entry body, appending one Message per item to buf.
// The three names are interned once for the whole run. stop is the
// length buf may not pass (the frame's maxBatchMsgs).
func (d *BatchDecoder) run(body []byte, buf []Message, stop int) ([]Message, error) {
	r := &reader{buf: body}
	seq0, err := r.uvarint()
	if err != nil {
		return buf, err
	}
	ack, err := r.uvarint()
	if err != nil {
		return buf, err
	}
	from, err := d.str(r)
	if err != nil {
		return buf, err
	}
	net, err := d.str(r)
	if err != nil {
		return buf, err
	}
	source, err := d.str(r)
	if err != nil {
		return buf, err
	}
	if r.pos == len(r.buf) {
		return buf, fmt.Errorf("channel: empty run in batch")
	}
	t := uint64(0)
	for seq := seq0; r.pos < len(r.buf); seq++ {
		if seq < seq0 {
			return buf, fmt.Errorf("channel: run from seq %d wraps", seq0)
		}
		if len(buf) >= stop {
			return buf, errBatchTooLong
		}
		delta, err := r.uvarint()
		if err != nil {
			return buf, err
		}
		if delta > math.MaxInt64-t {
			return buf, fmt.Errorf("channel: run time overflows (%d + %d)", t, delta)
		}
		t += delta
		var m *Message
		buf, m = grow(buf)
		m.Kind, m.From, m.Seq, m.Ack = KindData, from, seq, ack
		m.Net, m.Source, m.Time = net, source, vtime.Time(t)
		if m.Value, err = d.value(r); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

var errBatchTooLong = fmt.Errorf("channel: batch of more than %d messages", maxBatchMsgs)

// DecodeBatchInto decodes a batch frame payload into buf[:0] and
// returns it; see DecodeBatchAppend. Passing the returned slice back
// in keeps steady-state decoding allocation-free for protocol traffic.
func (d *BatchDecoder) DecodeBatchInto(payload []byte, buf []Message) (msgs []Message, closed bool, err error) {
	return d.DecodeBatchAppend(payload, buf[:0])
}

// DecodeBatchAppend decodes a batch frame payload, appending every
// message to buf — each is filled in where it lies — and reports
// whether a KindClose was seen (the connection pump's signal to stop
// reading). Message fields are slices of decoder-owned memory (interned
// names, slab payload copies) — never of the frame payload itself — so
// the caller may reuse the receive buffer immediately while the decoded
// batch travels on. On an error the messages of the whole entries
// decoded before it are still returned. The encoding byte of an entry
// is checked before its body is looked at.
func (d *BatchDecoder) DecodeBatchAppend(payload []byte, buf []Message) (msgs []Message, closed bool, err error) {
	r := &reader{buf: payload}
	count, err := r.uvarint()
	if err != nil {
		return buf, false, err
	}
	stop := len(buf) + maxBatchMsgs
	for i := uint64(0); i < count; i++ {
		whole := len(buf)
		enc, err := r.byte1()
		if err != nil {
			return buf, closed, err
		}
		if enc != encBinary && enc != encRun {
			return buf, closed, fmt.Errorf("channel: unknown batch encoding %d", enc)
		}
		body, err := r.lenBytes()
		if err != nil {
			return buf, closed, err
		}
		if enc == encRun {
			buf, err = d.run(body, buf, stop)
		} else if whole >= stop {
			err = errBatchTooLong
		} else {
			var m *Message
			buf, m = grow(buf)
			if err = d.message(body, m); err == nil && m.Kind == KindClose {
				closed = true
			}
		}
		if err != nil {
			return buf[:whole], closed, err
		}
	}
	return buf, closed, nil
}
