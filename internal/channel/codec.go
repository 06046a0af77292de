package channel

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
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
//	  kindSafeTimeReq:   uvarint Ask
//	  kindSafeTimeGrant: uvarint Grant
//	  kindMark/Restore:  string Tag
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
// gigabytes; with it a frame decodes to at most 8 MB. The frame builder
// ends a frame here and the decoder rejects a frame that goes past.
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
// function; it panics on a name or type registered twice.
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

// AppendValue appends v in the codec's value layout: the closed tag
// table first, then the RegisterValue registry. A type in neither is an
// error naming it — nothing is encoded by reflection. It encodes a data
// message's value and, with DecodeValue, a migration image's values.
func AppendValue(dst []byte, v any) ([]byte, error) {
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

// appendExtValue is AppendValue's miss path, kept out of line so the
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
	case kindSafeTimeReq:
		return appendTime(dst, m.Ask), nil
	case kindSafeTimeGrant:
		return appendTime(dst, m.Grant), nil
	case kindMark, kindRestore:
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

// countWidth is the fixed width of a frame's patchable entry count.
const countWidth = 10

// putFixedUvarint4 writes v as a 4-byte continuation-padded varint so
// an entry length can be patched in place after the body is encoded.
func putFixedUvarint4(dst []byte, v uint64) {
	for i := 0; i < entryLenWidth-1; i++ {
		dst[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	dst[entryLenWidth-1] = byte(v & 0x7f)
}

// putFixedUvarint writes v as a 10-byte varint (padded with
// continuation zeros) so the count can be patched in place.
func putFixedUvarint(dst []byte, v uint64) {
	for i := 0; i < countWidth-1; i++ {
		dst[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	dst[countWidth-1] = byte(v & 0x7f)
}

// frameBuilder is the batch encoder: it appends messages, in seq order,
// to batch frame payloads it builds in place. A drive extends the open
// run entry while sameRun holds and opens one of its own otherwise; a
// control is an entry of its own. Each frame begins with room bytes for
// the wire header and a count, both filled in when the frame is sealed,
// so a sealed frame is written where it lies and nothing writes into it
// again until it has been sent.
//
// A message that would take the open frame past limit bytes (its room
// included) or past maxBatchMsgs messages does not fit: drive and
// control then leave the builder as it was and say so, and the caller
// seals the frame and adds the message to the next. The first message
// of a frame always fits, whatever its size.
//
// buf holds, in order: the frames handed to the flush in flight
// (buf[:busy]), sealed frames waiting for the next flush
// (buf[busy:sealed]) and the open frame.
type frameBuilder struct {
	buf   []byte
	room  int // bytes ahead of each frame's payload: 0, or wire.HeaderLen for the header
	limit int // a frame's byte cap, room included; 0 is a message a frame
	size  int // the capacity buf takes once its first runs short; 0: append grows it

	busy    int // bytes at the front owned by the flush in flight
	sealed  int // end of the sealed frames
	waiting int // messages in the sealed frames not yet taken

	frame   int // offset of the open frame, -1 when none
	entries int // entries in the open frame
	msgs    int // messages in the open frame
	run     int // offset of the open frame's last entry while it is a run, else -1
	head    runHead
}

// runHead is what the open run entry's header says once for all its
// items, and where the run has got to.
type runHead struct {
	seq0, next, ack   uint64 // next: the Seq the next item must carry
	prev              vtime.Time
	from, net, source string
}

// sameRun reports whether a drive extends the run r: what r's header
// says once must hold for it, its Seq must be r's next without wrapping,
// and its Time must be expressible as a non-negative delta from the
// previous item's.
func sameRun(r *runHead, seq, ack uint64, t vtime.Time, from, net, source string) bool {
	return seq == r.next && seq > r.seq0 && ack == r.ack && t >= r.prev &&
		from == r.from && net == r.net && source == r.source
}

const (
	// firstFrameCap is the capacity a builder sized for frames takes
	// first: a frame of protocol messages and a few drives.
	firstFrameCap = 512
	// frameSlack is what a builder sized for frames holds beyond its
	// cap: a message found not to fit is encoded past the cap once, and
	// after the cut its frame is built behind the sealed one, so neither
	// makes append grow buf for a message up to about this size — a
	// 1 KB packet and its run header.
	frameSlack = 2 << 10
)

var zeroHead [16]byte // a frame's room and count before they are filled

// reserve gives buf room for the next message without append's growth
// when the builder is sized for frames: firstFrameCap at first, then
// the full size in one step once less than half of that is left.
func (b *frameBuilder) reserve() {
	if b.size == 0 || cap(b.buf)-len(b.buf) >= firstFrameCap/2 || cap(b.buf) >= b.size {
		return
	}
	n := b.size
	if b.buf == nil {
		n = firstFrameCap
	}
	buf := make([]byte, len(b.buf), n)
	copy(buf, b.buf)
	b.buf = buf
}

// open starts a frame unless one is open, and readies buf for the next
// message.
func (b *frameBuilder) open() {
	b.reserve()
	if b.frame >= 0 {
		return
	}
	b.frame = len(b.buf)
	b.buf = append(b.buf, zeroHead[:b.room+countWidth]...)
	b.entries, b.msgs, b.run = 0, 0, -1
}

// closeRun patches the open run entry's length. buf must end where the
// run does.
func (b *frameBuilder) closeRun() {
	if b.run >= 0 {
		body := b.run + 1 + entryLenWidth
		putFixedUvarint4(b.buf[b.run+1:body], uint64(len(b.buf)-body))
		b.run = -1
	}
}

// fits reports whether the message appended from mark leaves the open
// frame within the cap, and takes it back out if not.
func (b *frameBuilder) fits(mark int) bool {
	if b.msgs == 0 || len(b.buf)-b.frame <= b.limit {
		return true
	}
	b.buf = b.buf[:mark]
	return false
}

// drive adds a data message: Seq seq and Ack ack from the subsystem
// from, arriving at t on net, driven by source, carrying v. It reports
// whether the message fit the open frame; on an error it is not added.
func (b *frameBuilder) drive(seq, ack uint64, t vtime.Time, from, net, source string, v any) (bool, error) {
	if t < 0 {
		return false, fmt.Errorf("channel: cannot encode a data message at negative time %d", int64(t))
	}
	b.open()
	if b.msgs >= maxBatchMsgs {
		return false, nil
	}
	mark := len(b.buf)
	if b.run >= 0 && sameRun(&b.head, seq, ack, t, from, net, source) {
		b.buf = appendUvarint(b.buf, uint64(t-b.head.prev))
		var err error
		b.buf, err = AppendValue(b.buf, v)
		if err == nil && len(b.buf)-b.run-1-entryLenWidth <= maxEntryLen {
			if !b.fits(mark) {
				return false, nil
			}
			b.head.next++
			b.head.prev = t
			b.msgs++
			return true, nil
		}
		b.buf = b.buf[:mark]
		if err != nil {
			return false, err
		}
		// The run entry is as long as an entry may be: the drive opens
		// the next one.
	}
	b.closeRun()
	b.buf = append(b.buf, encRun, 0, 0, 0, 0)
	body := len(b.buf)
	b.buf = appendUvarint(b.buf, seq)
	b.buf = appendUvarint(b.buf, ack)
	b.buf = appendString(b.buf, from)
	b.buf = appendString(b.buf, net)
	b.buf = appendString(b.buf, source)
	b.buf = appendUvarint(b.buf, uint64(t)) // the first item's ΔTime is from 0
	var err error
	if b.buf, err = AppendValue(b.buf, v); err == nil && len(b.buf)-body > maxEntryLen {
		err = fmt.Errorf("channel: batch entry of %d bytes exceeds limit", len(b.buf)-body)
	}
	if err != nil {
		b.buf = b.buf[:mark]
		return false, err
	}
	if !b.fits(mark) {
		return false, nil
	}
	b.run = mark
	b.head = runHead{seq0: seq, next: seq + 1, ack: ack, prev: t, from: from, net: net, source: source}
	b.entries++
	b.msgs++
	return true, nil
}

// control adds a control message as an entry of its own: encoding
// byte, fixed-width patchable length, body encoded in place. It reports
// whether the message fit the open frame; on an error it is not added.
func (b *frameBuilder) control(m *Message) (bool, error) {
	b.open()
	if b.msgs >= maxBatchMsgs {
		return false, nil
	}
	mark := len(b.buf)
	b.closeRun()
	b.buf = append(b.buf, encBinary, 0, 0, 0, 0)
	body := len(b.buf)
	var err error
	if b.buf, err = appendMessage(b.buf, m); err == nil && len(b.buf)-body > maxEntryLen {
		err = fmt.Errorf("channel: batch entry of %d bytes exceeds limit", len(b.buf)-body)
	}
	if err != nil {
		b.buf = b.buf[:mark]
		return false, err
	}
	if !b.fits(mark) {
		return false, nil
	}
	putFixedUvarint4(b.buf[body-entryLenWidth:body], uint64(len(b.buf)-body))
	b.entries++
	b.msgs++
	return true, nil
}

// add adds m, a drive or a control; see drive and control.
func (b *frameBuilder) add(m *Message) (bool, error) {
	if m.Kind == KindData {
		return b.drive(m.Seq, m.Ack, m.Time, m.From, m.Net, m.Source, m.Value)
	}
	return b.control(m)
}

// seal closes the open frame: the count is patched and the wire header,
// when the frame has room for one, written. An open frame without a
// message is taken back out.
func (b *frameBuilder) seal() {
	if b.frame < 0 {
		return
	}
	if b.msgs == 0 {
		b.buf = b.buf[:b.frame]
	} else {
		b.closeRun()
		putFixedUvarint(b.buf[b.frame+b.room:], uint64(b.entries))
		if b.room > 0 {
			wire.PutHeader(b.buf[b.frame:], wire.FrameBatch)
		}
		b.sealed = len(b.buf)
		b.waiting += b.msgs
	}
	b.frame = -1
}

// take hands the sealed frames to a flush, which owns them until done,
// and says how many messages they carry. One flush at a time.
func (b *frameBuilder) take() (frames []byte, msgs int) {
	b.busy, msgs = b.sealed, b.waiting
	b.waiting = 0
	return b.buf[:b.busy], msgs
}

// done ends the flush: its frames are dropped and what was built
// meanwhile moves to the front of buf.
func (b *frameBuilder) done() {
	n := b.busy
	if n == 0 {
		return
	}
	b.buf = b.buf[:copy(b.buf, b.buf[n:])]
	b.busy = 0
	b.sealed -= n
	if b.frame >= 0 {
		b.frame -= n
	}
	if b.run >= 0 {
		b.run -= n
	}
}

// reset drops every message not yet handed to a flush.
func (b *frameBuilder) reset() {
	b.buf = b.buf[:b.busy]
	b.sealed, b.waiting = b.busy, 0
	b.frame, b.run = -1, -1
}

// pending is how many messages wait for a flush.
func (b *frameBuilder) pending() int {
	n := b.waiting
	if b.frame >= 0 {
		n += b.msgs
	}
	return n
}

// AppendBatch encodes messages into a batch frame payload appended to
// dst, stopping before the encoded payload would exceed limit bytes or
// maxBatchMsgs messages. It returns the payload and how many messages
// were consumed; at least one message is always encoded (a single
// oversized message is a protocol error surfaced by the transport's
// own frame limit, not silently truncated here). A data message whose
// value has no codec (see RegisterValue) is an error when it is first,
// and otherwise ends the frame before it.
//
// It is the frame builder endpoints encode their egress with, run over
// a slice: bodies are encoded directly into dst behind fixed-width
// lengths patched afterwards, so a caller that recycles dst encodes
// with zero steady-state allocations.
func AppendBatch(dst []byte, msgs []Message, limit int) ([]byte, int, error) {
	b := frameBuilder{buf: dst, limit: limit, frame: -1, run: -1}
	n := 0
	for ; n < len(msgs); n++ {
		fit, err := b.add(&msgs[n])
		if err != nil && n == 0 {
			return dst, 0, err
		}
		if err != nil || !fit {
			break // ship what fits; the rest — a bad message first — is the next call's
		}
	}
	b.seal()
	return b.buf, n, nil
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
//
// It is also a cursor over one frame: Start points it at a payload and
// Next decodes the payload's messages in bursts of any length, resuming
// inside a run entry where the last burst stopped, so a reader hands on
// bounded bursts however large the frame. The cursor borrows the
// payload until Next reports the frame done; the messages it decodes
// never alias it.
type BatchDecoder struct {
	names  map[string]string
	slab   []byte
	words  signal.WordBoxes
	frames signal.FrameBoxes
	cycles signal.BusCycleBoxes

	// The frame Start was given: frame.pos is at the next entry, items
	// at the open run entry's next item (empty when none is open).
	frame  reader
	items  reader
	left   uint64 // entries not yet begun
	n      int    // messages decoded from the frame
	closed bool   // a KindClose was among them
	err    error  // what ended the frame early, until the next Start

	// The open run entry's header: item i carries Seq seq0+i.
	seq0, seq, ack    uint64
	t                 uint64 // the last item's Time
	from, net, source string
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

// DecodeValue decodes b, exactly one value as AppendValue wrote it,
// boxing words, frames and bus cycles and copying byte payloads into the
// decoder's slab as a batch's values are: nothing it returns aliases b.
func (d *BatchDecoder) DecodeValue(b []byte) (any, error) {
	r := reader{buf: b}
	v, err := d.value(&r)
	if err == nil && r.pos < len(b) {
		err = fmt.Errorf("channel: %d bytes after a value", len(b)-r.pos)
	}
	return v, err
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
	m.Kind = msgKind(k)
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
	case kindSafeTimeReq:
		t, err := r.uvarint()
		if err != nil {
			return err
		}
		m.Ask = vtime.Time(t)
	case kindSafeTimeGrant:
		t, err := r.uvarint()
		if err != nil {
			return err
		}
		m.Grant = vtime.Time(t)
	case kindMark, kindRestore:
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

var errBatchTooLong = fmt.Errorf("channel: batch of more than %d messages", maxBatchMsgs)

// Start points the cursor at a batch frame payload, dropping whatever
// is left of the previous one.
func (d *BatchDecoder) Start(payload []byte) {
	d.frame, d.items = reader{buf: payload}, reader{}
	d.n, d.closed = 0, false
	d.left, d.err = d.frame.uvarint()
}

// Closed reports whether the frame Start was given carried a KindClose
// among the messages decoded from it so far.
func (d *BatchDecoder) Closed() bool { return d.closed }

// Next appends the frame's next messages to buf — each is filled in
// where it lies — until buf holds limit messages or the frame is done,
// and reports whether it is done. An error is the frame's end: Next
// takes back out what it appended of the entry that failed, so the
// messages it returns are whole entries and the leading items of the run
// entry an earlier call stopped in. The encoding byte of an entry is
// checked before its body is looked at.
func (d *BatchDecoder) Next(buf []Message, limit int) (_ []Message, done bool, err error) {
	keep := len(buf) // where the entry being decoded starts, within this call
	for d.err == nil && len(buf) < limit {
		if d.items.pos < len(d.items.buf) {
			buf, d.err = d.runItems(buf, limit)
			continue
		}
		if d.left == 0 {
			break
		}
		d.left--
		keep = len(buf)
		buf, d.err = d.entry(buf)
	}
	if d.err != nil {
		clear(buf[keep:])
		buf = buf[:keep]
	} else if d.left > 0 || d.items.pos < len(d.items.buf) {
		return buf, false, nil
	}
	d.frame, d.items, d.left = reader{}, reader{}, 0 // the payload is the caller's again
	return buf, true, d.err
}

// entry begins the frame's next entry: a control message is decoded
// onto buf, a run entry's header is read and its items left to runItems.
func (d *BatchDecoder) entry(buf []Message) ([]Message, error) {
	r := &d.frame
	enc, err := r.byte1()
	if err != nil {
		return buf, err
	}
	if enc != encBinary && enc != encRun {
		return buf, fmt.Errorf("channel: unknown batch encoding %d", enc)
	}
	body, err := r.lenBytes()
	if err != nil {
		return buf, err
	}
	if enc == encRun {
		return buf, d.runHeader(body)
	}
	if d.n >= maxBatchMsgs {
		return buf, errBatchTooLong
	}
	var m *Message
	buf, m = grow(buf)
	if err := d.message(body, m); err != nil {
		return buf, err
	}
	d.n++
	d.closed = d.closed || m.Kind == KindClose
	return buf, nil
}

// runHeader reads a run entry's header and opens its items. The three
// names are interned once for the whole run.
func (d *BatchDecoder) runHeader(body []byte) (err error) {
	r := &reader{buf: body}
	if d.seq0, err = r.uvarint(); err != nil {
		return err
	}
	if d.ack, err = r.uvarint(); err != nil {
		return err
	}
	if d.from, err = d.str(r); err != nil {
		return err
	}
	if d.net, err = d.str(r); err != nil {
		return err
	}
	if d.source, err = d.str(r); err != nil {
		return err
	}
	if r.pos == len(r.buf) {
		return fmt.Errorf("channel: empty run in batch")
	}
	d.seq, d.t, d.items = d.seq0, 0, *r
	return nil
}

// runItems decodes the open run's items onto buf until the run ends or
// buf holds limit messages.
func (d *BatchDecoder) runItems(buf []Message, limit int) ([]Message, error) {
	r := &d.items
	for r.pos < len(r.buf) && len(buf) < limit {
		if d.seq < d.seq0 {
			return buf, fmt.Errorf("channel: run from seq %d wraps", d.seq0)
		}
		if d.n >= maxBatchMsgs {
			return buf, errBatchTooLong
		}
		delta, err := r.uvarint()
		if err != nil {
			return buf, err
		}
		if delta > math.MaxInt64-d.t {
			return buf, fmt.Errorf("channel: run time overflows (%d + %d)", d.t, delta)
		}
		d.t += delta
		var m *Message
		buf, m = grow(buf)
		m.Kind, m.From, m.Seq, m.Ack = KindData, d.from, d.seq, d.ack
		m.Net, m.Source, m.Time = d.net, d.source, vtime.Time(d.t)
		if m.Value, err = d.value(r); err != nil {
			return buf, err
		}
		d.seq++
		d.n++
	}
	return buf, nil
}

// DecodeBatchInto decodes a batch frame payload into buf[:0] and
// returns it; see decodeBatchAppend. Passing the returned slice back
// in keeps steady-state decoding allocation-free for protocol traffic.
func (d *BatchDecoder) DecodeBatchInto(payload []byte, buf []Message) (msgs []Message, closed bool, err error) {
	return d.decodeBatchAppend(payload, buf[:0])
}

// decodeBatchAppend decodes a whole batch frame payload, appending
// every message to buf, and reports whether a KindClose was seen (the
// connection pump's signal to stop reading): the cursor run over the
// frame in one burst. Message fields are slices of decoder-owned memory
// (interned names, slab payload copies) — never of the frame payload
// itself — so the caller may reuse the receive buffer immediately while
// the decoded batch travels on. On an error the messages of the whole
// entries decoded before it are still returned.
func (d *BatchDecoder) decodeBatchAppend(payload []byte, buf []Message) (msgs []Message, closed bool, err error) {
	d.Start(payload)
	msgs, _, err = d.Next(buf, math.MaxInt)
	return msgs, d.closed, err
}
