package channel

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/signal"
	"repro/internal/vtime"
)

// customVal is outside the closed tag table: it travels as an
// extension value through the RegisterValue registry.
type customVal struct {
	A int
	B string
}

// unregisteredVal has no codec at all.
type unregisteredVal struct{ X int }

func init() {
	RegisterValue("channel.test.customVal",
		func(dst []byte, v customVal) []byte {
			dst = binary.AppendVarint(dst, int64(v.A))
			return append(dst, v.B...)
		},
		func(body []byte) (customVal, error) {
			a, n := binary.Varint(body)
			if n <= 0 {
				return customVal{}, errors.New("customVal: bad A")
			}
			return customVal{A: int(a), B: string(body[n:])}, nil
		})
}

func decodeAll(t *testing.T, dec *BatchDecoder, frames [][]byte) (got []Message, closed bool) {
	t.Helper()
	for _, f := range frames {
		msgs, c, err := dec.DecodeBatchAppend(f, got)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got, closed = msgs, closed || c
	}
	return got, closed
}

func mustEqualMessages(t *testing.T, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("message %d mismatch:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

func TestBatchRoundTripAllKindsAndValues(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Ack: 0, Net: "link", Source: "prod", Time: 10, Value: signal.Level(true)},
		{Kind: KindData, From: "ss1", Seq: 2, Ack: 1, Net: "link", Source: "prod", Time: 20, Value: signal.Word(0xdeadbeef)},
		{Kind: KindData, From: "ss1", Seq: 3, Ack: 1, Net: "link", Source: "prod", Time: 30, Value: signal.Byte(7)},
		{Kind: KindData, From: "ss1", Seq: 4, Ack: 2, Net: "dma", Source: "asic", Time: 40, Value: signal.Packet{1, 2, 3, 4, 5}},
		{Kind: KindData, From: "ss1", Seq: 5, Ack: 2, Net: "dma", Source: "asic", Time: 50,
			Value: signal.Frame{Src: "a", Dst: "b", Seq: 9, Payload: []byte("payload"), Last: true}},
		{Kind: KindData, From: "ss1", Seq: 6, Ack: 2, Net: "bus", Source: "cpu", Time: 60,
			Value: signal.BusCycle{Addr: 0x1000, Data: 42, Write: true}},
		{Kind: KindData, From: "ss1", Seq: 7, Ack: 3, Net: "ctl", Source: "ui", Time: 70,
			Value: signal.Control{Op: "load", Arg: -5}},
		{Kind: KindData, From: "ss1", Seq: 8, Ack: 3, Net: "irq", Source: "asic", Time: 80,
			Value: signal.IRQ{Line: 3, Cause: "dma-done"}},
		{Kind: KindData, From: "ss1", Seq: 9, Ack: 3, Net: "link", Source: "prod", Time: 90, Value: 123},
		{Kind: KindData, From: "ss1", Seq: 10, Ack: 3, Net: "link", Source: "prod", Time: 95, Value: nil},
		{Kind: KindSafeTimeReq, From: "ss1", Seq: 11, Ack: 4, Ask: 500},
		{Kind: KindSafeTimeGrant, From: "ss1", Seq: 12, Ack: 5, Grant: 400},
		{Kind: KindSafeTimeGrant, From: "ss1", Seq: 13, Ack: 5, Grant: vtime.Infinity},
		{Kind: KindMark, From: "ss1", Seq: 14, Ack: 5, Tag: "snap-1"},
		{Kind: KindRestore, From: "ss1", Seq: 15, Ack: 5, Tag: "snap-1"},
	}
	payload, n, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(msgs) {
		t.Fatalf("consumed %d of %d", n, len(msgs))
	}
	got, closed := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	if closed {
		t.Fatal("no close in batch, decoder says closed")
	}
	mustEqualMessages(t, got, msgs)
}

func TestBatchMixedBuiltinAndRegisteredValues(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Time: 1, Value: signal.Word(1)},
		{Kind: KindData, From: "ss1", Seq: 2, Net: "link", Source: "p", Time: 2, Value: customVal{A: -7, B: "ext"}},
		{Kind: KindData, From: "ss1", Seq: 3, Net: "link", Source: "p", Time: 3, Value: signal.Word(3)},
		{Kind: KindData, From: "ss1", Seq: 4, Net: "link", Source: "p", Time: 4, Value: customVal{A: 9, B: "again"}},
		{Kind: KindSafeTimeReq, From: "ss1", Seq: 5, Ask: 100},
	}
	payload, n, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(msgs) {
		t.Fatalf("consumed %d of %d", n, len(msgs))
	}
	got, _ := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	mustEqualMessages(t, got, msgs)
}

func TestBatchSplitsAtLimit(t *testing.T) {
	const count = 40
	msgs := make([]Message, count)
	for i := range msgs {
		msgs[i] = Message{Kind: KindData, From: "ss1", Seq: uint64(i + 1), Net: "link",
			Source: "prod", Time: vtime.Time(i), Value: signal.Word(uint32(i))}
	}
	const limit = 128
	var frames [][]byte
	rest := msgs
	for len(rest) > 0 {
		payload, n, err := AppendBatch(nil, rest, limit)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("AppendBatch consumed nothing")
		}
		if len(payload) > limit {
			t.Fatalf("frame of %d bytes exceeds limit %d with %d messages", len(payload), limit, n)
		}
		frames = append(frames, payload)
		rest = rest[n:]
	}
	if len(frames) < 2 {
		t.Fatalf("expected the batch to split, got %d frame(s)", len(frames))
	}
	got, _ := decodeAll(t, NewBatchDecoder(), frames)
	mustEqualMessages(t, got, msgs)
}

func TestBatchOversizedSingleMessageStillEncodes(t *testing.T) {
	big := Message{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p",
		Value: make(signal.Packet, 300)}
	payload, n, err := AppendBatch(nil, []Message{big}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("consumed %d, want 1", n)
	}
	if len(payload) <= 128 {
		t.Fatalf("oversized message fit in %d bytes?", len(payload))
	}
	got, _ := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	if len(got) != 1 || len(got[0].Value.(signal.Packet)) != 300 {
		t.Fatalf("round trip lost the payload: %+v", got)
	}
}

func TestBatchEmptyInputIsNoOp(t *testing.T) {
	payload, n, err := AppendBatch(nil, nil, 1<<20)
	if err != nil || n != 0 || len(payload) != 0 {
		t.Fatalf("empty AppendBatch: payload=%d n=%d err=%v", len(payload), n, err)
	}
}

func TestBatchCloseDetected(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Value: signal.Word(1)},
		{Kind: KindClose, From: "ss1", Seq: 2},
	}
	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, closed := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	if !closed {
		t.Fatal("KindClose in batch not reported")
	}
	mustEqualMessages(t, got, msgs)
}

// entryOf wraps a message body as a one-entry batch payload with the
// given encoding byte.
func entryOf(enc byte, body ...byte) []byte {
	p := []byte{0x01, enc}
	p = binary.AppendUvarint(p, uint64(len(body)))
	return append(p, body...)
}

// dataBodyUpToValue is a KindData entry body up to, not including, the
// value: kind, seq, ack, empty From/Net/Source, time 0.
func dataBodyUpToValue() []byte { return []byte{byte(KindData), 1, 0, 0, 0, 0, 0} }

// hostileLen is a length that fits an int but overflows pos+n.
var hostileLen = binary.AppendUvarint(nil, 1<<63-1)

// hostilePayloads are one-entry batches whose entry, string and packet
// length is hostileLen; each used to slice out of range.
func hostilePayloads() [][]byte {
	entry := append(append([]byte{0x01, 0x00}, hostileLen...), 1, 2, 3)
	str := entryOf(encBinary, append([]byte{byte(KindClose), 1, 0}, hostileLen...)...) // From's length
	pkt := entryOf(encBinary, append(append(dataBodyUpToValue(), valPacket), hostileLen...)...)
	return [][]byte{entry, str, pkt}
}

func TestBatchDecoderRejectsGarbage(t *testing.T) {
	dec := NewBatchDecoder()
	for _, payload := range append([][]byte{
		{},                       // no count
		{0x01},                   // count 1, no entry
		{0x01, 0x00},             // entry without length
		{0x01, 0x00, 0x09},       // binary entry shorter than its length
		{0x01, 0x07, 0x01},       // unknown encoding 7
		{0x01, 0x00, 0x01, 0xff}, // unknown message kind 255
	}, hostilePayloads()...) {
		if _, _, err := dec.DecodeBatchInto(payload, nil); err == nil {
			t.Fatalf("payload %v decoded without error", payload)
		}
	}
}

// TestRetiredGobEntryRejected: encoding byte 1 used to mean "the body
// is a gob-encoded Message". Such an entry, well-formed by the old
// rules, is now refused on the encoding byte alone.
func TestRetiredGobEntryRejected(t *testing.T) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(Message{Kind: KindClose, From: "ss1", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := NewBatchDecoder().DecodeBatchInto(entryOf(1, body.Bytes()...), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown batch encoding 1") {
		t.Fatalf("gob entry: msgs=%v err=%v, want unknown batch encoding 1", msgs, err)
	}
	// The verdict comes before the length and body are even read.
	if _, _, err := NewBatchDecoder().DecodeBatchInto([]byte{0x01, 0x01}, nil); err == nil || !strings.Contains(err.Error(), "unknown batch encoding 1") {
		t.Fatalf("bare encoding byte: err=%v, want unknown batch encoding 1", err)
	}
}

// extBody is a data entry body carrying an extension value whose
// length varint and bytes are given raw.
func extBody(name string, lenAndValue ...byte) []byte {
	b := append(dataBodyUpToValue(), valExt)
	b = appendString(b, name)
	return append(b, lenAndValue...)
}

func TestExtensionValueBoundary(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unregistered name", entryOf(encBinary, extBody("nobody.registered.this", 1, 7)...), `"nobody.registered.this" is not registered`},
		{"truncated body", entryOf(encBinary, extBody("channel.test.customVal", 9, 14, 'x')...), "truncated field"},
		{"hostile body length", entryOf(encBinary, extBody("channel.test.customVal", hostileLen...)...), "truncated field"},
		{"body the type's decoder refuses", entryOf(encBinary, extBody("channel.test.customVal", 0)...), "channel.test.customVal value: customVal: bad A"},
	} {
		msgs, _, err := NewBatchDecoder().DecodeBatchInto(tc.payload, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: msgs=%v err=%v, want error containing %q", tc.name, msgs, err, tc.want)
		}
	}
}

func TestUnregisteredValueFailsEncode(t *testing.T) {
	good := Message{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Value: signal.Word(1)}
	bad := Message{Kind: KindData, From: "ss1", Seq: 2, Net: "link", Source: "p", Value: unregisteredVal{X: 1}}
	payload, n, err := AppendBatch([]byte("prefix"), []Message{bad}, 1<<20)
	if err == nil || !strings.Contains(err.Error(), "channel.unregisteredVal") || !strings.Contains(err.Error(), "channel.RegisterValue") {
		t.Fatalf("err = %v, want one naming the type and channel.RegisterValue", err)
	}
	if n != 0 || string(payload) != "prefix" {
		t.Fatalf("failed encode consumed %d and left %q", n, payload)
	}
	// Behind encodable messages the bad one is left for the next call,
	// where it is first and fails it.
	payload, n, err = AppendBatch(nil, []Message{good, bad}, 1<<20)
	if err != nil || n != 1 {
		t.Fatalf("good-then-bad: n=%d err=%v, want the good message shipped", n, err)
	}
	got, _ := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	mustEqualMessages(t, got, []Message{good})
}

func TestRegisterValueDuplicatePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	enc := func(dst []byte, v customVal) []byte { return dst }
	dec := func([]byte) (customVal, error) { return customVal{}, nil }
	mustPanic("duplicate name", func() {
		RegisterValue("channel.test.customVal", func(dst []byte, v unregisteredVal) []byte { return dst },
			func([]byte) (unregisteredVal, error) { return unregisteredVal{}, nil })
	})
	mustPanic("duplicate type", func() { RegisterValue("channel.test.customVal2", enc, dec) })
	// Neither failed registration left anything behind.
	if _, err := appendValue(nil, unregisteredVal{}); err == nil {
		t.Fatal("a refused registration still took effect")
	}
}
