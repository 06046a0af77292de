package channel

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
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
		msgs, c, err := dec.decodeBatchAppend(f, got)
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
		{Kind: kindSafeTimeReq, From: "ss1", Seq: 11, Ack: 4, Ask: 500},
		{Kind: kindSafeTimeGrant, From: "ss1", Seq: 12, Ack: 5, Grant: 400},
		{Kind: kindSafeTimeGrant, From: "ss1", Seq: 13, Ack: 5, Grant: vtime.Infinity},
		{Kind: kindMark, From: "ss1", Seq: 14, Ack: 5, Tag: "snap-1"},
		{Kind: kindRestore, From: "ss1", Seq: 15, Ack: 5, Tag: "snap-1"},
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
		{Kind: kindSafeTimeReq, From: "ss1", Seq: 5, Ask: 100},
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

// fixed is v as a uvarint padded to width bytes: a frame's count, an
// entry's length or an extension body's.
func fixed(width int, v uint64) []byte {
	b := make([]byte, width)
	wire.PutFixed(b, v)
	return b
}

// rawEntry is one batch entry: encoding byte, length, body.
func rawEntry(enc byte, body ...byte) []byte {
	return append(append([]byte{enc}, fixed(entryLenWidth, uint64(len(body)))...), body...)
}

// batchOf is a batch payload announcing count entries and carrying the
// ones given.
func batchOf(count uint64, entries ...[]byte) []byte {
	p := fixed(countWidth, count)
	for _, e := range entries {
		p = append(p, e...)
	}
	return p
}

// entryOf wraps a message body as a one-entry batch payload with the
// given encoding byte.
func entryOf(enc byte, body ...byte) []byte { return batchOf(1, rawEntry(enc, body...)) }

// wordItem is one run item: the ΔTime bytes given, then a word.
func wordItem(delta ...byte) []byte { return append(delta, valWord, 0, 0, 0, 7) }

// hostileLen is a length that fits an int but overflows pos+n.
var hostileLen = binary.AppendUvarint(nil, 1<<63-1)

// hostilePayloads are one-entry batches whose string and packet length
// is hostileLen, and whose entry length is the largest four bytes say;
// each used to slice out of range.
func hostilePayloads() [][]byte {
	entry := batchOf(1, append(append([]byte{encBinary}, fixed(entryLenWidth, maxEntryLen)...), 1, 2, 3))
	str := entryOf(encBinary, append([]byte{byte(KindClose), 1, 0}, hostileLen...)...) // From's length
	pkt := batchOf(1, runOf(1, append([]byte{0, valPacket}, hostileLen...)))
	return [][]byte{entry, str, pkt}
}

func TestBatchDecoderRejectsGarbage(t *testing.T) {
	dec := NewBatchDecoder()
	for _, payload := range append([][]byte{
		{},                            // no count
		batchOf(1),                    // count 1, no entry
		batchOf(1, []byte{encBinary}), // entry without length
		batchOf(1, []byte{encBinary}, fixed(entryLenWidth, 9)), // binary entry shorter than its length
		batchOf(1, rawEntry(7, 1)),                             // unknown encoding 7
		batchOf(1, rawEntry(encBinary, 0xff)),                  // unknown message kind 255
	}, hostilePayloads()...) {
		if _, _, err := dec.DecodeBatchInto(payload, nil); err == nil {
			t.Fatalf("payload %v decoded without error", payload)
		}
	}
}

// runOf is a run entry from seq0 with ack 0, empty names and the given
// items.
func runOf(seq0 uint64, items ...[]byte) []byte {
	body := append(binary.AppendUvarint(nil, seq0), 0, 0, 0, 0)
	for _, it := range items {
		body = append(body, it...)
	}
	return rawEntry(encRun, body...)
}

// TestCorruptRunKeepsEarlierWholeEntries: every way a run entry can be
// wrong is a decode error, never a panic or a silent truncation, and it
// costs the frame that entry and what follows — the whole entries
// before it are returned, the corrupt run's own leading items are not.
func TestCorruptRunKeepsEarlierWholeEntries(t *testing.T) {
	ask := Message{Kind: kindSafeTimeReq, From: "ss1", Seq: 1, Ask: 9}
	payload, _, err := AppendBatch(nil, []Message{ask}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	good := payload[countWidth:] // the ask's entry, without the frame's count
	askBody := good[1+entryLenWidth:]
	run := append([]byte{2, 0, 0, 0, 0}, wordItem(0)...) // a whole run entry's body: Seq0 2, one word
	nilItems := make([][]byte, maxBatchMsgs)
	for i := range nilItems {
		nilItems[i] = []byte{0, valNil}
	}
	for _, tc := range []struct {
		name  string
		count uint64
		entry []byte
		want  string
	}{
		{"drive outside a run entry", 2, rawEntry(encBinary, byte(KindData), 2, 0, 0, 0, 0, 0, valNil), "unknown message kind 0"},
		{"header cut short", 2, rawEntry(encRun, 2, 0, 0, 0), "truncated"},
		{"no items", 2, runOf(2), "empty run"},
		{"second item cut short", 2, runOf(2, wordItem(3), []byte{1, valWord, 0}), "short body"},
		{"ΔTime sum past MaxInt64", 2, runOf(2, wordItem(1), wordItem(hostileLen...)), "overflows"},
		{"Seq0+n wraps", 2, runOf(^uint64(0), wordItem(0), wordItem(0)), "wraps"},
		{"one message past the cap", 2, runOf(2, nilItems...), "more than 65536 messages"},
		{"retired gob entry", 2, rawEntry(1, 0x01, 0x02), "unknown batch encoding 1"},
		{"count larger than the entries present", 3, runOf(2, wordItem(0)), "short body"},
		{"Seq0 in a padded varint", 2, rawEntry(encRun, append([]byte{0x82, 0x00}, run[1:]...)...), "fewer suffice"},
		{"Ack in a padded varint", 2, rawEntry(encRun, append([]byte{2, 0x80, 0x00}, run[2:]...)...), "fewer suffice"},
		{"ΔTime in a padded varint", 2, runOf(2, wordItem(0x80, 0x00)), "fewer suffice"},
		{"entry length in one byte", 2, append([]byte{encRun, byte(len(run))}, run...), "padded to 4 bytes"},
		{"control entry with a trailing byte", 2, rawEntry(encBinary, append(slices.Clone(askBody), 0)...), "1 trailing bytes"},
	} {
		msgs, _, err := NewBatchDecoder().DecodeBatchInto(batchOf(tc.count, good, tc.entry), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want one containing %q", tc.name, err, tc.want)
			continue
		}
		want := []Message{ask}
		if tc.count == 3 { // its run was whole; the entry after it is what is missing
			want = append(want, Message{Kind: KindData, Seq: 2, Value: signal.Word(7)})
		}
		if !reflect.DeepEqual(msgs, want) {
			t.Errorf("%s: kept %+v, want %+v", tc.name, msgs, want)
		}
	}
	// The cap itself is legal: a frame of exactly maxBatchMsgs decodes.
	msgs, _, err := NewBatchDecoder().DecodeBatchInto(batchOf(1, runOf(1, nilItems...)), nil)
	if err != nil || len(msgs) != maxBatchMsgs || msgs[maxBatchMsgs-1].Seq != maxBatchMsgs {
		t.Fatalf("frame at the cap: %d messages, err=%v", len(msgs), err)
	}
}

// TestAppendBatchStopsAtMessageCap: the encoder never builds the frame
// the decoder refuses; what is past the cap is the next frame's.
func TestAppendBatchStopsAtMessageCap(t *testing.T) {
	msgs := make([]Message, maxBatchMsgs+5)
	for i := range msgs {
		msgs[i] = Message{Kind: KindData, From: "ss1", Seq: uint64(i + 1), Net: "link", Source: "p", Time: vtime.Time(i)}
	}
	first, n, err := AppendBatch(nil, msgs, 1<<30)
	if err != nil || n != maxBatchMsgs {
		t.Fatalf("first frame took %d of %d (err=%v), want %d", n, len(msgs), err, maxBatchMsgs)
	}
	second, n, err := AppendBatch(nil, msgs[n:], 1<<30)
	if err != nil || n != 5 {
		t.Fatalf("second frame took %d (err=%v), want 5", n, err)
	}
	got, _ := decodeAll(t, NewBatchDecoder(), [][]byte{first, second})
	mustEqualMessages(t, got, msgs)
}

// TestRunBreakRule: consecutive drives share a run entry exactly while
// From, Net, Source and Ack repeat, Seq steps by one and Time does not
// fall; a lone drive is a run of one, and a negative Time has no
// encoding.
func TestRunBreakRule(t *testing.T) {
	d := func(seq, ack uint64, from, net, src string, at vtime.Time) Message {
		return Message{Kind: KindData, From: from, Seq: seq, Ack: ack, Net: net, Source: src, Time: at, Value: signal.Word(uint32(seq))}
	}
	for _, tc := range []struct {
		name    string
		msgs    []Message
		entries uint64
	}{
		{"a lone drive", []Message{d(1, 0, "a", "n", "s", 5)}, 1},
		{"a burst", []Message{d(1, 0, "a", "n", "s", 5), d(2, 0, "a", "n", "s", 5), d(3, 0, "a", "n", "s", 9)}, 1},
		{"Ack moves", []Message{d(1, 0, "a", "n", "s", 5), d(2, 1, "a", "n", "s", 6)}, 2},
		{"Source changes", []Message{d(1, 0, "a", "n", "s", 5), d(2, 0, "a", "n", "s2", 6)}, 2},
		{"Net changes", []Message{d(1, 0, "a", "n", "s", 5), d(2, 0, "a", "n2", "s", 6)}, 2},
		{"From changes", []Message{d(1, 0, "a", "n", "s", 5), d(2, 0, "b", "n", "s", 6)}, 2},
		{"Seq skips", []Message{d(1, 0, "a", "n", "s", 5), d(3, 0, "a", "n", "s", 6)}, 2},
		{"Time falls", []Message{d(1, 0, "a", "n", "s", 5), d(2, 0, "a", "n", "s", 4)}, 2},
		{"a grant between", []Message{d(1, 0, "a", "n", "s", 5), {Kind: kindSafeTimeGrant, From: "a", Seq: 2, Grant: 7}, d(3, 0, "a", "n", "s", 6)}, 3},
	} {
		payload, n, err := AppendBatch(nil, tc.msgs, 1<<20)
		if err != nil || n != len(tc.msgs) {
			t.Fatalf("%s: consumed %d of %d, err=%v", tc.name, n, len(tc.msgs), err)
		}
		if entries, _ := binary.Uvarint(payload); entries != tc.entries {
			t.Errorf("%s: %d entries, want %d", tc.name, entries, tc.entries)
		}
		got, _ := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
		mustEqualMessages(t, got, tc.msgs)
	}
	if _, n, err := AppendBatch(nil, []Message{d(1, 0, "a", "n", "s", -1)}, 1<<20); err == nil || n != 0 {
		t.Fatalf("negative time encoded: n=%d err=%v", n, err)
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
	if _, _, err := NewBatchDecoder().DecodeBatchInto(batchOf(1, []byte{1}), nil); err == nil || !strings.Contains(err.Error(), "unknown batch encoding 1") {
		t.Fatalf("bare encoding byte: err=%v, want unknown batch encoding 1", err)
	}
}

// extRun is a one-entry batch: a run of one item carrying an extension
// value whose length varint and bytes are given raw.
func extRun(name string, lenAndValue ...byte) []byte {
	item := wire.AppendString([]byte{0, valExt}, name)
	return batchOf(1, runOf(1, append(item, lenAndValue...)))
}

func TestExtensionValueBoundary(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unregistered name", extRun("nobody.registered.this", append(fixed(entryLenWidth, 1), 7)...), `"nobody.registered.this" is not registered`},
		{"truncated body", extRun("channel.test.customVal", append(fixed(entryLenWidth, 9), 14, 'x')...), "short body"},
		{"hostile body length", extRun("channel.test.customVal", fixed(entryLenWidth, maxEntryLen)...), "short body"},
		{"body the type's decoder refuses", extRun("channel.test.customVal", fixed(entryLenWidth, 0)...), "channel.test.customVal value: customVal: bad A"},
		{"body length in one byte", extRun("channel.test.customVal", 2, 14, 'x', 0), "padded to 4 bytes"},
	} {
		msgs, _, err := NewBatchDecoder().DecodeBatchInto(tc.payload, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: msgs=%v err=%v, want error containing %q", tc.name, msgs, err, tc.want)
		}
	}
}

// TestDecodeRefusesNonCanonical: every value has one encoding, and the
// batch decoder reads no other — no padded varint, no count or length
// in another width than its fixed one, no byte after a value read alone
// or after a frame's last entry — so what it accepts re-encodes to the
// same bytes.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value []byte
		want  string
	}{
		{"a trailing byte", []byte{valWord, 0, 0, 1, 0, 0}, "1 trailing bytes"},
		{"an int in a padded varint", []byte{valInt, 0x80, 0x80, 0x00}, "fewer suffice"},
		{"a packet length in a padded varint", []byte{valPacket, 0x81, 0x00, 7}, "fewer suffice"},
	} {
		if v, err := NewBatchDecoder().DecodeValue(tc.value); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeValue = %v, %v; want an error containing %q", tc.name, v, err, tc.want)
		}
	}
	one := batchOf(1, runOf(1, wordItem(5)))
	if msgs, _, err := NewBatchDecoder().DecodeBatchInto(one, nil); err != nil || len(msgs) != 1 {
		t.Fatalf("the canonical frame: %d messages, %v", len(msgs), err)
	}
	short := append(binary.AppendUvarint(nil, 1), one[countWidth:]...)
	if _, _, err := NewBatchDecoder().DecodeBatchInto(short, nil); err == nil || !strings.Contains(err.Error(), "padded to 10 bytes") {
		t.Errorf("a count in one byte: %v", err)
	}
	// The entries before the stray byte are whole: they are returned
	// with the error, as the whole entries before a corrupt one are.
	msgs, _, err := NewBatchDecoder().DecodeBatchInto(append(one, 0), nil)
	if err == nil || !strings.Contains(err.Error(), "1 trailing bytes") || len(msgs) != 1 {
		t.Errorf("a byte after the last entry: %d messages, %v", len(msgs), err)
	}
}

// TestInternKeepsOnlyShortNames pins what a decoder retains of the
// names a peer sends: a name past maxInternLen is decoded but not kept,
// so fresh long names cannot pile up for the connection's lifetime.
func TestInternKeepsOnlyShortNames(t *testing.T) {
	dec := NewBatchDecoder()
	retained := func() (n int) {
		for k := range dec.names {
			n += len(k)
		}
		return n
	}
	for i := range 20 {
		long := strings.Repeat(string(rune('a'+i)), 64<<10)
		edge := strings.Repeat(string(rune('a'+i)), maxInternLen)
		msgs := []Message{
			{Kind: KindData, From: "ss1", Seq: uint64(2*i + 1), Net: long, Source: "p", Value: signal.Word(1)},
			{Kind: KindData, From: "ss1", Seq: uint64(2*i + 2), Net: edge, Source: "p", Value: signal.Word(2)},
		}
		payload, _, err := AppendBatch(nil, msgs, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := decodeAll(t, dec, [][]byte{payload})
		mustEqualMessages(t, got, msgs)
	}
	// ss1, p and the twenty names of exactly maxInternLen bytes.
	if want := len("ss1") + len("p") + 20*maxInternLen; retained() != want || len(dec.names) != 22 {
		t.Errorf("retained %d bytes in %d names, want %d in 22", retained(), len(dec.names), want)
	}
	for i := range 2 * maxInterned {
		payload, _, err := AppendBatch(nil, []Message{{Kind: KindData, From: "ss1", Seq: uint64(i + 1), Net: strings.Repeat("n", maxInternLen-4) + string(binary.AppendUvarint(nil, uint64(i))), Source: "p", Value: signal.Word(1)}}, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		decodeAll(t, dec, [][]byte{payload})
	}
	if n := retained(); len(dec.names) != maxInterned || n > maxInterned*maxInternLen {
		t.Errorf("retained %d bytes in %d names, want at most %d in %d", n, len(dec.names), maxInterned*maxInternLen, maxInterned)
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
	if _, err := AppendValue(nil, unregisteredVal{}); err == nil {
		t.Fatal("a refused registration still took effect")
	}
}

// TestCursorBurstsDoNotAliasThePayload: the cursor borrows the frame's
// payload, and nothing it hands on may. A frame of words, packets and
// frames is decoded in bursts; after each hand-off the bytes the cursor
// has moved past are overwritten with a poison byte, and after the last
// the whole payload is. Every delivered message must still equal the
// one encoded — and the bursts after a poisoning must decode as if
// nothing had happened, so the cursor never reads back.
func TestCursorBurstsDoNotAliasThePayload(t *testing.T) {
	const poison = 0xa5
	var msgs []Message
	seq := uint64(0)
	for i := 0; i < 700; i++ {
		seq++
		m := Message{Kind: KindData, From: "modemsite", Seq: seq, Ack: uint64(i / 50), Net: "dma", Source: "asic", Time: vtime.Time(1000 + 10*i)}
		switch i % 5 {
		case 1:
			m.Value = signal.Packet(bytes.Repeat([]byte{byte(i)}, 1+i%9*(i%3)*700)) // up to 5.6 KB: slab and own copies
		case 3:
			m.Value = signal.Frame{Src: "a", Dst: "b", Seq: uint32(i), Payload: bytes.Repeat([]byte{byte(i >> 1)}, 1+i%64), Last: i%2 == 0}
		default:
			m.Value = signal.Word(0xbeef0000 + uint32(i)) // past 255: chunk boxes
		}
		msgs = append(msgs, m)
		if i%97 == 0 {
			seq++
			msgs = append(msgs, Message{Kind: kindSafeTimeReq, From: "modemsite", Seq: seq, Ack: uint64(i / 50), Ask: vtime.Time(i)})
		}
	}
	payload, n, err := AppendBatch(nil, msgs, 1<<30)
	if err != nil || n != len(msgs) {
		t.Fatalf("encoded %d of %d: %v", n, len(msgs), err)
	}
	for _, size := range []int{1, 7, 256} {
		p := append([]byte(nil), payload...)
		dec := NewBatchDecoder()
		dec.Start(p)
		var got []Message
		for done := false; !done; {
			var burst []Message
			if burst, done, err = dec.Next(make([]Message, 0, size), size); err != nil {
				t.Fatalf("bursts of %d: %v", size, err)
			}
			got = append(got, burst...)
			read := len(p) - dec.frame.Left() - dec.items.Left() // what the cursor has moved past
			for i := range p[:read] {
				p[i] = poison
			}
		}
		for i := range p {
			p[i] = poison
		}
		mustEqualMessages(t, got, msgs)
	}
}
