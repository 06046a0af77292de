package channel

import (
	"reflect"
	"testing"

	"repro/internal/signal"
	"repro/internal/vtime"
)

func init() { Register() }

// fuzzMessage builds one message from fuzz primitives. Kinds cycle
// through the whole protocol; ext selects whether data values come
// from the closed tag table or the RegisterValue registry. Empty byte
// payloads are normalised to a word because the codec decodes a
// zero-length slice as nil.
func fuzzMessage(ext bool, kindSel uint8, seq, ack uint64, from, name, tag string, tick uint64, word uint32, pkt []byte) Message {
	kinds := []Kind{KindData, KindSafeTimeReq, KindSafeTimeGrant, KindMark, KindRestore, KindClose}
	m := Message{Kind: kinds[int(kindSel)%len(kinds)], From: from, Seq: seq, Ack: ack}
	switch m.Kind {
	case KindData:
		m.Net, m.Source, m.Time = name, from, vtime.Time(tick)
		switch {
		case ext:
			m.Value = customVal{A: int(int32(word)), B: string(pkt)}
		case len(pkt) == 0:
			m.Value = signal.Word(word)
		default:
			m.Value = signal.Packet(pkt)
		}
	case KindSafeTimeReq:
		m.Ask = vtime.Time(tick)
	case KindSafeTimeGrant:
		m.Grant = vtime.Time(tick)
	case KindMark, KindRestore:
		m.Tag = tag
	}
	return m
}

// FuzzBatchRoundTrip encodes fuzz-derived message batches — data
// values from the closed tag table or from the extension registry —
// and requires the decode to reproduce them exactly. This covers what
// a hand-written table never exhausts: hostile strings, extreme
// times, empty payloads.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(false, uint8(0), uint64(1), uint64(0), "ss1", "link", "snap", uint64(10), uint32(300), []byte{1, 2, 3})
	f.Add(true, uint8(0), uint64(1), uint64(0), "ss1", "link", "snap", uint64(10), uint32(300), []byte{1, 2, 3})
	f.Add(false, uint8(5), uint64(9), uint64(9), "", "", "", ^uint64(0), uint32(0), []byte{})
	f.Add(true, uint8(3), uint64(0), uint64(1), "a\xffb", "n", "t\x00", uint64(1)<<62, uint32(1), []byte(nil))

	f.Fuzz(func(t *testing.T, ext bool, kindSel uint8, seq, ack uint64, from, name, tag string, tick uint64, word uint32, pkt []byte) {
		msgs := []Message{
			fuzzMessage(ext, kindSel, seq, ack, from, name, tag, tick, word, pkt),
			fuzzMessage(ext, kindSel+1, seq+1, ack, from, name, tag, tick/2, word+1, nil),
			fuzzMessage(!ext, kindSel+2, seq+2, ack+1, name, from, tag, tick+1, word, pkt),
		}
		payload, n, err := AppendBatch(nil, msgs, 1<<20)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if n != len(msgs) {
			t.Fatalf("encode consumed %d of %d", n, len(msgs))
		}
		got, closed, err := NewBatchDecoder().DecodeBatchInto(payload, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		wantClosed := false
		for _, m := range msgs {
			wantClosed = wantClosed || m.Kind == KindClose
		}
		if closed != wantClosed {
			t.Fatalf("closed=%v, want %v", closed, wantClosed)
		}
		if len(got) != len(msgs) {
			t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
		}
		for i := range msgs {
			if !reflect.DeepEqual(got[i], msgs[i]) {
				t.Fatalf("message %d (ext=%v) mismatch:\n got  %+v\n want %+v", i, ext, got[i], msgs[i])
			}
		}
	})
}

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder: it
// must error or succeed, never panic, and appending to a burst already
// decoded must yield what decoding into an empty buffer yields,
// leaving the burst's earlier messages alone.
func FuzzDecodeBatch(f *testing.F) {
	// Valid payloads as seeds, plus the garbage table.
	for _, msgs := range [][]Message{
		{{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Time: 5, Value: signal.Word(1)}},
		{{Kind: KindSafeTimeReq, From: "ss1", Seq: 2, Ask: 100}, {Kind: KindClose, From: "ss1", Seq: 3}},
		{{Kind: KindData, From: "ss1", Seq: 4, Net: "dma", Source: "asic", Time: 9,
			Value: signal.Frame{Src: "a", Dst: "b", Seq: 1, Payload: []byte("xyz"), Last: true}}},
	} {
		payload, _, err := AppendBatch(nil, msgs, 1<<20)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		// Truncations of a valid payload probe every partial-field path.
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x07, 0x01})
	f.Add([]byte{0x01, 0x00, 0x01, 0xff})
	for _, payload := range hostilePayloads() {
		f.Add(payload)
	}
	f.Add(entryOf(1, 0x01, 0x02))                                               // the retired gob encoding
	f.Add(entryOf(encBinary, extBody("channel.test.customVal", 2, 14, 'x')...)) // a registered extension value
	f.Add(entryOf(encBinary, extBody("nobody.registered.this", 1, 7)...))

	f.Fuzz(func(t *testing.T, payload []byte) {
		msgs, closedInto, errInto := NewBatchDecoder().DecodeBatchInto(payload, nil)
		head := Message{Kind: KindMark, Tag: "earlier frame"}
		burst, closedApp, errApp := NewBatchDecoder().DecodeBatchAppend(payload, []Message{head})
		if (errApp == nil) != (errInto == nil) || closedApp != closedInto {
			t.Fatalf("decoders disagree: append=(%v, %v) into=(%v, %v)", closedApp, errApp, closedInto, errInto)
		}
		if len(burst) != len(msgs)+1 || !reflect.DeepEqual(burst[0], head) {
			t.Fatalf("append decoded %d messages after %+v, into decoded %d", len(burst)-1, burst[0], len(msgs))
		}
	})
}
