package channel

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// fuzzBatch builds a batch from fuzz primitives. Each shape byte is
// one run of data messages — its low six bits the length, 1 to 64 —
// and what ends it: nothing but a moved Ack, an ask, a grant with the
// Source changing after it, or a mark. Values cycle through the closed
// tag table and the RegisterValue registry; a run whose shape byte has
// bit 5 set lets Time fall back halfway through, which must split it.
// Empty byte payloads are normalised to a word because the codec
// decodes a zero-length slice as nil.
func fuzzBatch(shape []byte, seq, ack uint64, from, name, tag string, tick uint64, word uint32, pkt []byte) []Message {
	if len(shape) > 8 {
		shape = shape[:8]
	}
	source := from
	start := vtime.Time(tick & uint64(vtime.Infinity)) // a data Time is never negative
	var msgs []Message
	next := func(m Message) {
		m.From, m.Seq, m.Ack = from, seq, ack
		seq++
		msgs = append(msgs, m)
	}
	for _, b := range shape {
		n := int(b&63) + 1
		at := start
		for i := 0; i < n; i++ {
			m := Message{Kind: KindData, Net: name, Source: source, Time: at}
			switch {
			case i%3 == 1:
				m.Value = customVal{A: int(int32(word)) + i, B: string(pkt)}
			case i%3 == 2 && len(pkt) > 0:
				m.Value = signal.Packet(pkt)
			default:
				m.Value = signal.Word(word + uint32(i))
			}
			next(m)
			if at = at.Add(vtime.Duration(word % 1000)); b&32 != 0 && i == n/2 {
				at = start
			}
		}
		switch b >> 6 {
		case 0:
			ack++
		case 1:
			next(Message{Kind: kindSafeTimeReq, Ask: start})
		case 2:
			next(Message{Kind: kindSafeTimeGrant, Grant: start})
			source += "'"
		case 3:
			next(Message{Kind: kindMark, Tag: tag})
		}
	}
	return msgs
}

// FuzzBatchRoundTrip encodes fuzz-derived batches — runs of 1 to 64
// drives with asks, grants and marks between them and with Ack and
// Source changing mid-batch — and requires the decode to reproduce
// every field of every message exactly, a data message's Ack included.
// This covers what a hand-written table never exhausts: hostile
// strings, extreme times, empty payloads, runs that break anywhere.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{0}, uint64(1), uint64(0), "ss1", "link", "snap", uint64(10), uint32(300), []byte{1, 2, 3})
	f.Add([]byte{63, 64 | 5, 128 | 32 | 9, 192, 7}, uint64(1), uint64(0), "ss1", "link", "snap", uint64(10), uint32(300), []byte{1, 2, 3})
	f.Add([]byte{1, 1}, uint64(9), uint64(9), "", "", "", ^uint64(0), uint32(0), []byte{})
	f.Add([]byte{32 | 3, 128}, ^uint64(0)-2, uint64(1), "a\xffb", "n", "t\x00", uint64(1)<<62, uint32(999), []byte(nil))

	f.Fuzz(func(t *testing.T, shape []byte, seq, ack uint64, from, name, tag string, tick uint64, word uint32, pkt []byte) {
		msgs := fuzzBatch(shape, seq, ack, from, name, tag, tick, word, pkt)
		if len(msgs) == 0 {
			return // AppendBatch writes nothing, not an empty frame
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
		if closed {
			t.Fatal("no close in batch, decoder says closed")
		}
		mustRoundTrip(t, got, msgs)

		// The same messages as an endpoint builds them: header room, a
		// small cap that cuts frames anywhere, the message that does not
		// fit opening the next frame.
		limit := 40 + int(word%400)
		b := frameBuilder{room: wire.HeaderLen, limit: limit, size: limit + frameSlack, frame: -1, run: -1}
		for i := range msgs {
			fit, err := b.add(&msgs[i])
			if err == nil && !fit {
				b.seal()
				fit, err = b.add(&msgs[i])
			}
			if err != nil || !fit {
				t.Fatalf("message %d: fit %v, err %v", i, fit, err)
			}
		}
		b.seal()
		frames, taken := b.take()
		if taken != len(msgs) {
			t.Fatalf("sealed frames carry %d messages, want %d", taken, len(msgs))
		}
		dec := NewBatchDecoder()
		got = got[:0]
		for len(frames) > 0 {
			var frame []byte
			frame, frames = wire.NextFrame(frames)
			before := len(got)
			if got, _, err = dec.decodeBatchAppend(frame[wire.HeaderLen:], got); err != nil {
				t.Fatalf("decode frame: %v", err)
			}
			if len(frame) > limit && len(got)-before != 1 {
				t.Fatalf("a %d-byte frame of %d messages passes the %d-byte cap", len(frame), len(got)-before, limit)
			}
		}
		mustRoundTrip(t, got, msgs)
	})
}

func mustRoundTrip(t *testing.T, got, msgs []Message) {
	t.Helper()
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(got[i], msgs[i]) {
			t.Fatalf("message %d mismatch:\n got  %+v\n want %+v", i, got[i], msgs[i])
		}
	}
}

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder: it
// must error or succeed, never panic, and appending to a burst already
// decoded must yield what decoding into an empty buffer yields,
// leaving the burst's earlier messages alone. The cursor, run over the
// same bytes in bursts of 1 to 300 messages, must give the same
// messages, close and error as the whole-frame decode; the one
// difference allowed is the leading items of a run entry that fails
// after an earlier burst handed them on.
func FuzzDecodeBatch(f *testing.F) {
	seeds := 0
	add := func(payload []byte) {
		seeds++
		f.Add(payload, uint16(seeds*37))
	}
	// Valid payloads as seeds, plus the garbage table.
	for _, msgs := range [][]Message{
		{{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Time: 5, Value: signal.Word(1)}},
		{{Kind: kindSafeTimeReq, From: "ss1", Seq: 2, Ask: 100}, {Kind: KindClose, From: "ss1", Seq: 3}},
		{{Kind: KindData, From: "ss1", Seq: 4, Net: "dma", Source: "asic", Time: 9,
			Value: signal.Frame{Src: "a", Dst: "b", Seq: 1, Payload: []byte("xyz"), Last: true}}},
	} {
		payload, _, err := AppendBatch(nil, msgs, 1<<20)
		if err != nil {
			f.Fatal(err)
		}
		add(payload)
		// Truncations of a valid payload probe every partial-field path.
		add(payload[:len(payload)/2])
	}
	add([]byte{})
	add([]byte{0x01, 0x07, 0x01})
	add([]byte{0x01, 0x00, 0x01, 0xff})
	for _, payload := range hostilePayloads() {
		add(payload)
	}
	add(entryOf(1, 0x01, 0x02))                       // the retired gob encoding
	add(extRun("channel.test.customVal", 2, 14, 'x')) // a registered extension value
	add(extRun("nobody.registered.this", 1, 7))
	// Run entries: a whole one, then each way of being wrong.
	add(batchOf(1, runOf(1, wordItem(5), wordItem(0), wordItem(3))))
	add(entryOf(encRun, 1, 0, 0, 0))                                  // header cut short
	add(batchOf(1, runOf(1, wordItem(5), []byte{1, valWord, 0})))     // item cut short
	add(batchOf(1, runOf(1)))                                         // no items
	add(batchOf(1, runOf(1, wordItem(1), wordItem(hostileLen...))))   // ΔTime sum past MaxInt64
	add(batchOf(1, runOf(^uint64(0), wordItem(0), wordItem(0))))      // Seq0+n wraps
	add(batchOf(3, runOf(1, wordItem(0))))                            // count larger than the entries present
	add(entryOf(encBinary, byte(KindData), 1, 0, 0, 0, 0, 0, valNil)) // a drive outside a run entry

	f.Fuzz(func(t *testing.T, payload []byte, size uint16) {
		msgs, closedInto, errInto := NewBatchDecoder().DecodeBatchInto(payload, nil)
		head := Message{Kind: kindMark, Tag: "earlier frame"}
		burst, closedApp, errApp := NewBatchDecoder().decodeBatchAppend(payload, []Message{head})
		if (errApp == nil) != (errInto == nil) || closedApp != closedInto {
			t.Fatalf("decoders disagree: append=(%v, %v) into=(%v, %v)", closedApp, errApp, closedInto, errInto)
		}
		if len(burst) != len(msgs)+1 || !reflect.DeepEqual(burst[0], head) {
			t.Fatalf("append decoded %d messages after %+v, into decoded %d", len(burst)-1, burst[0], len(msgs))
		}

		n := 1 + int(size)%300
		dec := NewBatchDecoder()
		dec.Start(payload)
		var bursts []Message
		var err error
		for done := false; !done; {
			var b []Message
			if b, done, err = dec.Next(make([]Message, 0, n), n); len(b) > n || !done && len(b) == 0 {
				t.Fatalf("a burst of up to %d carried %d messages, done %v", n, len(b), done)
			}
			bursts = append(bursts, b...)
		}
		if fmt.Sprint(err) != fmt.Sprint(errInto) || dec.Closed() != closedInto {
			t.Fatalf("bursts of %d: (%v, %v), whole frame: (%v, %v)", n, dec.Closed(), err, closedInto, errInto)
		}
		if len(bursts) < len(msgs) || len(msgs) > 0 && !reflect.DeepEqual(bursts[:len(msgs)], msgs) {
			t.Fatalf("bursts of %d decoded %d messages, the whole frame %d, and they differ", n, len(bursts), len(msgs))
		}
		for i, m := range bursts[len(msgs):] {
			first := bursts[len(msgs)]
			if err == nil || m.Kind != KindData || m.Seq != first.Seq+uint64(i) || m.Net != first.Net || m.Source != first.Source {
				t.Fatalf("bursts of %d handed on %+v past what the whole frame keeps (err %v)", n, m, err)
			}
		}
	})
}

// FuzzSafeTime is TestSafeTimeModel's walk on a byte stream: the first
// byte picks the topology (its low bit whether one message may be
// forged), every byte after it the next action among those possible, and
// the schedule is then finished as the model finishes one, the model's
// invariants checked after every action.
func FuzzSafeTime(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{3, 0, 0, 0, 7, 9, 1, 1, 250})
	f.Add([]byte{4, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Add([]byte{7, 2, 7, 1, 8, 2, 8, 1, 8, 2, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		top := &modelTopologies[int(data[0]>>1)%len(modelTopologies)]
		w := newWorld(top, data[0]&1 == 1)
		c := &checker{tb: t, top: top, finished: map[string]bool{}}
		var acts []act
		for _, b := range data[1:min(len(data), 1024)] {
			if acts = w.enabled(acts[:0]); len(acts) == 0 {
				break
			}
			c.apply(w, acts[int(b)%len(acts)])
		}
		c.finish(w)
	})
}
