package channel

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// protocolMix is the steady-state remote hot path: data drives
// carrying small words, safe-time asks and grants. Word values stay
// below 256 so decoding boxes them from the runtime's static cells;
// larger words share one 1 KB chunk per 256 words on decode, the one
// residual allocation of a word — see TestDecodeLargeWordsOneChunkPer256.
func protocolMix() []Message {
	return []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Ack: 3, Net: "dmaLink", Source: "cpu", Time: 100, Value: signal.Word(17)},
		{Kind: KindData, From: "ss1", Seq: 2, Ack: 3, Net: "dmaLink", Source: "cpu", Time: 110, Value: signal.Level(true)},
		{Kind: KindData, From: "ss1", Seq: 3, Ack: 4, Net: "dmaLink", Source: "cpu", Time: 120, Value: signal.Byte(200)},
		{Kind: kindSafeTimeReq, From: "ss1", Seq: 4, Ack: 4, Ask: 500},
		{Kind: kindSafeTimeGrant, From: "ss1", Seq: 5, Ack: 5, Grant: vtime.Infinity},
	}
}

// TestCodecZeroAlloc is the CI guard for the zero-copy wire path:
// with recycled buffers, encoding a protocol batch and decoding it
// back perform exactly zero allocations per operation.
func TestCodecZeroAlloc(t *testing.T) {
	msgs := protocolMix()

	var dst []byte
	if avg := testing.AllocsPerRun(200, func() {
		var err error
		dst, _, err = AppendBatch(dst[:0], msgs, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AppendBatch allocates %.2f/op with a recycled buffer, want 0", avg)
	}

	// The registry lookup for an extension value allocates nothing
	// either (decoding one boxes the value, like a large word).
	ext := []Message{{Kind: KindData, From: "ss1", Seq: 6, Ack: 5, Net: "dmaLink", Source: "cpu", Time: 130, Value: customVal{A: 3, B: "url"}}}
	if avg := testing.AllocsPerRun(200, func() {
		var err error
		dst, _, err = AppendBatch(dst[:0], ext, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AppendBatch of a registered value allocates %.2f/op with a recycled buffer, want 0", avg)
	}

	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBatchDecoder()
	var buf []Message
	if avg := testing.AllocsPerRun(200, func() {
		var err error
		buf, _, err = dec.DecodeBatchInto(payload, buf)
		if err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeBatchInto allocates %.2f/op on protocol traffic, want 0", avg)
	}
}

// TestDecodePacketAmortizedAlloc pins the slab arena: decoding a
// packet costs exactly its interface box (the any-typed Value field
// heap-allocates a slice header — runtime.convTslice), while the
// payload bytes themselves come from the recycled slab. Without the
// slab each packet would cost two allocations; a regression past one
// box per packet (plus the rare slab refill) is caught here.
func TestDecodePacketAmortizedAlloc(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Net: "dma", Source: "asic", Time: 50, Value: make(signal.Packet, 64)},
		{Kind: KindData, From: "ss1", Seq: 2, Net: "dma", Source: "asic", Time: 60, Value: make(signal.Packet, 64)},
	}
	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBatchDecoder()
	var buf []Message
	if avg := testing.AllocsPerRun(500, func() {
		var err error
		buf, _, err = dec.DecodeBatchInto(payload, buf)
		if err != nil {
			t.Fatal(err)
		}
	}); avg > 2.05 {
		t.Fatalf("packet decode allocates %.3f/batch of 2 packets, want <= 2 boxes + amortized slab", avg)
	}
}

// TestDecodeLargeWordsOneChunkPer256 guards the one allocation decode
// keeps for words: a signal.Word >= 256 is boxed into the decoder's
// current 1 KB chunk (signal.WordBoxes), so a run of 1 024 of them costs
// one chunk per 256 words, plus at most one for a chunk left part-full
// by the previous run.
func TestDecodeLargeWordsOneChunkPer256(t *testing.T) {
	const n = 1024
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{Kind: KindData, From: "ss1", Seq: uint64(i + 1), Net: "dma", Source: "cpu", Time: vtime.Time(10 * i), Value: signal.Word(0xdead0000 + i)}
	}
	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBatchDecoder()
	var buf []Message
	if buf, _, err = dec.DecodeBatchInto(payload, buf); err != nil || len(buf) != n {
		t.Fatalf("decode: %d messages, %v", len(buf), err)
	}
	for i, m := range buf {
		if m.Value != msgs[i].Value {
			t.Fatalf("message %d carries %v, want %v", i, m.Value, msgs[i].Value)
		}
	}
	const want = n/signal.WordChunk + 1
	if avg := testing.AllocsPerRun(200, func() {
		buf, _, _ = dec.DecodeBatchInto(payload, buf)
	}); avg > want {
		t.Fatalf("decoding %d large words allocates %.2f/op, want <= %d (one chunk per %d words)", n, avg, want, signal.WordChunk)
	}
}

// TestDecodeBusCyclesOneChunkPer256 guards the bus-cycle box: a
// hardware-level run of 1 024 cycles decodes into the decoder's current
// 3 KB chunk (signal.BusCycleBoxes), one chunk per 256 cycles plus at
// most one left part-full by the previous run, not a box a byte.
func TestDecodeBusCyclesOneChunkPer256(t *testing.T) {
	const n = 1024
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{Kind: KindData, From: "ss1", Seq: uint64(i + 1), Net: "bus", Source: "dma", Time: vtime.Time(3 * i),
			Value: signal.BusCycle{Addr: uint32(i), Data: signal.Word(i & 0xff), Write: true}}
	}
	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBatchDecoder()
	var buf []Message
	if buf, _, err = dec.DecodeBatchInto(payload, buf); err != nil || len(buf) != n {
		t.Fatalf("decode: %d messages, %v", len(buf), err)
	}
	for i, m := range buf {
		if m.Value != msgs[i].Value {
			t.Fatalf("message %d carries %v, want %v", i, m.Value, msgs[i].Value)
		}
	}
	const want = n/signal.BusCycleChunk + 1
	if avg := testing.AllocsPerRun(200, func() {
		buf, _, _ = dec.DecodeBatchInto(payload, buf)
	}); avg > want {
		t.Fatalf("decoding %d bus cycles allocates %.2f/op, want <= %d (one chunk per %d cycles)", n, avg, want, signal.BusCycleChunk)
	}
}

// TestDecodeFramesOneChunkPer16 guards the frame box: a packet-level
// run of frames decodes each frame that is not Last into the decoder's
// current signal.FrameBoxes chunk, so 1 000 frames cost one chunk per
// signal.FrameChunk frames — plus one left part-full by the previous
// run and the payload slab's refills — not a box each; and the Last
// frame is boxed alone, outside the chunk its siblings fill.
func TestDecodeFramesOneChunkPer16(t *testing.T) {
	const n = 1000 // the last chunk of the run is half full
	msgs := make([]Message, n+1)
	for i := range msgs {
		msgs[i] = Message{Kind: KindData, From: "ss1", Seq: uint64(i + 1), Net: "dma", Source: "asic", Time: vtime.Time(20 * i),
			Value: signal.Frame{Seq: uint32(i), Payload: []byte{byte(i), byte(i >> 8)}, Last: i == n}}
	}
	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBatchDecoder()
	var buf []Message
	if buf, _, err = dec.DecodeBatchInto(payload, buf); err != nil || len(buf) != n+1 {
		t.Fatalf("decode: %d messages, %v", len(buf), err)
	}
	for i, m := range buf {
		if !reflect.DeepEqual(m.Value, msgs[i].Value) {
			t.Fatalf("message %d carries %v, want %v", i, m.Value, msgs[i].Value)
		}
	}
	data := func(v any) uintptr { return uintptr((*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]) }
	size := unsafe.Sizeof(signal.Frame{})
	open := data(buf[n-1].Value) - uintptr((n-1)%signal.FrameChunk)*size // the chunk frame n-1 sits in
	if last := data(buf[n].Value); last >= open && last < open+signal.FrameChunk*size {
		t.Fatalf("the Last frame shares the chunk of frames %d..%d", n-1-(n-1)%signal.FrameChunk, n-1)
	}
	// 2 001 payload bytes: a 64 KB slab refills once every 32 decodes.
	const want = n/signal.FrameChunk + 1 + 1 + 1
	if avg := testing.AllocsPerRun(200, func() {
		buf, _, _ = dec.DecodeBatchInto(payload, buf)
	}); avg > want {
		t.Fatalf("decoding %d frames allocates %.2f/op, want <= %d (one chunk per %d frames, the Last box, a slab refill)", n+1, avg, want, signal.FrameChunk)
	}
}

// BenchmarkAppendBatch measures the steady-state encode of one
// protocol batch into a recycled buffer.
func BenchmarkAppendBatch(b *testing.B) {
	msgs := protocolMix()
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = AppendBatch(dst[:0], msgs, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBatchInto measures the steady-state decode of one
// protocol batch into a recycled message buffer.
func BenchmarkDecodeBatchInto(b *testing.B) {
	payload, _, err := AppendBatch(nil, protocolMix(), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	dec := NewBatchDecoder()
	var buf []Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _, err = dec.DecodeBatchInto(payload, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestPublishZeroAlloc guards the hub's per-publication work: the
// safe-time grant fan-out that runs after every key publication, and the
// flush of every endpoint at every stall, read the copy-on-write
// endpoint list and the hub's scratch in place — no copy of the list, no
// bounds slice — so they allocate nothing.
func TestPublishZeroAlloc(t *testing.T) {
	h := NewHub(core.NewSubsystem("hub"))
	for _, peer := range []string{"a", "b", "c"} {
		tr, _ := Pipe()
		if _, err := h.NewEndpoint(peer, Conservative, LinkModel{Latency: 10}, tr); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		h.publish(0, 0)
		h.flushAll()
	}); avg != 0 {
		t.Fatalf("a key publication and a stall flush allocate %.2f/op, want 0", avg)
	}
}

// TestOnMessagesZeroAlloc guards the ingress burst: handing a decoded
// burst to OnMessages and running the step it injects — the burst's
// pooled record, with its cursor and its step bound once — allocate
// nothing after warm-up: no closure, no captured counter, no buffer.
func TestOnMessagesZeroAlloc(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently, and its sync.Pool drops items")
	}
	s := core.NewSubsystem("b")
	if _, err := s.NewNet("dmaLink", 0); err != nil {
		t.Fatal(err)
	}
	tr, _ := Pipe()
	ep, err := NewHub(s).NewEndpoint("a", Optimistic, LinkModel{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	burst := func() {
		b := BatchBuf()
		for i := 0; i < 4; i++ {
			seq++
			b.Msgs = append(b.Msgs, Message{Kind: KindData, From: "a", Seq: seq, Net: "dmaLink", Source: "cpu",
				Time: vtime.Time(10 * seq), Value: signal.Word(17)})
		}
		ep.OnMessages(b)
		if err := s.Run(vtime.Time(10*seq + 5)); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if avg := testing.AllocsPerRun(200, burst); avg != 0 {
		t.Fatalf("a burst through OnMessages and its step allocates %.2f times, want 0", avg)
	}
	if q, h := ep.QueuedCount(), ep.HandledCount(); q != int64(seq) || h != q {
		t.Fatalf("queued %d, handled %d, want %d each", q, h, seq)
	}
	if st := s.Stats(); st.Drives != int64(seq) {
		t.Fatalf("%d drives for %d messages", st.Drives, seq)
	}
}
