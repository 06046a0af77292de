package channel

import (
	"testing"

	"repro/internal/signal"
	"repro/internal/vtime"
)

// protocolMix is the steady-state remote hot path: data drives
// carrying small words, safe-time asks and grants. Word values stay
// below 256 so decoding boxes them from the runtime's static cells;
// larger words cost one interface-box allocation per message on
// decode (runtime.convT32), which is the one residual allocation the
// codec cannot remove — see TestDecodeLargeWordBoxes.
func protocolMix() []Message {
	return []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Ack: 3, Net: "dmaLink", Source: "cpu", Time: 100, Value: signal.Word(17)},
		{Kind: KindData, From: "ss1", Seq: 2, Ack: 3, Net: "dmaLink", Source: "cpu", Time: 110, Value: signal.Level(true)},
		{Kind: KindData, From: "ss1", Seq: 3, Ack: 4, Net: "dmaLink", Source: "cpu", Time: 120, Value: signal.Byte(200)},
		{Kind: KindSafeTimeReq, From: "ss1", Seq: 4, Ack: 4, Ask: 500},
		{Kind: KindSafeTimeGrant, From: "ss1", Seq: 5, Ack: 5, Grant: vtime.Infinity},
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

// TestDecodeLargeWordBoxes documents the residual allocation the
// zero-copy decode cannot remove: a signal.Word >= 256 boxes into the
// Message's any-typed Value field (one runtime.convT32 per message).
// The guard is an upper bound so a regression past one box per
// message is still caught.
func TestDecodeLargeWordBoxes(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Net: "dma", Source: "cpu", Time: 10, Value: signal.Word(0xdeadbeef)},
	}
	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBatchDecoder()
	var buf []Message
	if avg := testing.AllocsPerRun(200, func() {
		buf, _, _ = dec.DecodeBatchInto(payload, buf)
	}); avg > 1 {
		t.Fatalf("large-word decode allocates %.2f/op, want <= 1 (the interface box)", avg)
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
