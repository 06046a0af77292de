package channel

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// fakeBatchTr records what the endpoint hands the transport; the
// tests assert how many messages each SendBatch carried.
type fakeBatchTr struct {
	mu      sync.Mutex
	batches [][]Message
}

func (f *fakeBatchTr) SendBatch(msgs []Message) error {
	cp := append([]Message(nil), msgs...)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, cp)
	return nil
}

func (f *fakeBatchTr) Close() error { return nil }

func (f *fakeBatchTr) snapshot() [][]Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]Message(nil), f.batches...)
}

func coalescingEndpoint(t *testing.T, cfg CoalesceConfig) (*Endpoint, *fakeBatchTr) {
	t.Helper()
	sub := core.NewSubsystem("ss1")
	h := NewHub(sub)
	tr := &fakeBatchTr{}
	// A small deterministic link (like the rest of the suite): drive(i)
	// arrives at roughly i+6 with no queueing.
	ep, err := h.NewEndpoint("peer", Conservative, LinkModel{Latency: 5, PerMessage: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	ep.SetCoalescing(cfg)
	return ep, tr
}

func drive(ep *Endpoint, i int) {
	ep.egress("link", &core.Msg{Sent: vtime.Time(i), Value: signal.Word(uint32(i)), Source: "prod"})
}

func TestEmptyFlushIsNoOp(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 16})
	ep.Flush()
	ep.Flush()
	if batches := tr.snapshot(); len(batches) != 0 {
		t.Fatalf("empty flush sent %d batches", len(batches))
	}
	if st := ep.Stats(); st.Flushes != 0 {
		t.Fatalf("empty flushes counted: %d", st.Flushes)
	}
}

// TestFlushBeforeAsk is the safety property coalescing must not
// break: a safe-time ask leaves immediately, and every data message
// queued before it goes on the wire first (same batch, earlier
// positions) so FIFO seq order holds at the receiver.
func TestFlushBeforeAsk(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 100, MaxBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		drive(ep, i)
	}
	if batches := tr.snapshot(); len(batches) != 0 {
		t.Fatalf("drives under budget flushed early: %d batches", len(batches))
	}
	if n := ep.PendingOut(); n != 3 {
		t.Fatalf("pending %d, want 3", n)
	}
	ep.Request(1000)
	batches := tr.snapshot()
	if len(batches) != 1 {
		t.Fatalf("want 1 batch, got %d", len(batches))
	}
	b := batches[0]
	if len(b) != 4 {
		t.Fatalf("batch carries %d messages, want 4 (3 data + ask)", len(b))
	}
	for i := 0; i < 3; i++ {
		if b[i].Kind != KindData {
			t.Fatalf("batch[%d] = %v, want data before the ask", i, b[i].Kind)
		}
	}
	if b[3].Kind != KindSafeTimeReq || b[3].Ask != 1000 {
		t.Fatalf("batch tail = %+v, want the ask", b[3])
	}
	for i, m := range b {
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq order broken in batch: %+v", b)
		}
	}
	if n := ep.PendingOut(); n != 0 {
		t.Fatalf("queue not drained: %d pending", n)
	}
}

func TestCoalesceCountBudget(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 4})
	for i := 0; i < 8; i++ {
		drive(ep, i)
	}
	batches := tr.snapshot()
	if len(batches) != 2 || len(batches[0]) != 4 || len(batches[1]) != 4 {
		t.Fatalf("count budget of 4 over 8 drives gave %d batches", len(batches))
	}
	if st := ep.Stats(); st.Flushes != 2 || st.FlushedMsgs != 8 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCoalesceByteBudget(t *testing.T) {
	// Each Word is 4 payload bytes; an 8-byte budget trips on every
	// second drive.
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 100, MaxBytes: 8})
	for i := 0; i < 6; i++ {
		drive(ep, i)
	}
	batches := tr.snapshot()
	if len(batches) != 3 {
		t.Fatalf("byte budget gave %d batches, want 3", len(batches))
	}
}

// TestFlushDropsPayloadReferences: once the transport has a batch, the
// endpoint keeps nothing it carried. Both egress arrays — the one just
// sent and the one queued next — hold only zero Messages up to their
// capacity, so a flushed packet (a view of a whole page) is not pinned
// by a spent slot until the array is next written; the transport still
// got every payload intact.
func TestFlushDropsPayloadReferences(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 4})
	page := make([]byte, 10<<10)
	for i := range page {
		page[i] = byte(i)
	}
	for i := 0; i < 10; i++ {
		chunk := page[i<<10 : (i+1)<<10 : (i+1)<<10]
		ep.egress("link", &core.Msg{Sent: vtime.Time(i), Value: signal.Frame{Seq: uint32(i), Payload: chunk}, Source: "prod"})
	}
	ep.Request(1000) // the last two drives leave with the ask
	got := 0
	for _, b := range tr.snapshot() {
		for _, m := range b {
			if f, ok := m.Value.(signal.Frame); ok {
				if !bytes.Equal(f.Payload, page[f.Seq<<10:(f.Seq+1)<<10]) {
					t.Fatalf("frame %d reached the transport changed", f.Seq)
				}
				got++
			}
		}
	}
	if got != 10 {
		t.Fatalf("transport got %d frames, want 10", got)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for name, arr := range map[string][]Message{"pendingOut": ep.pendingOut, "spareOut": ep.spareOut} {
		if cap(arr) == 0 {
			t.Fatalf("%s never held a batch", name)
		}
		for i, m := range arr[:cap(arr)] {
			if !reflect.ValueOf(m).IsZero() {
				t.Fatalf("%s[%d] still holds %v after the flush", name, i, m)
			}
		}
	}
}

// batchSizes returns how many messages each SendBatch carried.
func batchSizes(tr *fakeBatchTr) []int {
	batches := tr.snapshot()
	sizes := make([]int, len(batches))
	for i, b := range batches {
		sizes[i] = len(b)
	}
	return sizes
}

// TestDisableCoalescingFlushesAndReverts: coalescing decides when the
// queue flushes, never which transport call carries it. Off, every
// message is its own SendBatch of one; on, drives share a batch and
// precede the urgent message that flushed them; a disable drains the
// queue as one last batch.
func TestDisableCoalescingFlushesAndReverts(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{})
	drive(ep, 0)
	drive(ep, 1)
	ep.Request(1000)
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("uncoalesced messages per SendBatch = %v, want [1 1 1]", got)
	}

	ep.SetCoalescing(CoalesceConfig{MaxMsgs: 100})
	drive(ep, 2)
	drive(ep, 3)
	ep.Request(2000)
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{1, 1, 1, 3}) {
		t.Fatalf("coalesced messages per SendBatch = %v, want [1 1 1 3]", got)
	}
	batches := tr.snapshot()
	last := batches[3]
	if last[0].Kind != KindData || last[1].Kind != KindData || last[2].Kind != KindSafeTimeReq {
		t.Fatalf("queued drives do not precede the urgent ask: %v", last)
	}

	drive(ep, 4)
	drive(ep, 5)
	ep.SetCoalescing(CoalesceConfig{}) // disable: must drain the queue
	drive(ep, 6)
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{1, 1, 1, 3, 2, 1}) {
		t.Fatalf("messages per SendBatch across the disable = %v, want [1 1 1 3 2 1]", got)
	}
	seq := uint64(0)
	batches = tr.snapshot()
	for _, b := range batches {
		for _, m := range b {
			if seq++; m.Seq != seq {
				t.Fatalf("seq order broken across batches: got %d, want %d", m.Seq, seq)
			}
		}
	}
	if st := ep.Stats(); st.Flushes != 6 || st.FlushedMsgs != 9 {
		t.Fatalf("stats: %+v", st)
	}
}

// override applies cfg to both hubs; a nil cfg leaves their endpoints
// with the policy they start with.
func override(cfg *CoalesceConfig, hubs ...*Hub) {
	for _, h := range hubs {
		if cfg != nil {
			h.SetCoalescing(*cfg)
		}
	}
}

// runPipePair returns what a coalescing policy must never move — the
// receiver's values, order and virtual arrival times — and the
// sender-side endpoint's flush counters.
func runPipePair(t *testing.T, cfg *CoalesceConfig) (*receiver, Stats) {
	t.Helper()
	s1, s2, _, rcv, h1, h2 := twoSubs(t, Conservative, LinkModel{Latency: 5, PerMessage: 1}, 25, 10)
	override(cfg, h1, h2)
	if e1, e2 := runBoth(s1, s2, 1000); e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	return rcv, h1.Endpoints()[0].Stats()
}

// TestCoalescedConservativeDelivery runs the same producer/consumer
// pair over an in-process pipe flushing per message, with a small
// explicit budget and with the policy an endpoint starts with. The
// pipe carries whatever SendBatch hands it, so the coalesced runs
// really batch (fewer flushes than messages) — and deliver the same
// drives at the same virtual times. (Batched delivery over real TCP is
// covered in the node package tests.)
func TestCoalescedConservativeDelivery(t *testing.T) {
	off, offStats := runPipePair(t, &CoalesceConfig{})
	if len(off.Got) != 25 {
		t.Fatalf("delivered %d, want 25", len(off.Got))
	}
	for i, v := range off.Got {
		if v != i {
			t.Fatalf("order broken: %v", off.Got)
		}
	}
	if offStats.Flushes != offStats.FlushedMsgs {
		t.Fatalf("uncoalesced pipe batched: %+v", offStats)
	}
	for name, cfg := range map[string]*CoalesceConfig{"budget of 8": {MaxMsgs: 8}, "default": nil} {
		on, onStats := runPipePair(t, cfg)
		if !reflect.DeepEqual(on, off) {
			t.Fatalf("%s: coalescing moved deliveries:\n off %+v\n on  %+v", name, off, on)
		}
		if onStats.Flushes >= onStats.FlushedMsgs {
			t.Fatalf("%s: coalesced pipe never batched: %+v", name, onStats)
		}
	}
}

// pageSender moves Page to the peer at a proto detail level.
type pageSender struct {
	Page  []byte
	Level string
}

func (s *pageSender) Run(p *core.Proc) error {
	p.Delay(10)
	proto.SendMessage(p, "out", s.Page, s.Level, proto.DefaultConfig)
	return nil
}

// pageReceiver reassembles it, recording when every drive arrived.
type pageReceiver struct {
	Got   []byte
	Times []vtime.Time
	Err   error
}

func (r *pageReceiver) Run(p *core.Proc) error {
	a := proto.NewAssembler()
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Times = append(r.Times, m.Time)
		if payload, done, err := a.Feed(m.Value); err != nil {
			r.Err = err
		} else if done {
			r.Got = payload
		}
	}
}

// TestDefaultCoalescingMovesNoDrive is the same comparison on the
// traffic the policy is sized for: one page at each detail level —
// thousands of bus cycles or words, or tens of 1 KB frames — through
// endpoints left as NewEndpoint made them, against the
// flush-per-message reference. Every drive arrives at the same virtual
// time and the page arrives whole; only the number of flushes differs.
func TestDefaultCoalescingMovesNoDrive(t *testing.T) {
	page := make([]byte, 40<<10)
	for i := range page {
		page[i] = byte(i * 31)
	}
	run := func(level string, cfg *CoalesceConfig) (*pageReceiver, Stats) {
		rcv := &pageReceiver{}
		s1, s2, h1, h2 := splitPair(t, Conservative, LinkModel{Latency: 5, PerMessage: 1}, &pageSender{Page: page, Level: level}, rcv)
		override(cfg, h1, h2)
		if e1, e2 := runBoth(s1, s2, vtime.Time(vtime.Second)); e1 != nil || e2 != nil {
			t.Fatalf("%s runs: %v / %v", level, e1, e2)
		}
		return rcv, h1.Endpoints()[0].Stats()
	}
	for _, level := range []string{proto.LevelHardware, proto.LevelWord, proto.LevelPacket} {
		ref, refStats := run(level, &CoalesceConfig{})
		got, stats := run(level, nil)
		drives := proto.Drives(len(page), level, proto.DefaultConfig)
		if ref.Err != nil || !bytes.Equal(ref.Got, page) || len(ref.Times) != drives {
			t.Fatalf("%s reference: err %v, %d bytes, %d drives (want %d)", level, ref.Err, len(ref.Got), len(ref.Times), drives)
		}
		if got.Err != nil || !bytes.Equal(got.Got, page) || !reflect.DeepEqual(got.Times, ref.Times) {
			t.Fatalf("%s: the default policy moved a drive (err %v, %d bytes, %d drives)", level, got.Err, len(got.Got), len(got.Times))
		}
		if stats.DataOut != refStats.DataOut || refStats.Flushes != refStats.FlushedMsgs {
			t.Fatalf("%s: data out %d vs %d, reference flushes %+v", level, stats.DataOut, refStats.DataOut, refStats)
		}
		// How often the stall flush and the safe-time asks cut a batch
		// short depends on how the two schedulers interleave; that the
		// default batches at all, and never past its count budget, does
		// not.
		if stats.Flushes >= stats.FlushedMsgs || stats.FlushedMsgs > stats.Flushes*int64(DefaultCoalesce.MaxMsgs) {
			t.Fatalf("%s: default policy flushed %d messages in %d flushes", level, stats.FlushedMsgs, stats.Flushes)
		}
	}
}
