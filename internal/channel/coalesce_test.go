package channel

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// fakeFrameTr records what the endpoint hands the transport: each
// frame decoded, and its size on the wire. The tests assert how many
// messages each frame carried.
type fakeFrameTr struct {
	mu     sync.Mutex
	dec    *BatchDecoder
	frames [][]Message
	sizes  []int
}

func (f *fakeFrameTr) SendFrame(frame []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	msgs, _, err := f.dec.DecodeBatchInto(frame[wire.HeaderLen:], nil)
	if err != nil {
		return err
	}
	f.frames = append(f.frames, msgs)
	f.sizes = append(f.sizes, len(frame))
	return nil
}

func (f *fakeFrameTr) Close() error { return nil }

func (f *fakeFrameTr) snapshot() [][]Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]Message(nil), f.frames...)
}

func coalescingEndpoint(t *testing.T, cfg CoalesceConfig) (*Endpoint, *fakeFrameTr) {
	t.Helper()
	sub := core.NewSubsystem("ss1")
	h := NewHub(sub)
	tr := &fakeFrameTr{dec: NewBatchDecoder()}
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
	ep.egress("link", "prod", vtime.Time(i), signal.Word(uint32(i)))
}

// wordFrame is the wire size of a frame of n drives from drive: a
// 36-byte head — header room, count, run entry header with the names —
// and six bytes a word, ΔTime and value.
func wordFrame(n int) int { return 36 + 6*n }

func TestEmptyFlushIsNoOp(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxBytes: 1 << 10})
	ep.Flush()
	ep.Flush()
	if frames := tr.snapshot(); len(frames) != 0 {
		t.Fatalf("empty flush sent %d frames", len(frames))
	}
	if st := ep.Stats(); st.Flushes != 0 {
		t.Fatalf("empty flushes counted: %d", st.Flushes)
	}
}

// TestFlushBeforeAsk is the safety property coalescing must not
// break: a safe-time ask leaves immediately, and every data message
// queued before it goes on the wire first (same frame, earlier
// positions) so FIFO seq order holds at the receiver.
func TestFlushBeforeAsk(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		drive(ep, i)
	}
	if frames := tr.snapshot(); len(frames) != 0 {
		t.Fatalf("drives under the cap flushed early: %d frames", len(frames))
	}
	if n := ep.PendingOut(); n != 3 {
		t.Fatalf("pending %d, want 3", n)
	}
	ep.Request(1000)
	frames := tr.snapshot()
	if len(frames) != 1 {
		t.Fatalf("want 1 frame, got %d", len(frames))
	}
	b := frames[0]
	if len(b) != 4 {
		t.Fatalf("frame carries %d messages, want 4 (3 data + ask)", len(b))
	}
	for i := 0; i < 3; i++ {
		if b[i].Kind != KindData {
			t.Fatalf("frame[%d] = %v, want data before the ask", i, b[i].Kind)
		}
	}
	if b[3].Kind != kindSafeTimeReq || b[3].Ask != 1000 {
		t.Fatalf("frame tail = %+v, want the ask", b[3])
	}
	for i, m := range b {
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq order broken in frame: %+v", b)
		}
	}
	if n := ep.PendingOut(); n != 0 {
		t.Fatalf("queue not drained: %d pending", n)
	}
}

// TestCoalesceByteCapCutsFrames: the drive that would take the open
// frame past the cap starts the next frame, and the full one flushes —
// at a cap of four drives, nine drives leave as two frames of four, the
// ninth waiting for the next protocol event.
func TestCoalesceByteCapCutsFrames(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxBytes: wordFrame(4)})
	for i := 0; i < 9; i++ {
		drive(ep, i)
	}
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{4, 4}) {
		t.Fatalf("a cap of four drives over nine drives gave frames %v, want [4 4]", got)
	}
	for i, size := range tr.sizes {
		if size != wordFrame(4) {
			t.Fatalf("frame %d is %d bytes, want %d", i, size, wordFrame(4))
		}
	}
	if n := ep.PendingOut(); n != 1 {
		t.Fatalf("pending %d, want 1", n)
	}
	if st := ep.Stats(); st.Flushes != 2 || st.FlushedMsgs != 8 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCoalesceByteBudget(t *testing.T) {
	// The cap counts wire bytes: room for two drives a frame.
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxBytes: wordFrame(2)})
	for i := 0; i < 6; i++ {
		drive(ep, i)
	}
	ep.Flush()
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{2, 2, 2}) {
		t.Fatalf("byte cap gave frames %v, want [2 2 2]", got)
	}
}

// TestCoalesceByteCapBoundsFrames: no frame passes the cap unless it
// holds one message larger than the cap, whatever mix of sizes and
// protocol messages fills it, and the frames carry every message in
// seq order.
func TestCoalesceByteCapBoundsFrames(t *testing.T) {
	const limit = 300
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxBytes: limit})
	for i := 0; i < 200; i++ {
		var v any = signal.Word(uint32(i))
		switch i % 7 {
		case 3:
			v = signal.Packet(make([]byte, i))
		case 5:
			v = signal.Frame{Seq: uint32(i), Payload: make([]byte, 2*i)}
		}
		ep.egress("link", "prod", vtime.Time(i), v)
		if i%11 == 0 {
			ep.Request(vtime.Time(1000 + i))
		}
	}
	ep.Flush()
	seq := uint64(0)
	for i, f := range tr.snapshot() {
		if tr.sizes[i] > limit && len(f) != 1 {
			t.Fatalf("frame %d is %d bytes with %d messages, past the cap of %d", i, tr.sizes[i], len(f), limit)
		}
		for _, m := range f {
			if seq++; m.Seq != seq {
				t.Fatalf("seq order broken across frames: got %d, want %d", m.Seq, seq)
			}
		}
	}
	if st := ep.Stats(); st.FlushedMsgs != int64(seq) || seq != 200+19 {
		t.Fatalf("frames carried %d messages, stats %+v", seq, st)
	}
}

// TestFlushDropsPayloadReferences: the egress queue is wire bytes, so
// once egress returns the endpoint keeps nothing of a drive's value —
// a packet, a view of a whole page — even while its frame waits for a
// flush; the transport still gets every payload intact.
func TestFlushDropsPayloadReferences(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxBytes: 1 << 20})
	page := make([]byte, 10<<10)
	for i := range page {
		page[i] = byte(i)
	}
	for i := 0; i < 10; i++ {
		chunk := page[i<<10 : (i+1)<<10 : (i+1)<<10]
		ep.egress("link", "prod", vtime.Time(i), signal.Frame{Seq: uint32(i), Payload: chunk})
	}
	if n := ep.PendingOut(); n != 10 {
		t.Fatalf("pending %d, want all 10 drives queued", n)
	}
	held := weak.Make(&page[0])
	page = nil
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("the egress queue still refers to the page its drives carried")
	}
	ep.Request(1000) // the drives leave with the ask
	got := 0
	for _, b := range tr.snapshot() {
		for _, m := range b {
			if f, ok := m.Value.(signal.Frame); ok {
				for j, c := range f.Payload {
					if c != byte(int(f.Seq)<<10+j) {
						t.Fatalf("frame %d reached the transport changed", f.Seq)
					}
				}
				got++
			}
		}
	}
	if got != 10 {
		t.Fatalf("transport got %d frames, want 10", got)
	}
}

// nullTr is a transport that counts the frames it is handed and drops
// them.
type nullTr struct{ frames int }

func (n *nullTr) SendFrame([]byte) error { n.frames++; return nil }
func (n *nullTr) Close() error           { return nil }

// TestPageEgressTwoBufferAllocs guards PR 32's failure mode, a queue
// that grows in append's 1.25x steps: the egress of a whole page of
// word drives — 16 897 of them, as in remote_word, with no grant in
// between — costs the endpoint two frame-buffer allocations, the small
// one its first drive takes and the one sized for the cap, plus the one
// unacked run record TestPageBurstIsOneUnackedRun pins, and nothing per
// drive or per frame. The buffer it keeps is the size it was given.
func TestPageEgressTwoBufferAllocs(t *testing.T) {
	const words = 16_897
	var v any = signal.Word(0xdead) // boxed once: a drive's box is its sender's
	var ep *Endpoint
	var tr *nullTr
	build := func() {
		tr = &nullTr{}
		var err error
		ep, err = NewHub(core.NewSubsystem("ss1")).NewEndpoint("peer", Conservative, LinkModel{Latency: 5, PerMessage: 1}, tr)
		if err != nil {
			t.Fatal(err)
		}
	}
	egress := func(n int) func() {
		return func() {
			build()
			for i := 0; i < n; i++ {
				ep.egress("link", "prod", vtime.Time(3*i), v)
			}
			ep.Flush()
		}
	}
	setup := testing.AllocsPerRun(5, build)
	first := testing.AllocsPerRun(5, egress(1))
	page := testing.AllocsPerRun(5, egress(words))
	if first-setup > 2 || page-first > 1 {
		t.Fatalf("the first drive costs the endpoint %.0f allocations, want 2 (its frame buffer, its run record), and the %d after it %.0f, want 1 (the buffer sized to the cap)", first-setup, words-1, page-first)
	}
	if min := words * 6 / frameCap; tr.frames < min || tr.frames > min+2 {
		t.Fatalf("the page left in %d frames, want %d or a little more at the %d-byte cap", tr.frames, min, frameCap)
	}
	if c := cap(ep.out.buf); c != frameCap+frameSlack {
		t.Fatalf("the frame buffer grew to %d bytes, want %d", c, frameCap+frameSlack)
	}
}

// TestClosedHubPoolsItsFrameBuffer: a hub's Close, once each endpoint
// has flushed its close, hands the endpoint's full-size frame buffer to
// the pool, once, and the next endpoint whose frames outgrow its first
// buffer takes that one instead of allocating. With the collector off
// and one P the pool keeps what it is given and hands it to the next Get.
func TestClosedHubPoolsItsFrameBuffer(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's pool drops some of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var v any = signal.Word(0xdead)
	page := func() (*Hub, *Endpoint) {
		h := NewHub(core.NewSubsystem("ss1"))
		ep, err := h.NewEndpoint("peer", Conservative, LinkModel{Latency: 5, PerMessage: 1}, &nullTr{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			ep.egress("link", "prod", vtime.Time(3*i), v)
		}
		ep.Flush()
		if cap(ep.out.buf) != frameBufSize {
			t.Fatalf("a page's frame buffer holds %d bytes, want %d", cap(ep.out.buf), frameBufSize)
		}
		return h, ep
	}
	h, ep := page()
	buf := &ep.out.buf[:1][0]
	h.Close()
	h.Close()
	if ep.out.buf != nil {
		t.Fatal("the closed endpoint kept its frame buffer")
	}
	_, next := page()
	if &next.out.buf[:1][0] != buf {
		t.Fatal("the next endpoint allocated a frame buffer with one in the pool")
	}
	if got := frameBufs.Get().(*[frameBufSize]byte); &got[0] == buf {
		t.Fatal("the frame buffer went back to the pool twice")
	}
}

// batchSizes returns how many messages each frame carried.
func batchSizes(tr *fakeFrameTr) []int {
	frames := tr.snapshot()
	sizes := make([]int, len(frames))
	for i, b := range frames {
		sizes[i] = len(b)
	}
	return sizes
}

// TestDisableCoalescingFlushesAndReverts: the cap decides when the
// queue flushes, never which transport call carries it. Off, every
// message is its own frame of one; on, drives share a frame and
// precede the urgent message that flushed them; a disable drains the
// queue as one last frame.
func TestDisableCoalescingFlushesAndReverts(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{})
	drive(ep, 0)
	drive(ep, 1)
	ep.Request(1000)
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("uncoalesced messages per frame = %v, want [1 1 1]", got)
	}

	ep.SetCoalescing(CoalesceConfig{MaxBytes: 1 << 20})
	drive(ep, 2)
	drive(ep, 3)
	ep.Request(2000)
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{1, 1, 1, 3}) {
		t.Fatalf("coalesced messages per frame = %v, want [1 1 1 3]", got)
	}
	frames := tr.snapshot()
	last := frames[3]
	if last[0].Kind != KindData || last[1].Kind != KindData || last[2].Kind != kindSafeTimeReq {
		t.Fatalf("queued drives do not precede the urgent ask: %v", last)
	}

	drive(ep, 4)
	drive(ep, 5)
	ep.SetCoalescing(CoalesceConfig{}) // disable: must drain the queue
	drive(ep, 6)
	if got := batchSizes(tr); !reflect.DeepEqual(got, []int{1, 1, 1, 3, 2, 1}) {
		t.Fatalf("messages per frame across the disable = %v, want [1 1 1 3 2 1]", got)
	}
	seq := uint64(0)
	frames = tr.snapshot()
	for _, b := range frames {
		for _, m := range b {
			if seq++; m.Seq != seq {
				t.Fatalf("seq order broken across frames: got %d, want %d", m.Seq, seq)
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
// explicit cap and with the policy an endpoint starts with. The pipe
// carries every frame SendFrame hands it, so the coalesced runs
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
	for name, cfg := range map[string]*CoalesceConfig{"a cap of 64 bytes": {MaxBytes: 64}, "default": nil} {
		on, onStats := runPipePair(t, cfg)
		if !reflect.DeepEqual(on, off) {
			t.Fatalf("%s: coalescing moved deliveries:\n off %+v\n on  %+v", name, off, on)
		}
		if onStats.Flushes >= onStats.FlushedMsgs {
			t.Fatalf("%s: coalesced pipe never batched: %+v", name, onStats)
		}
	}
}

// pageSender moves Page to the peer at a proto detail level, counting
// the drives it made.
type pageSender struct {
	Page   []byte
	Level  string
	Drives int
}

func (s *pageSender) Run(p *core.Proc) error {
	p.Delay(10)
	s.Drives = proto.SendMessage(p, "out", s.Page, s.Level, proto.DefaultConfig)
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
	run := func(level string, cfg *CoalesceConfig) (*pageReceiver, Stats, int) {
		snd, rcv := &pageSender{Page: page, Level: level}, &pageReceiver{}
		s1, s2, h1, h2 := splitPair(t, Conservative, LinkModel{Latency: 5, PerMessage: 1}, snd, rcv)
		override(cfg, h1, h2)
		ep := h1.Endpoints()[0]
		sizes := &largestFrame{Transport: ep.tr}
		ep.tr = sizes
		if e1, e2 := runBoth(s1, s2, vtime.Time(vtime.Second)); e1 != nil || e2 != nil {
			t.Fatalf("%s runs: %v / %v", level, e1, e2)
		}
		if len(rcv.Times) != snd.Drives {
			t.Fatalf("%s: %d drives arrived, %d sent", level, len(rcv.Times), snd.Drives)
		}
		return rcv, ep.Stats(), sizes.largest
	}
	for _, level := range []string{proto.LevelHardware, proto.LevelWord, proto.LevelPacket} {
		ref, refStats, _ := run(level, &CoalesceConfig{})
		got, stats, largest := run(level, nil)
		if ref.Err != nil || !bytes.Equal(ref.Got, page) {
			t.Fatalf("%s reference: err %v, %d bytes, %d drives", level, ref.Err, len(ref.Got), len(ref.Times))
		}
		if got.Err != nil || !bytes.Equal(got.Got, page) || !reflect.DeepEqual(got.Times, ref.Times) {
			t.Fatalf("%s: the default policy moved a drive (err %v, %d bytes, %d drives)", level, got.Err, len(got.Got), len(got.Times))
		}
		if stats.DataOut != refStats.DataOut || refStats.Flushes != refStats.FlushedMsgs {
			t.Fatalf("%s: data out %d vs %d, reference flushes %+v", level, stats.DataOut, refStats.DataOut, refStats)
		}
		// How often the stall flush and the safe-time asks cut a frame
		// short depends on how the two schedulers interleave; that the
		// default batches at all, and never past its byte cap, does not.
		if stats.Flushes >= stats.FlushedMsgs || largest > DefaultCoalesce.MaxBytes {
			t.Fatalf("%s: default policy flushed %d messages in %d flushes, the largest frame %d bytes", level, stats.FlushedMsgs, stats.Flushes, largest)
		}
	}
}

// largestFrame passes frames on, noting the largest. Only the flushing
// goroutine, under the endpoint's send lock, calls it.
type largestFrame struct {
	Transport
	largest int
}

func (l *largestFrame) SendFrame(frame []byte) error {
	l.largest = max(l.largest, len(frame))
	return l.Transport.SendFrame(frame)
}

// TestConcurrentFlushesKeepSeqOrder: drives are encoded on the
// scheduler's goroutine while other goroutines send marks and flush —
// the snapshot agent and the hub do — so a frame may be on the wire
// while the next is being built behind it in the same buffer, and the
// buffer may grow under a flush in flight. Every message still arrives,
// once, in seq order, and no frame passes the cap unless it holds one
// message. Meant for -race.
func TestConcurrentFlushesKeepSeqOrder(t *testing.T) {
	const limit, drives = 700, 3000
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxBytes: limit})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	marks := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ep.SendMark("m")
			marks++
			ep.Flush()
			_ = ep.PendingOut()
		}
	}()
	for i := 0; i < drives; i++ {
		var v any = signal.Word(uint32(i))
		if i%50 == 7 {
			v = signal.Packet(make([]byte, 100+i%1500)) // some past the cap
		}
		ep.egress("link", "prod", vtime.Time(i), v)
	}
	close(stop)
	wg.Wait()
	ep.Flush()
	seq, data := uint64(0), 0
	for i, f := range tr.snapshot() {
		if tr.sizes[i] > limit && len(f) != 1 {
			t.Fatalf("frame %d is %d bytes with %d messages, past the cap of %d", i, tr.sizes[i], len(f), limit)
		}
		for _, m := range f {
			if seq++; m.Seq != seq {
				t.Fatalf("seq order broken: got %d, want %d", m.Seq, seq)
			}
			if m.Kind == KindData {
				data++
			}
		}
	}
	if data != drives || seq != uint64(drives+marks) {
		t.Fatalf("got %d drives and %d messages, want %d and %d", data, seq, drives, drives+marks)
	}
}
