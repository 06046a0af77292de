package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// pipe runs one transfer at the given level through a subsystem and
// returns the received payload and the receiver's completion time. A
// second receiver takes the same transfer with ReceiveParts: a part a
// packet, or one for a stream, joining to it, every one but the Last a
// view of payload.
func pipe(t *testing.T, payload []byte, level string, cfg Config) ([]byte, vtime.Time, int) {
	t.Helper()
	s := core.NewSubsystem("p")
	drives := 0
	tx := core.BehaviorFunc(func(p *core.Proc) error {
		drives = SendMessage(p, "out", payload, level, cfg)
		return nil
	})
	var got []byte
	var at vtime.Time
	rx := core.BehaviorFunc(func(p *core.Proc) error {
		a := NewAssembler()
		msg, ok, err := ReceiveMessage(p, "in", a)
		if err != nil {
			return err
		}
		if ok {
			got = msg
			at = p.Time()
		}
		return nil
	})
	var parts [][]byte
	rxParts := core.BehaviorFunc(func(p *core.Proc) (err error) {
		parts, _, err = ReceiveParts(p, "in", NewAssembler())
		return err
	})
	tc, _ := s.NewComponent("tx", tx, "out")
	rc, _ := s.NewComponent("rx", rx, "in")
	pc, _ := s.NewComponent("rxParts", rxParts, "in")
	n, _ := s.NewNet("w", 1)
	s.Connect(n, tc.Port("out"), rc.Port("in"), pc.Port("in"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	want := drives // a part a packet; a stream is one part
	if level == LevelHardware || level == LevelWord {
		want = 1
	}
	if len(parts) != want || !bytes.Equal(bytes.Join(parts, nil), got) {
		t.Fatalf("%s: ReceiveParts' %d parts (want %d) do not join to ReceiveMessage's %d bytes", level, len(parts), want, len(got))
	}
	for i, part := range parts[:len(parts)-1] {
		if inPart(part, [][]byte{payload}) != 0 {
			t.Fatalf("%s: part %d of %d is a copy, want a view of the payload", level, i, len(parts))
		}
	}
	return got, at, drives
}

func TestRoundTripAllLevels(t *testing.T) {
	payload := make([]byte, 3000)
	rng := rand.New(rand.NewSource(42))
	rng.Read(payload)
	for _, level := range []string{LevelHardware, LevelWord, LevelPacket} {
		got, _, n := pipe(t, payload, level, DefaultConfig)
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload corrupted (%d vs %d bytes)", level, len(got), len(payload))
		}
		if want := drives(len(payload), level, DefaultConfig); n != want {
			t.Fatalf("%s: %d drives, the model predicts %d", level, n, want)
		}
	}
}

func TestLevelsOrderedByCost(t *testing.T) {
	payload := make([]byte, 4096)
	_, tHW, dHW := pipe(t, payload, LevelHardware, DefaultConfig)
	_, tW, dW := pipe(t, payload, LevelWord, DefaultConfig)
	_, tP, dP := pipe(t, payload, LevelPacket, DefaultConfig)
	if !(dHW > dW && dW > dP) {
		t.Fatalf("drive counts not ordered: hw=%d word=%d packet=%d", dHW, dW, dP)
	}
	if !(tHW > tW && tW > tP) {
		t.Fatalf("virtual times not ordered: hw=%v word=%v packet=%v", tHW, tW, tP)
	}
}

func TestOddLengths(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 1023, 1024, 1025, 2048} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		for _, level := range []string{LevelHardware, LevelWord, LevelPacket} {
			got, _, _ := pipe(t, payload, level, DefaultConfig)
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s with %d bytes: corrupted", level, n)
			}
		}
	}
}

func TestUnknownLevelFallsBackToPacket(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 100)
	got, _, drives := pipe(t, payload, "strangeLevel", DefaultConfig)
	if !bytes.Equal(got, payload) {
		t.Fatal("fallback level corrupted payload")
	}
	if drives != 1 {
		t.Fatalf("fallback drives = %d, want 1 packet", drives)
	}
}

func TestAssemblerErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []any  // all but the last are accepted; the last is refused
		want   string // in the refusal
		idle   bool   // the assembler is idle after the refusal
	}{
		{"word without header", []any{wordOf(1)}, "word without length header", true},
		{"header inside a transfer", []any{lenCtl(8), lenCtl(8)}, "length header inside a transfer", false},
		{"frame inside a word transfer", []any{lenCtl(8), frameOf([]byte{1}, true)}, "frame inside a word/byte transfer", false},
		// A negative length is the peer's error, reported as such: it is
		// not the idle sentinel, and the next word is not blamed for it.
		{"len -1", []any{lenCtl(-1)}, "negative length header -1", true},
		{"len -5", []any{lenCtl(-5)}, "negative length header -5", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssembler()
			last := len(tc.values) - 1
			for i, v := range tc.values[:last] {
				if _, _, err := a.Feed(v); err != nil {
					t.Fatalf("value %d refused: %v", i, err)
				}
			}
			_, done, err := a.Feed(tc.values[last])
			if err == nil || done || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got done=%v err=%v, want a refusal naming %q", done, err, tc.want)
			}
			if !tc.idle {
				return
			}
			// Nothing of the refused value is left behind: a well-formed
			// transfer follows.
			if _, _, err := a.Feed(lenCtl(3)); err != nil {
				t.Fatal(err)
			}
			if payload, done, err := a.Feed(wordOf(0x030201)); err != nil || !done || !bytes.Equal(payload, []byte{1, 2, 3}) {
				t.Fatalf("transfer after the refusal: %v done=%v err=%v", payload, done, err)
			}
		})
	}
}

func TestAssemblerIgnoresForeignValues(t *testing.T) {
	a := NewAssembler()
	if _, done, err := a.Feed(42); err != nil || done {
		t.Fatal("foreign value disturbed the assembler")
	}
	if _, done, err := a.Feed(ctlOf("other", 3)); err != nil || done {
		t.Fatal("foreign control disturbed the assembler")
	}
}

func TestBarePacketIsComplete(t *testing.T) {
	a := NewAssembler()
	payload, done, err := a.Feed(packetOf([]byte{9, 8, 7}))
	if err != nil || !done || !bytes.Equal(payload, []byte{9, 8, 7}) {
		t.Fatalf("bare packet: %v %v %v", payload, done, err)
	}
	if a.Messages != 1 {
		t.Fatal("message counter wrong")
	}
}

// Property: Drives is monotone in payload length at every level.
func TestDrivesMonotoneProperty(t *testing.T) {
	f := func(n uint16, extra uint8) bool {
		for _, level := range []string{LevelHardware, LevelWord, LevelPacket} {
			if drives(int(n)+int(extra), level, DefaultConfig) < drives(int(n), level, DefaultConfig) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAssemblerPresizesFromHeader: the length header sizes buf once —
// a 64 KB word transfer never re-grows it — and a header no transfer
// could honour allocates no more than maxPresize ahead of the data.
func TestAssemblerPresizesFromHeader(t *testing.T) {
	const size = 64 << 10
	a := NewAssembler()
	if _, _, err := a.Feed(lenCtl(size)); err != nil {
		t.Fatal(err)
	}
	grows, capBefore := 0, cap(a.buf)
	if capBefore < size {
		t.Fatalf("header of %d pre-sized buf to %d", size, capBefore)
	}
	for i := 0; i < size/4; i++ {
		payload, done, err := a.Feed(wordOf(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if c := cap(a.buf); !done && c != capBefore {
			grows, capBefore = grows+1, c
		}
		if done != (i == size/4-1) || (done && (len(payload) != size || cap(payload) != size)) {
			t.Fatalf("word %d: done=%v len=%d", i, done, len(payload))
		}
	}
	if grows != 0 {
		t.Fatalf("buf grew %d times during a pre-sized transfer", grows)
	}

	// The finished transfer took buf with it; a second header of the same
	// size sizes a new one the same way.
	if a.buf != nil {
		t.Fatalf("finished transfer left a %d-byte buffer behind", cap(a.buf))
	}
	if _, _, err := a.Feed(lenCtl(size)); err != nil {
		t.Fatal(err)
	}
	if cap(a.buf) != capBefore {
		t.Fatalf("second header sized buf %d, the first %d", cap(a.buf), capBefore)
	}
	a.Reset()

	// Hostile headers: huge and negative.
	h := NewAssembler()
	if _, _, err := h.Feed(lenCtl(1 << 40)); err != nil {
		t.Fatal(err)
	}
	if cap(h.buf) > maxPresize {
		t.Fatalf("len header of 1<<40 allocated %d bytes, cap is %d", cap(h.buf), maxPresize)
	}
	if _, done, err := h.Feed(wordOf(7)); err != nil || done {
		t.Fatalf("word after huge header: done=%v err=%v", done, err)
	}
	n := NewAssembler()
	if _, _, err := n.Feed(lenCtl(-5)); err == nil || cap(n.buf) != 0 {
		t.Fatalf("negative header: err=%v cap=%d, want a refusal that allocates nothing", err, cap(n.buf))
	}
}

// allocatedBytes reports how many heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAssemblerJoinsFramesOnce is the page-path guard: a 2 MB page in
// 2 048 frames costs the result, allocated once at its exact size, plus
// the doubling growth of the list of kept payloads — not a buffer
// re-grown from 1 KB to 2 MB and then copied — and a second page
// through the same assembler costs the result alone.
func TestAssemblerJoinsFramesOnce(t *testing.T) {
	const (
		frames   = 2048
		frameLen = 1024
		message  = frames * frameLen
	)
	page := make([]byte, message)
	for i := range page {
		page[i] = byte(i * 7)
	}
	// Box the frames ahead of the measurement, as a received event has.
	values := make([]any, frames)
	for i := range values {
		values[i] = frameOf(page[i*frameLen:(i+1)*frameLen], i == frames-1)
	}
	a := NewAssembler()
	var got []byte
	transfer := func() {
		for i, v := range values {
			payload, done, err := a.Feed(v)
			if err != nil || done != (i == frames-1) {
				t.Fatalf("frame %d: done=%v err=%v", i, done, err)
			}
			got = payload
		}
	}
	size := allocatedBytes(transfer)
	if !bytes.Equal(got, page) {
		t.Fatal("joined page differs from the one sent")
	}
	if limit := uint64(message + message/10); size > limit {
		t.Fatalf("cold transfer allocated %d bytes for a %d-byte page, want <= %d", size, message, limit)
	}
	if len(a.parts) != 0 || a.size != 0 || cap(a.buf) != 0 {
		t.Fatalf("finished transfer still holds %d payloads, %d bytes, a %d-byte buffer", len(a.parts), a.size, cap(a.buf))
	}
	for _, p := range a.parts[:cap(a.parts)] {
		if p != nil {
			t.Fatal("finished transfer still pins a frame payload")
		}
	}
	// TotalAlloc is the whole process's, so whatever the runtime
	// allocates meanwhile is charged to the transfer too: the least of
	// several warm transfers is what one costs.
	size = allocatedBytes(transfer)
	for range 4 {
		size = min(size, allocatedBytes(transfer))
	}
	if size > message+4096 {
		t.Fatalf("warm transfer allocated %d bytes; want the %d-byte result alone", size, message)
	}
	if n := testing.AllocsPerRun(3, transfer); n != 1 {
		t.Fatalf("warm transfer allocated %.0f objects; want the result alone", n)
	}
	// Cold: the assembler, the result, and append reaching 2 048 list
	// entries in 14 growths.
	cold := testing.AllocsPerRun(3, func() {
		a = NewAssembler()
		transfer()
	})
	if cold > 2+20 {
		t.Fatalf("cold transfer allocated %.0f objects, want the result and the list's growth", cold)
	}
}

// TestAssemblerHandsOutWordBuffer: a word stream is assembled in the
// buffer its length header sized, and that buffer is the result — a
// 66 KB page costs the one allocation the header made, not a second
// one and a copy — and the assembler lets go of it, so a second
// transfer on the same assembler never writes into a page it already
// handed out.
func TestAssemblerHandsOutWordBuffer(t *testing.T) {
	const size = 66 << 10
	page := func(seed byte) (want []byte, values []any) {
		want = make([]byte, size)
		for i := range want {
			want[i] = seed + byte(i*7)
		}
		// Boxed ahead of the measurement, as a received event has them.
		values = append(values, lenCtl(size))
		for i := 0; i < size; i += 4 {
			values = append(values, wordOf(binary.LittleEndian.Uint32(want[i:])))
		}
		return want, values
	}
	a := NewAssembler()
	transfer := func(values []any) (got []byte) {
		for i, v := range values {
			payload, done, err := a.Feed(v)
			if err != nil || done != (i == len(values)-1) {
				t.Fatalf("value %d: done=%v err=%v", i, done, err)
			}
			got = payload
		}
		return got
	}
	want1, first := page(1)
	want2, second := page(2)
	if n := testing.AllocsPerRun(3, func() { transfer(first) }); n != 1 {
		t.Fatalf("a %d-byte word transfer allocated %.0f objects, want the presized buffer alone", size, n)
	}
	// The buffer alone, rounded up to whole pages: no second copy.
	if got := allocatedBytes(func() { transfer(first) }); got > size+size/8 {
		t.Fatalf("a %d-byte word transfer allocated %d bytes, want the presized buffer alone", size, got)
	}
	one := transfer(first)
	two := transfer(second)
	if !bytes.Equal(one, want1) || !bytes.Equal(two, want2) {
		t.Fatal("a second transfer changed the first one's result, or a result differs from the words sent")
	}
	if &one[0] == &two[0] || cap(one) != len(one) || a.buf != nil {
		t.Fatalf("results share storage (%v), the first has room past its end (cap %d for %d), or the assembler kept a buffer (%d)",
			&one[0] == &two[0], cap(one), len(one), cap(a.buf))
	}
}

// TestSendPacketsShareThePayload: a packet-level send cuts views of the
// payload instead of copying it. Every packet but the last aliases its
// slice of payload with cap == len, so a receiver's append cannot
// clobber the next packet; the Last packet owns at most one packet of
// bytes, because a net keeps its last value and a view would pin the
// whole payload; and a 2 MB send allocates that one packet and the
// boxed frames, not a second copy of the page.
func TestSendPacketsShareThePayload(t *testing.T) {
	plen := DefaultConfig.PacketLen
	payload := make([]byte, 2<<20+100) // a short last packet
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	n := drives(len(payload), LevelPacket, DefaultConfig)
	s := core.NewSubsystem("p")
	sent := make([]any, 0, n) // sized ahead: the hook allocates nothing
	s.OnDrive = func(_, _ string, _ vtime.Time, v any) { sent = append(sent, v) }
	var size uint64
	tc, _ := s.NewComponent("tx", core.BehaviorFunc(func(p *core.Proc) error {
		size = allocatedBytes(func() { SendMessage(p, "out", payload, LevelPacket, DefaultConfig) })
		return nil
	}), "out")
	w, _ := s.NewNet("w", 0) // nobody listens: the send is all that allocates
	s.Connect(w, tc.Port("out"))
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if len(sent) != n {
		t.Fatalf("%d packets, want %d", len(sent), n)
	}
	for i, v := range sent {
		f := v.(signal.Frame)
		off := i * plen
		if !bytes.Equal(f.Payload, payload[off:min(off+plen, len(payload))]) || f.Last != (i == n-1) {
			t.Fatalf("packet %d: %d bytes, Last %v", i, len(f.Payload), f.Last)
		}
		view := &f.Payload[0] == &payload[off]
		if !f.Last && (!view || cap(f.Payload) != len(f.Payload)) {
			t.Fatalf("packet %d: view %v, cap %d for %d bytes; want a capacity-clipped view", i, view, cap(f.Payload), len(f.Payload))
		}
		if f.Last && (view || cap(f.Payload) > plen) {
			t.Fatalf("last packet: view %v, cap %d; want a copy of at most %d bytes", view, cap(f.Payload), plen)
		}
	}
	// A boxed frame is one small size class, well under 128 bytes.
	if limit := uint64(plen + n*128); size > limit {
		t.Fatalf("a %d-byte send allocated %d bytes, want <= %d (one packet and %d boxes)", len(payload), size, limit, n)
	}
}

// TestAssemblerBoundsTransferInProgress: no stream a peer can send
// makes an assembler hold more than maxMessage. Each hostile stream is
// fed until Feed refuses it; what was held up to then stays under the
// cap, the refusal releases it, and the assembler takes a well-formed
// transfer afterwards.
func TestAssemblerBoundsTransferInProgress(t *testing.T) {
	chunk := make([]byte, 1<<20)
	for _, tc := range []struct {
		name   string
		header any // fed once first, if non-nil
		value  any // then fed until refused
		most   int // feeds that must be enough
	}{
		{"frames that never set Last", nil, frameOf(chunk, false), maxMessage/len(chunk) + 1},
		{"one-byte frames that never set Last", nil, frameOf(chunk[:1], false), maxMessage/(1+sliceHeader) + 1},
		{"empty frames that never set Last", nil, frameOf(nil, false), maxMessage/sliceHeader + 1},
		{"words after a 2^40 header", lenCtl(1 << 40), wordOf(0xfeedface), maxMessage/4 + 1},
		{"bus cycles after a 2^40 header", lenCtl(1 << 40), signal.BusCycle{Data: 0xa5, Write: true}, maxMessage + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssembler()
			if tc.header != nil {
				if _, _, err := a.Feed(tc.header); err != nil {
					t.Fatal(err)
				}
			}
			fed := 0
			for ; ; fed++ {
				if fed > tc.most {
					t.Fatalf("still accepting after %d values", fed)
				}
				held := len(a.buf) + a.size + len(a.parts)*sliceHeader
				if held > maxMessage {
					t.Fatalf("holding %d bytes after %d values, cap is %d", held, fed, maxMessage)
				}
				payload, done, err := a.Feed(tc.value)
				if done || payload != nil {
					t.Fatalf("hostile stream completed a %d-byte message", len(payload))
				}
				if err != nil {
					break
				}
			}
			if fed+2 < tc.most {
				t.Fatalf("refused after %d values, the cap allows about %d", fed, tc.most)
			}
			if cap(a.buf) != 0 || len(a.parts) != 0 || a.size != 0 {
				t.Fatalf("refused transfer still holds %d + %d bytes in %d payloads", cap(a.buf), a.size, len(a.parts))
			}
			if payload, done, err := a.Feed(frameOf([]byte{1, 2, 3}, true)); err != nil || !done || len(payload) != 3 {
				t.Fatalf("transfer after the refusal: %v done=%v err=%v", payload, done, err)
			}
		})
	}
}

// TestWordPageBoxesInChunks pins the word page end to end: a 66 KB
// page sent word by word through one subsystem and assembled by
// ReceiveMessage boxes its words in shared chunks, one allocation per
// signal.WordChunk words, not one a word. The only other allocations
// are the assembler's one presized buffer and what running a
// subsystem costs on its own (goroutines, event queue chunks).
func TestWordPageBoxesInChunks(t *testing.T) {
	const (
		size  = 66 << 10
		words = size / 4
		// What the subsystem's run costs besides the boxes and the
		// presize: the event queue's 639-row chunks for the page's
		// drives, and a fixed 48 for goroutines, channels and tables.
		// (A page of words < 256, which box for free, costs ≈ 52.)
		runSlack = words/639 + 48
	)
	page := make([]byte, size)
	for i := 0; i < size; i += 4 {
		binary.LittleEndian.PutUint32(page[i:], 0x01000000|uint32(i)) // every word >= 256
	}
	s := core.NewSubsystem("p")
	tx := core.BehaviorFunc(func(p *core.Proc) error {
		SendMessage(p, "out", page, "wordLevel", Config{})
		return nil
	})
	var got []byte
	rx := core.BehaviorFunc(func(p *core.Proc) error {
		msg, _, err := ReceiveMessage(p, "in", NewAssembler())
		got = msg
		return err
	})
	tc, _ := s.NewComponent("tx", tx, "out")
	rc, _ := s.NewComponent("rx", rx, "in")
	n, _ := s.NewNet("w", 1)
	if err := s.Connect(n, tc.Port("out"), rc.Port("in")); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !bytes.Equal(got, page) {
		t.Fatal("assembled page differs from the one sent")
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("a %d-word page cost %d allocations", words, allocs)
	if limit := uint64(words/signal.WordChunk + runSlack + 1); allocs > limit {
		t.Fatalf("a %d-word page cost %d allocations, want <= %d: one box chunk per %d words, the presize and %d for the run",
			words, allocs, limit, signal.WordChunk, runSlack)
	}
}

// TestHardwareTransferBoxesInChunks pins the hardware level end to end:
// a 64 KB transfer is one bus cycle a byte, boxed in shared chunks — one
// allocation per signal.BusCycleChunk cycles, not one a byte — and
// assembled by ReceiveMessage into its one presized buffer.
func TestHardwareTransferBoxesInChunks(t *testing.T) {
	const (
		size = 64 << 10
		// As in TestWordPageBoxesInChunks: the event queue's 639-row
		// chunks for the transfer's drives and a fixed 48 for the run.
		runSlack = size/639 + 48
	)
	page := make([]byte, size)
	for i := range page {
		page[i] = byte(i * 7)
	}
	s := core.NewSubsystem("p")
	tx := core.BehaviorFunc(func(p *core.Proc) error {
		SendMessage(p, "out", page, LevelHardware, Config{})
		return nil
	})
	var got []byte
	rx := core.BehaviorFunc(func(p *core.Proc) error {
		msg, _, err := ReceiveMessage(p, "in", NewAssembler())
		got = msg
		return err
	})
	tc, _ := s.NewComponent("tx", tx, "out")
	rc, _ := s.NewComponent("rx", rx, "in")
	n, _ := s.NewNet("bus", 1)
	if err := s.Connect(n, tc.Port("out"), rc.Port("in")); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !bytes.Equal(got, page) {
		t.Fatal("assembled transfer differs from the one sent")
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("a %d-byte hardware-level transfer cost %d allocations", size, allocs)
	if limit := uint64(size/signal.BusCycleChunk + runSlack + 1); allocs > limit {
		t.Fatalf("a %d-byte hardware-level transfer cost %d allocations, want <= %d: one box chunk per %d cycles, the presize and %d for the run",
			size, allocs, limit, signal.BusCycleChunk, runSlack)
	}
}

// drives models the number of net drives a payload costs at a level —
// the quantity the remote experiments count, since each drive becomes
// one channel message.
func drives(payloadLen int, level string, cfg Config) int {
	switch level {
	case LevelHardware:
		return 1 + payloadLen
	case LevelWord:
		return 1 + (payloadLen+3)/4
	default:
		n := (payloadLen + cfg.packetLen() - 1) / cfg.packetLen()
		if n == 0 {
			n = 1
		}
		return n
	}
}
