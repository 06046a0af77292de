package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// drive is one net drive as a subsystem's OnDrive hook saw it.
type drive struct {
	at vtime.Time
	v  any
}

// recordSend runs send in a lone sender and returns every drive it made
// and the count send returned.
func recordSend(t *testing.T, send func(p *core.Proc) int) ([]drive, int) {
	t.Helper()
	s := core.NewSubsystem("p")
	var got []drive
	s.Observe(core.Observer{Drive: func(_, _ string, at vtime.Time, v any) { got = append(got, drive{at, v}) }})
	n := 0
	tc, _ := s.NewComponent("tx", core.BehaviorFunc(func(p *core.Proc) error {
		n = send(p)
		return nil
	}), "out")
	w, _ := s.NewNet("w", 0)
	if err := s.Connect(w, tc.Port("out")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	return got, n
}

// cut splits payload at random points into parts that each own a copy
// of their bytes, so a view of a part is told from a copy by address.
// The cuts make empty parts, parts ending inside a word, and parts
// shorter and longer than a packet.
func cut(rng *rand.Rand, payload []byte, plen int) [][]byte {
	var parts [][]byte
	for off := 0; ; {
		var n int
		switch rng.Intn(5) {
		case 0:
			n = 0
		case 1:
			n = 1 + rng.Intn(7) // inside a word or two
		case 2:
			n = 1 + rng.Intn(plen) // up to a packet
		default:
			n = plen + rng.Intn(3*plen) // longer than a packet
		}
		n = min(n, len(payload)-off)
		parts = append(parts, bytes.Clone(payload[off:off+n]))
		if off += n; off == len(payload) && rng.Intn(3) > 0 {
			return parts
		}
	}
}

// inPart reports which part holds b's bytes as a view, or -1.
func inPart(b []byte, parts [][]byte) int {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for i, part := range parts {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(part)))
		if len(part) > 0 && p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(part)) {
			return i
		}
	}
	return -1
}

// TestSendPartsMatchesSendMessage is the parts property: for random
// payloads cut at random points, SendParts makes the same drives —
// count, values and virtual times — as SendMessage of the joined
// payload at every level. At packet level a packet inside one part is a
// capacity-clipped view of it, and only a packet straddling two parts
// and the Last packet are copies.
func TestSendPartsMatchesSendMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 300; iter++ {
		cfg := DefaultConfig
		cfg.PacketLen = []int{4, 7, 16, 64}[rng.Intn(4)]
		payload := make([]byte, rng.Intn(5*cfg.PacketLen+9))
		rng.Read(payload)
		parts := cut(rng, payload, cfg.PacketLen)
		for _, level := range []string{LevelHardware, LevelWord, LevelPacket} {
			want, wantN := recordSend(t, func(p *core.Proc) int { return SendMessage(p, "out", payload, level, cfg) })
			got, gotN := recordSend(t, func(p *core.Proc) int { return SendParts(p, "out", parts, level, cfg) })
			if gotN != wantN || len(got) != len(want) {
				t.Fatalf("iter %d %s: SendParts made %d drives (returned %d), SendMessage %d (returned %d)",
					iter, level, len(got), gotN, len(want), wantN)
			}
			for i := range want {
				if got[i].at != want[i].at || !reflect.DeepEqual(got[i].v, want[i].v) {
					t.Fatalf("iter %d %s drive %d: %v at %v, want %v at %v", iter, level, i, got[i].v, got[i].at, want[i].v, want[i].at)
				}
			}
			if level != LevelPacket {
				continue
			}
			// Where each packet lies: inside one part, or across a cut.
			ends, off := make([]int, len(parts)), 0
			for i, part := range parts {
				off += len(part)
				ends[i] = off
			}
			for i, d := range got {
				f := d.v.(signal.Frame)
				if len(f.Payload) == 0 {
					continue
				}
				lo, hi := i*cfg.PacketLen, i*cfg.PacketLen+len(f.Payload)
				k := 0
				for ends[k] <= lo {
					k++
				}
				inOne := hi <= ends[k]
				at := inPart(f.Payload, parts)
				switch {
				case !f.Last && inOne && (at != k || cap(f.Payload) != len(f.Payload)):
					t.Fatalf("iter %d packet %d lies in part %d: view of part %d, cap %d for %d bytes; want a capacity-clipped view",
						iter, i, k, at, cap(f.Payload), len(f.Payload))
				case (f.Last || !inOne) && at >= 0:
					t.Fatalf("iter %d packet %d (Last %v, in one part %v) is a view of part %d, want a copy", iter, i, f.Last, inOne, at)
				}
			}
		}
	}
}

// TestSendMessageAllocatesNoPartList: SendMessage wraps its payload as
// the one part of SendParts, and the wrapper costs no allocation — a
// word-level send of large words costs its length header's box and one
// box chunk.
func TestSendMessageAllocatesNoPartList(t *testing.T) {
	payload := make([]byte, 4*signal.WordChunk)
	for i := 0; i < len(payload); i += 4 {
		binary.LittleEndian.PutUint32(payload[i:], 0x01000000|uint32(i))
	}
	s := core.NewSubsystem("p")
	var allocs float64
	tc, _ := s.NewComponent("tx", core.BehaviorFunc(func(p *core.Proc) error {
		allocs = testing.AllocsPerRun(10, func() { SendMessage(p, "out", payload, LevelWord, Config{}) })
		return nil
	}), "out")
	w, _ := s.NewNet("w", 0) // nobody listens: the send is all that allocates
	if err := s.Connect(w, tc.Port("out")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Fatalf("a %d-word send allocated %.1f objects, want the header's box and one box chunk", signal.WordChunk, allocs)
	}
}

// TestFramePartListDoubles: a frame transfer's part list grows by at
// least its length past 256 entries, not by append's quarter, so a
// 2 048-frame page allocates its list about twice over (105 832 bytes),
// not three times (157 672). The frames are boxed before the count and
// the collector is off, so the list is all that allocates.
func TestFramePartListDoubles(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 2048
	payload := make([]byte, 1024)
	frames := make([]any, n)
	for i := range frames {
		frames[i] = signal.Frame{Seq: uint32(i), Payload: payload, Last: i == n-1}
	}
	a := NewAssembler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var parts [][]byte
	for _, f := range frames {
		parts, _, _ = a.FeedParts(f)
	}
	runtime.ReadMemStats(&after)
	if len(parts) != n {
		t.Fatalf("the transfer completed with %d parts, want %d", len(parts), n)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(5*n*sliceHeader/2); got > bound {
		t.Fatalf("a %d-frame transfer allocates %d bytes of part list, want <= %d (2.5 times its entries)", n, got, bound)
	}
}

// fuzzBig backs FuzzAssembler's large frames: views of it cost nothing,
// so a few hundred input bytes push a transfer past maxMessage. What an
// input may take from it in all is capped just past maxMessage, which
// bounds what completing those transfers costs Feed's join.
var fuzzBig = make([]byte, 64<<10)

// fuzzValues decodes data into the values an assembler may receive, one
// op byte and its operands at a time.
func fuzzValues(data []byte) []any {
	var vs []any
	big := maxMessage + len(fuzzBig)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 {
		op := next()
		switch op % 8 {
		case 0: // a length header, negative ones included
			vs = append(vs, signal.Control{Op: "len", Arg: int64(int8(next())) * int64(1+op>>3)})
		case 1:
			vs = append(vs, signal.Control{Op: "ack", Arg: int64(next())})
		case 2:
			vs = append(vs, signal.Word(binary.LittleEndian.Uint32([]byte{next(), next(), next(), next()})))
		case 3:
			vs = append(vs, signal.BusCycle{Addr: uint32(op), Data: signal.Word(next()), Write: op&8 == 0})
		case 4: // a small frame with bytes of its own
			n := int(next() % 32)
			b := make([]byte, n)
			for i := range b {
				b[i] = next()
			}
			vs = append(vs, signal.Frame{Seq: uint32(len(vs)), Payload: b, Last: op&8 != 0})
		case 5: // a large frame, a view of fuzzBig
			n := min(int(next())<<8, big)
			big -= n
			vs = append(vs, signal.Frame{Payload: fuzzBig[:n], Last: op&8 != 0})
		case 6:
			n := int(next() % 16)
			vs = append(vs, signal.Packet(bytes.Repeat([]byte{op}, n)))
		default:
			vs = append(vs, int(op))
		}
	}
	return vs
}

// FuzzAssembler feeds one stream of values to Feed on one assembler and
// FeedParts on another. Neither may panic or hold more than maxMessage,
// they must agree on every refusal and completion, and each completed
// transfer's Feed result must equal the join of its FeedParts parts.
func FuzzAssembler(f *testing.F) {
	f.Add([]byte{0, 6, 2, 1, 2, 3, 4, 2, 5, 6, 7, 8})                 // 6-byte word stream
	f.Add([]byte{0, 3, 3, 9, 3, 8, 3, 7})                             // 3-byte bus stream
	f.Add([]byte{4, 2, 1, 2, 4, 0, 12, 3, 7, 8, 9})                   // frames, the last one Last
	f.Add([]byte{0, 0xff, 2, 1, 2, 3, 4})                             // len -1, then a word
	f.Add([]byte{4, 2, 1, 2, 6, 3, 12, 1, 3})                         // a bare packet inside a frame transfer
	f.Add(bytes.Repeat([]byte{5, 255}, 258))                          // frames past maxMessage
	f.Add([]byte{0, 8, 2, 1, 1, 1, 1, 4, 1, 5, 0, 8, 7, 1, 0, 2, 13}) // refusals mid-stream
	f.Fuzz(func(t *testing.T, data []byte) {
		joined, parted := NewAssembler(), NewAssembler()
		for i, v := range fuzzValues(data) {
			out, done1, err1 := joined.Feed(v)
			parts, done2, err2 := parted.FeedParts(v)
			if (err1 == nil) != (err2 == nil) || done1 != done2 {
				t.Fatalf("value %d (%T): Feed done=%v err=%v, FeedParts done=%v err=%v", i, v, done1, err1, done2, err2)
			}
			if done1 && (out == nil || !joins(out, parts)) {
				t.Fatalf("value %d: Feed returned %d bytes, not the join of FeedParts' %d parts", i, len(out), len(parts))
			}
			for _, a := range []*Assembler{joined, parted} {
				if held := len(a.buf) + a.size + len(a.parts)*sliceHeader; held > maxMessage {
					t.Fatalf("value %d: holding %d bytes, cap is %d", i, held, maxMessage)
				}
			}
		}
		if joined.Messages != parted.Messages {
			t.Fatalf("Feed completed %d messages, FeedParts %d", joined.Messages, parted.Messages)
		}
	})
}

// joins reports whether out is the concatenation of parts.
func joins(out []byte, parts [][]byte) bool {
	for _, p := range parts {
		if len(p) > len(out) || !bytes.Equal(out[:len(p)], p) {
			return false
		}
		out = out[len(p):]
	}
	return len(out) == 0
}
