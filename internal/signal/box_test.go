package signal

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestBoxIsAWord checks that a boxed word, small or large, is in every
// observable way the value any(w) would be.
func TestBoxIsAWord(t *testing.T) {
	var b WordBoxes
	for _, w := range []Word{0, 7, 255, 256, 0xdeadbeef, 0xffffffff} {
		v := b.Box(w)
		if got, ok := v.(Word); !ok || got != w {
			t.Errorf("Box(%#x).(Word) = %v, %v", w, got, ok)
		}
		switch x := v.(type) {
		case Word:
			if x != w {
				t.Errorf("type switch on Box(%#x) read %#x", w, x)
			}
		default:
			t.Errorf("type switch on Box(%#x) matched %T", w, v)
		}
		if reflect.TypeOf(v) != reflect.TypeOf(Word(0)) {
			t.Errorf("reflect.TypeOf(Box(%#x)) = %v", w, reflect.TypeOf(v))
		}
		if v != any(w) {
			t.Errorf("Box(%#x) != any(%#x)", w, w)
		}
		if String(v) != String(any(w)) {
			t.Errorf("String(Box(%#x)) = %q, want %q", w, String(v), String(any(w)))
		}
		if Size(v) != 4 {
			t.Errorf("Size(Box(%#x)) = %d, want 4", w, Size(v))
		}
	}
}

// TestBoxGobRoundTrip sends boxed words through gob behind an
// interface, as wire.Conn.Send does for the benchmark's gob probe; the
// package's init keeps the boxed types registered.
func TestBoxGobRoundTrip(t *testing.T) {
	var b WordBoxes
	var f FrameBoxes
	in := []any{b.Box(3), b.Box(0x12345678), Level(true), b.Box(0xffffffff),
		f.Box(Frame{Src: "s", Dst: "d", Seq: 1, Payload: []byte{1, 2}}), f.Box(Frame{Seq: 2, Payload: []byte{3}, Last: true})}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("gob round trip: %v, want %v", out, in)
	}
}

// TestBoxSurvivesGC holds boxes only through a []any across many
// chunks: the chunks must stay alive and unchanged through collections.
func TestBoxSurvivesGC(t *testing.T) {
	const n = 10_000
	want := func(i int) Word { return Word(256 + i*7919) }
	vals := make([]any, n)
	var b WordBoxes
	for i := range vals {
		vals[i] = b.Box(want(i))
	}
	b = WordBoxes{} // the boxer no longer holds the last chunk
	runtime.GC()
	runtime.GC()
	for i, v := range vals {
		if v.(Word) != want(i) {
			t.Fatalf("vals[%d] = %#x after GC, want %#x (chunk slot %d)", i, v, want(i), i%WordChunk)
		}
	}
}

// TestBoxAllocsPerChunk is the point of the boxer: 256 words >= 256
// cost at most one chunk allocation.
func TestBoxAllocsPerChunk(t *testing.T) {
	var b WordBoxes
	var sink any
	avg := testing.AllocsPerRun(100, func() {
		b = WordBoxes{}
		for i := range WordChunk {
			sink = b.Box(Word(1000 + i))
		}
	})
	if avg > 1 {
		t.Fatalf("%d boxes cost %.2f allocations, want <= 1", WordChunk, avg)
	}
	_ = sink
}

// TestChunksFillTheirSizeClass: a word chunk is 1 024 B, a frame chunk
// 1 152 B and a bus-cycle chunk 3 072 B, all exact size classes of Go's
// allocator, so a chunk wastes nothing. A field added to Frame or
// BusCycle breaks its row and must re-size its chunk.
func TestChunksFillTheirSizeClass(t *testing.T) {
	if n := WordChunk * unsafe.Sizeof(Word(0)); n != 1024 {
		t.Errorf("a word chunk is %d B, want 1024", n)
	}
	if n := FrameChunk * unsafe.Sizeof(Frame{}); n != 1152 {
		t.Errorf("a frame chunk is %d B, want 1152", n)
	}
	if n := BusCycleChunk * unsafe.Sizeof(BusCycle{}); n != 3072 {
		t.Errorf("a bus-cycle chunk is %d B, want 3072", n)
	}
}

// TestBusCycleBoxes: a boxed bus cycle is the value any(c) would be, and
// BusCycleChunk of them cost one allocation.
func TestBusCycleBoxes(t *testing.T) {
	var b BusCycleBoxes
	for _, c := range []BusCycle{{}, {Addr: 0xffff, Data: 0xa5, Write: true}} {
		v := b.Box(c)
		if got, ok := v.(BusCycle); !ok || got != c || v != any(c) || reflect.TypeOf(v) != reflect.TypeOf(c) {
			t.Errorf("Box(%v) = %v (%T)", c, v, v)
		}
	}
	var sink any
	avg := testing.AllocsPerRun(100, func() {
		b = BusCycleBoxes{}
		for i := range BusCycleChunk {
			sink = b.Box(BusCycle{Addr: uint32(i), Data: Word(i), Write: true})
		}
	})
	if avg > 1 {
		t.Fatalf("%d bus-cycle boxes cost %.2f allocations, want <= 1", BusCycleChunk, avg)
	}
	_ = sink
}

// dataOf is the data word of an interface value: where its box lives.
func dataOf(v any) uintptr { return uintptr((*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]) }

// TestFrameBoxIsAFrame checks that a boxed frame, Last or not, is in
// every observable way the value any(f) would be.
func TestFrameBoxIsAFrame(t *testing.T) {
	var b FrameBoxes
	for _, f := range []Frame{
		{},
		{Src: "server", Dst: "asic", Seq: 7, Payload: []byte("page"), Last: false},
		{Src: "asic", Dst: "server", Seq: 1, Payload: []byte("url"), Last: true},
	} {
		v := b.Box(f)
		got, ok := v.(Frame)
		if !ok || !reflect.DeepEqual(got, f) {
			t.Errorf("Box(%v).(Frame) = %v, %v", f, got, ok)
		}
		if reflect.TypeOf(v) != reflect.TypeOf(Frame{}) {
			t.Errorf("reflect.TypeOf(Box(%v)) = %v", f, reflect.TypeOf(v))
		}
		if String(v) != String(any(f)) || Size(v) != Size(any(f)) {
			t.Errorf("Box(%v): String %q Size %d, want %q %d", f, String(v), Size(v), String(any(f)), Size(any(f)))
		}
	}
}

// TestFrameBoxesShareChunksButNotLast: frames that are not Last share
// chunks of FrameChunk, one allocation a chunk, while a Last frame is
// boxed alone, outside the chunk being filled, so a net that keeps its
// last value pins no sibling's payload.
func TestFrameBoxesShareChunksButNotLast(t *testing.T) {
	var b FrameBoxes
	const size = unsafe.Sizeof(Frame{})
	first := dataOf(b.Box(Frame{Seq: 0}))
	second := dataOf(b.Box(Frame{Seq: 1}))
	if second != first+size {
		t.Fatalf("consecutive frames boxed %d B apart, want the next slot (%d B)", second-first, size)
	}
	if last := dataOf(b.Box(Frame{Seq: 2, Last: true})); last >= first && last < first+FrameChunk*size {
		t.Fatalf("the Last frame was boxed at slot %d of the open chunk", (last-first)/size)
	}
	if third := dataOf(b.Box(Frame{Seq: 3})); third != first+2*size {
		t.Fatalf("the frame after a Last one went %d B past the chunk's start, want slot 2", third-first)
	}
	var sink any
	avg := testing.AllocsPerRun(100, func() {
		b = FrameBoxes{}
		for i := range FrameChunk {
			sink = b.Box(Frame{Seq: uint32(i), Payload: []byte{}})
		}
	})
	if avg > 1 {
		t.Fatalf("%d frame boxes cost %.2f allocations, want <= 1", FrameChunk, avg)
	}
	_ = sink
}

// TestFrameBoxSurvivesGC holds boxed frames only through a []any: a
// frame chunk holds pointers, and the collector must keep both the
// chunks and the payloads they point at alive and unchanged.
func TestFrameBoxSurvivesGC(t *testing.T) {
	const n = 1000
	vals := make([]any, n)
	var b FrameBoxes
	for i := range vals {
		vals[i] = b.Box(Frame{Src: "s", Seq: uint32(i), Payload: bytes.Repeat([]byte{byte(i)}, 64), Last: i%100 == 99})
	}
	b = FrameBoxes{}
	runtime.GC()
	runtime.GC()
	for i, v := range vals {
		f := v.(Frame)
		if f.Seq != uint32(i) || f.Src != "s" || !bytes.Equal(f.Payload, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("vals[%d] = %v after GC", i, f)
		}
	}
}
