package signal

import "unsafe"

// Chunk lengths of the boxers. Each chunk fills an exact size class of
// Go's allocator, so it wastes nothing: 256 four-byte words are 1 024 B,
// 16 Frames of 72 B are 1 152 B, and 256 BusCycles of 12 B are 3 072 B.
const (
	WordChunk     = 256
	FrameChunk    = 16
	BusCycleChunk = 256
)

// boxes boxes values of type T into interface values in shared chunks
// of n, so a burst costs one allocation per chunk instead of one runtime
// box per value. The zero value is ready to use; a boxes is not safe for
// concurrent use.
//
// A value is written into the next slot of the current chunk and the
// returned interface points at that slot. A slot is written once, by
// box, and never again: that is what makes it sound for many interfaces
// to share one chunk, and for a chunk to live exactly as long as any
// value boxed in it. The result is indistinguishable from any(v): type
// switches, assertions, == and reflect see a T.
type boxes[T any] struct {
	buf []T
}

func (b *boxes[T]) box(v T, n int, typ unsafe.Pointer) any {
	if len(b.buf) == cap(b.buf) {
		b.buf = make([]T, 0, n)
	}
	b.buf = append(b.buf, v)
	slot := &b.buf[len(b.buf)-1]
	return *(*any)(unsafe.Pointer(&eface{typ: typ, data: unsafe.Pointer(slot)}))
}

// eface is the layout of an empty interface: type word, data word.
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// typeWord is the interface type word of T, read from a real interface
// so it is never hard-coded.
func typeWord[T any]() unsafe.Pointer {
	var zero T
	v := any(zero)
	return (*eface)(unsafe.Pointer(&v)).typ
}

var (
	wordType     = typeWord[Word]()
	frameType    = typeWord[Frame]()
	busCycleType = typeWord[BusCycle]()
)

// WordBoxes boxes Words in pointer-free chunks of WordChunk. A word
// below 256 is boxed as any(w), which the runtime serves from its static
// table without allocating; only the others take a slot. Chunks hold no
// pointers, so the collector never scans them.
type WordBoxes struct {
	b boxes[Word]
}

// Box returns w as an interface value.
func (b *WordBoxes) Box(w Word) any {
	if w < 256 {
		return w
	}
	return b.b.box(w, WordChunk, wordType)
}

// FrameBoxes boxes Frames in chunks of FrameChunk. A Last frame is boxed
// alone, as any(f): a net keeps its last value and checkpoints it, and a
// transfer ends on its Last frame, so a chunk would keep the payloads of
// up to FrameChunk-1 siblings alive behind it.
type FrameBoxes struct {
	b boxes[Frame]
}

// Box returns f as an interface value.
func (b *FrameBoxes) Box(f Frame) any {
	if f.Last {
		return f
	}
	return b.b.box(f, FrameChunk, frameType)
}

// BusCycleBoxes boxes BusCycles in pointer-free chunks of BusCycleChunk:
// a hardware-level transfer is one cycle a byte, so boxing each alone
// would cost one allocation a byte.
type BusCycleBoxes struct {
	b boxes[BusCycle]
}

// Box returns c as an interface value.
func (b *BusCycleBoxes) Box(c BusCycle) any {
	return b.b.box(c, BusCycleChunk, busCycleType)
}
