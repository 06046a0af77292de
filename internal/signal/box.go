package signal

import "unsafe"

// WordChunk is how many words a WordBoxes chunk holds: 256 four-byte
// words are 1 024 B, an exact size class of Go's allocator, so a chunk
// wastes nothing.
const WordChunk = 256

// WordBoxes boxes Words into interface values in shared chunks, so a
// burst of words costs one allocation per WordChunk words instead of
// one runtime box each. The zero value is ready to use; a WordBoxes is
// not safe for concurrent use.
//
// A word below 256 is boxed as any(w), which the runtime serves from
// its static table without allocating. Any other word is written into
// the next slot of the current chunk and the returned interface points
// at that slot. A slot is written once, by Box, and never again: that
// is what makes it sound for many interfaces to share one chunk, and
// for a chunk to live exactly as long as any value boxed in it.
// Chunks hold no pointers, so the collector never scans them.
//
// The result is indistinguishable from any(w): it has type Word, and
// type switches, assertions, == and reflect see a Word.
type WordBoxes struct {
	buf []Word
}

// eface is the layout of an empty interface: type word, data word.
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// wordType is the interface type word of Word, read from a real
// interface so it is never hard-coded.
var wordType = func() unsafe.Pointer {
	v := any(Word(0))
	return (*eface)(unsafe.Pointer(&v)).typ
}()

// Box returns w as an interface value.
func (b *WordBoxes) Box(w Word) any {
	if w < 256 {
		return w
	}
	if len(b.buf) == cap(b.buf) {
		b.buf = make([]Word, 0, WordChunk)
	}
	b.buf = append(b.buf, w)
	slot := &b.buf[len(b.buf)-1]
	return *(*any)(unsafe.Pointer(&eface{typ: wordType, data: unsafe.Pointer(slot)}))
}
