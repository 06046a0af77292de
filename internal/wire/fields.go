package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Fields reads the fields of one frame payload in order: the bounded
// reader behind every layout a peer's bytes reach (the batch codec, the
// node handshake, the hardware-server RPC, the mesh control plane, the
// session envelope, the migration image and the behaviour states inside
// it). Every read is checked against what is left of the payload before
// anything is sliced or allocated, so no length a peer declares can
// reach past its frame or size an allocation: a string is further
// bounded by a named cap, a list by a cap and by the bytes its items
// need.
//
// The first failure sticks — later reads return zero values — so a
// parser reads its whole layout and asks once: Done reports the failure
// or, when every read succeeded, any bytes left over.
type Fields struct {
	buf []byte
	err error
}

// NewFields starts reading the payload of a frame that must be of kind
// want: a frame of any other kind fails at once, undecoded.
func NewFields(kind, want byte, payload []byte) Fields {
	f := Fields{buf: payload}
	if kind != want {
		f.err = fmt.Errorf("wire: unexpected frame kind %d (want %d)", kind, want)
	}
	return f
}

// ReadFields starts reading a layout a frame carried, such as an image.
func ReadFields(b []byte) Fields { return Fields{buf: b} }

// take hands out the next n bytes, or nil once anything has failed.
func (f *Fields) take(n int) []byte {
	if f.err != nil {
		return nil
	}
	if n > len(f.buf) {
		f.err = fmt.Errorf("wire: short body (%d bytes wanted, %d left)", n, len(f.buf))
		return nil
	}
	b := f.buf[:n]
	f.buf = f.buf[n:]
	return b
}

// Byte reads one byte.
func (f *Fields) Byte() byte {
	if b := f.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a 4-byte big-endian integer.
func (f *Fields) U32() uint32 {
	if b := f.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (f *Fields) Uvarint() uint64 {
	v, n := binary.Uvarint(f.buf)
	if !f.varint(n) {
		return 0
	}
	return v
}

// Varint reads a signed (zig-zag) varint.
func (f *Fields) Varint() int64 {
	v, n := binary.Varint(f.buf)
	if !f.varint(n) {
		return 0
	}
	return v
}

// varint consumes a varint the decoder found n bytes long. One in more
// bytes than its value needs — a zero last byte after the first — is an
// error too, so every layout read with Fields has exactly one encoding
// of each value.
func (f *Fields) varint(n int) bool {
	switch {
	case f.err != nil:
		return false
	case n <= 0:
		f.err = errors.New("wire: truncated or overflowing varint")
		return false
	case n > 1 && f.buf[n-1] == 0:
		f.err = fmt.Errorf("wire: varint in %d bytes where fewer suffice", n)
		return false
	}
	f.buf = f.buf[n:]
	return true
}

// Fixed reads a uvarint padded to exactly width bytes, as PutFixed
// writes it: a length or count patched in place after what it counts.
// The same value in any other width is an error.
func (f *Fields) Fixed(width int) uint64 {
	b := f.take(width)
	if b == nil {
		return 0
	}
	v, n := binary.Uvarint(b)
	if n != width {
		f.err = fmt.Errorf("wire: field is not a uvarint padded to %d bytes", width)
		return 0
	}
	return v
}

// View reads n bytes, at most max of them, where n is the length the
// layout gave just before (read with Uvarint or Fixed). What it returns
// aliases the payload: a caller that keeps it copies it.
func (f *Fields) View(n uint64, max int) []byte {
	if f.err == nil && n > uint64(max) {
		f.err = fmt.Errorf("wire: field of %d bytes exceeds its cap of %d", n, max)
	}
	return f.take(int(n))
}

// String reads a uvarint length and that many bytes, at most max of
// them, and copies them out: nothing returned aliases the payload.
func (f *Fields) String(max int) string { return string(f.View(f.Uvarint(), max)) }

// Len reads a list length: at most max items, each at least itemMin
// bytes of what is left, so the list the caller allocates is bounded by
// both the cap and the frame.
func (f *Fields) Len(max, itemMin int) int {
	n := f.Uvarint()
	if f.err != nil {
		return 0
	}
	if n > uint64(max) {
		f.err = fmt.Errorf("wire: list of %d items exceeds its cap of %d", n, max)
		return 0
	}
	if n*uint64(itemMin) > uint64(len(f.buf)) {
		f.err = fmt.Errorf("wire: list of %d items in %d bytes", n, len(f.buf))
		return 0
	}
	return int(n)
}

// Rest reads every byte left: the open-ended tail of a layout, such as
// a session data envelope's chunk. What it returns aliases the payload.
func (f *Fields) Rest() []byte { return f.take(len(f.buf)) }

// Failf records a layout error the parser found in a value it read (an
// unknown tag or version, a field out of range), unless a read failed
// first — so a parser may check a value without asking whether the read
// that produced it failed.
func (f *Fields) Failf(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

// ReadInts reads a layout of signed varints alone, one into each of vs
// in order: the state of a behaviour whose progress is its counters.
func ReadInts(b []byte, vs ...*int) error {
	f := ReadFields(b)
	for _, v := range vs {
		*v = int(f.Varint())
	}
	return f.Done()
}

// Left is how many bytes are left to read.
func (f *Fields) Left() int { return len(f.buf) }

// Err is the first failure, or nil while every read has succeeded.
func (f *Fields) Err() error { return f.err }

// Done ends the layout: the first failure, or an error if bytes remain.
func (f *Fields) Done() error {
	if f.err == nil && len(f.buf) > 0 {
		f.err = fmt.Errorf("wire: %d trailing bytes", len(f.buf))
	}
	return f.err
}

// AppendString appends s as Fields.String reads it: a uvarint length
// and the bytes.
func AppendString[T string | []byte](dst []byte, s T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// PutFixed writes v into dst as a uvarint padded to exactly len(dst)
// bytes, every byte but the last carrying the continuation bit, so a
// length or count can be reserved and patched once what it counts is
// written; Fixed reads it back. v must fit in 7*len(dst) bits.
func PutFixed(dst []byte, v uint64) {
	last := len(dst) - 1
	for i := range last {
		dst[i] = byte(v) | 0x80
		v >>= 7
	}
	dst[last] = byte(v & 0x7f)
}
