package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// countStream records every Write it sees; Read serves whatever was
// written, so frames can be parsed back for equivalence checks.
type countStream struct {
	buf    bytes.Buffer
	writes int
	// failAfter, when >= 0, makes the next Write accept only that
	// many bytes and return an error — the short-write case.
	failAfter int
}

func newCountStream() *countStream { return &countStream{failAfter: -1} }

func (s *countStream) Write(p []byte) (int, error) {
	s.writes++
	if s.failAfter >= 0 {
		n := s.failAfter
		if n > len(p) {
			n = len(p)
		}
		s.buf.Write(p[:n])
		return n, errors.New("stream torn mid-frame")
	}
	s.buf.Write(p)
	return len(p), nil
}

func (s *countStream) Read(p []byte) (int, error) { return s.buf.Read(p) }
func (s *countStream) Close() error               { return nil }

// TestSendIsOneWritePerFrame pins the single-write framing property:
// header and payload leave in one Write call (one syscall, and one
// envelope on a resilient session), and BytesOut counts exactly what
// the stream was handed — gob fallback path included.
func TestSendIsOneWritePerFrame(t *testing.T) {
	s := newCountStream()
	c := NewConn(s)
	if err := c.Send(payload{N: 7, S: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendRaw(FrameBatch, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if s.writes != 2 {
		t.Fatalf("2 frames took %d writes, want 2 (one per frame)", s.writes)
	}
	st := c.Stats()
	if st.BytesOut != int64(s.buf.Len()) {
		t.Fatalf("BytesOut=%d but the stream received %d bytes", st.BytesOut, s.buf.Len())
	}
	if st.FramesOut != 2 {
		t.Fatalf("FramesOut=%d, want 2", st.FramesOut)
	}
}

// TestBytesOutCountsShortWrite is the wire-stats regression test: on
// a torn write the counter must record the bytes actually flushed,
// not the frame size we wished we had sent.
func TestBytesOutCountsShortWrite(t *testing.T) {
	s := newCountStream()
	s.failAfter = 3
	c := NewConn(s)
	if err := c.SendRaw(FrameBatch, bytes.Repeat([]byte{9}, 100)); err == nil {
		t.Fatal("short write did not surface an error")
	}
	if got := c.Stats().BytesOut; got != 3 {
		t.Fatalf("BytesOut=%d after a 3-byte short write, want 3", got)
	}
	if got := c.Stats().FramesOut; got != 0 {
		t.Fatalf("FramesOut=%d after a failed frame, want 0", got)
	}
}

// TestEgressSingleFlush checks the writev-style batched flush: several
// frames sealed into the builder leave in exactly one Write, counters
// match the stream, and the frames parse back identically.
func TestEgressSingleFlush(t *testing.T) {
	s := newCountStream()
	c := NewConn(s)
	want := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xAB}, 300)}

	eg := c.BeginEgress()
	for _, p := range want {
		buf := eg.BeginFrame(FrameBatch)
		buf = append(buf, p...)
		if err := eg.EndFrame(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := eg.Flush(); err != nil {
		t.Fatal(err)
	}
	eg.Close()

	if s.writes != 1 {
		t.Fatalf("3 frames took %d writes, want 1", s.writes)
	}
	st := c.Stats()
	if st.FramesOut != 3 {
		t.Fatalf("FramesOut=%d, want 3", st.FramesOut)
	}
	if st.BytesOut != int64(s.buf.Len()) {
		t.Fatalf("BytesOut=%d but the stream received %d bytes", st.BytesOut, s.buf.Len())
	}

	// The builder's output must be indistinguishable from SendRaw's.
	rc := NewConn(s)
	for i, p := range want {
		kind, got, err := rc.RecvFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != FrameBatch || !bytes.Equal(got, p) {
			t.Fatalf("frame %d parsed back wrong: kind=%d payload=%q", i, kind, got)
		}
	}
	if _, _, err := rc.RecvFrame(); err != io.EOF {
		t.Fatalf("extra bytes after the flushed frames: %v", err)
	}
}

// TestEgressShortWriteCountsActualBytes extends the stats regression
// to the batched flush path.
func TestEgressShortWriteCountsActualBytes(t *testing.T) {
	s := newCountStream()
	s.failAfter = 4
	c := NewConn(s)
	eg := c.BeginEgress()
	buf := eg.BeginFrame(FrameBatch)
	buf = append(buf, bytes.Repeat([]byte{1}, 64)...)
	if err := eg.EndFrame(buf); err != nil {
		t.Fatal(err)
	}
	if err := eg.Flush(); err == nil {
		t.Fatal("short write did not surface an error")
	}
	eg.Close()
	if got := c.Stats().BytesOut; got != 4 {
		t.Fatalf("BytesOut=%d after a 4-byte short write, want 4", got)
	}
}

// TestEgressMisuseLatches pins the builder's error discipline: a
// protocol misuse poisons the builder until Close, and an abandoned
// (never flushed) builder sends nothing.
func TestEgressMisuseLatches(t *testing.T) {
	s := newCountStream()
	c := NewConn(s)

	eg := c.BeginEgress()
	if err := eg.EndFrame(eg.buf); err == nil {
		t.Fatal("EndFrame without BeginFrame succeeded")
	}
	if err := eg.Flush(); err == nil {
		t.Fatal("Flush after misuse succeeded")
	}
	eg.Close()

	eg = c.BeginEgress()
	buf := eg.BeginFrame(FrameBatch)
	buf = append(buf, 1, 2, 3)
	_ = buf // sealed never: Flush must refuse the open frame
	if err := eg.Flush(); err == nil {
		t.Fatal("Flush with an unsealed frame succeeded")
	}
	eg.Close()

	// A fresh builder is clean after the poisoned ones closed.
	eg = c.BeginEgress()
	buf = eg.BeginFrame(FrameBatch)
	buf = append(buf, 42)
	if err := eg.EndFrame(buf); err != nil {
		t.Fatal(err)
	}
	if err := eg.Flush(); err != nil {
		t.Fatal(err)
	}
	eg.Close()
	if c.Stats().FramesOut != 1 {
		t.Fatalf("FramesOut=%d, want 1 (misused builders must send nothing)", c.Stats().FramesOut)
	}
}

// TestEgressAbandonedSendsNothing: Close without Flush drops the
// sealed-but-unflushed frames.
func TestEgressAbandonedSendsNothing(t *testing.T) {
	s := newCountStream()
	c := NewConn(s)
	eg := c.BeginEgress()
	buf := eg.BeginFrame(FrameBatch)
	buf = append(buf, 1)
	if err := eg.EndFrame(buf); err != nil {
		t.Fatal(err)
	}
	eg.Close()
	if s.writes != 0 || c.Stats().BytesOut != 0 {
		t.Fatalf("abandoned egress wrote %d times, %d bytes", s.writes, c.Stats().BytesOut)
	}
}

// TestWriteFrameInPlace: a run of frames built with room for their
// headers, filled by PutHeader, splits back into its frames with
// NextFrame; WriteFrame sends each as it lies, one Write a frame, reads
// back as SendRaw's frame would, and leaves the caller's bytes as they
// were. A frame whose header does not give its own length is refused
// before anything is written.
func TestWriteFrameInPlace(t *testing.T) {
	var frames []byte
	for _, p := range [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{9}, 300)} {
		at := len(frames)
		frames = append(append(frames, make([]byte, HeaderLen)...), p...)
		PutHeader(frames[at:], FrameBatch)
	}
	before := append([]byte(nil), frames...)
	s := newCountStream()
	c := NewConn(s)
	var lens []int
	for rest := frames; len(rest) > 0; {
		var frame []byte
		frame, rest = NextFrame(rest)
		lens = append(lens, len(frame)-HeaderLen)
		if err := c.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if len(lens) != 3 || lens[0] != 3 || lens[1] != 0 || lens[2] != 300 {
		t.Fatalf("NextFrame split the run into payloads of %v bytes, want [3 0 300]", lens)
	}
	if s.writes != 3 || !bytes.Equal(frames, before) || !bytes.Equal(s.buf.Bytes(), frames) {
		t.Fatalf("%d Writes; frames changed %v; stream equals the frames %v", s.writes, !bytes.Equal(frames, before), bytes.Equal(s.buf.Bytes(), frames))
	}
	for _, want := range []int{3, 0, 300} {
		kind, payload, err := c.RecvFrame()
		if err != nil || kind != FrameBatch || len(payload) != want {
			t.Fatalf("read back kind %d, %d bytes, err %v; want a %d-byte batch frame", kind, len(payload), err, want)
		}
	}
	if err := c.WriteFrame([]byte{0, 0, 0, 9, FrameBatch, 1}); err == nil || s.writes != 3 {
		t.Fatalf("a header claiming 9 bytes over a 1-byte payload: err %v, %d Writes", err, s.writes)
	}
}
