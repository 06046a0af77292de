package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// memStream serves a fixed byte slice as the read side of a Conn and
// discards writes — the harness for parsing hostile input.
type memStream struct{ r *bytes.Reader }

func (m memStream) Read(p []byte) (int, error)  { return m.r.Read(p) }
func (m memStream) Write(p []byte) (int, error) { return len(p), nil }
func (m memStream) Close() error                { return nil }

// frameBytes assembles a well-formed frame for seeding the corpus.
func frameBytes(kind byte, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf[4] = kind
	copy(buf[headerLen:], payload)
	return buf
}

// FuzzFrameParser feeds arbitrary byte streams to the frame reader.
// RecvFrame must never panic, never hand back a payload larger than
// the frame limit, and must terminate (every iteration either returns
// an error or consumes at least a header's worth of input). A second
// reader over the same bytes drains bursts with RecvBuffered the way
// the node pump does, and must see exactly the same frames.
func FuzzFrameParser(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameBytes(FrameGob, []byte("not really gob")))
	f.Add(frameBytes(FrameBatch, []byte{1, 0, 9}))
	f.Add(frameBytes(FrameGob, nil))
	// A header declaring more payload than follows (truncated body).
	f.Add(frameBytes(FrameBatch, bytes.Repeat([]byte{7}, 32))[:12])
	// A length prefix beyond MaxFrame.
	huge := frameBytes(99, nil)
	binary.BigEndian.PutUint32(huge[:4], MaxFrame+1)
	f.Add(huge)
	// Two valid frames back to back.
	f.Add(append(frameBytes(FrameBatch, []byte{0}), frameBytes(FrameGob, []byte{1, 2})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(memStream{bytes.NewReader(data)})
		var frames []wantFrame
		for {
			kind, payload, err := c.RecvFrame()
			if err != nil {
				break
			}
			if len(payload) > MaxFrame {
				t.Fatalf("RecvFrame returned %d-byte payload past the limit", len(payload))
			}
			// Gob payloads must decode or error, never panic.
			if kind == FrameGob {
				var v any
				_ = DecodeGob(payload, &v)
			}
			frames = append(frames, wantFrame{kind, append([]byte(nil), payload...)})
		}
		burst, _, viaBuffered, _ := recvAll(NewConn(memStream{bytes.NewReader(data)}))
		mustEqualFrames(t, burst, frames)
		if len(data) <= recvBufSize && len(frames) > 1 && viaBuffered != len(frames)-1 {
			// One read delivers the whole input, so every frame after the
			// first is already buffered.
			t.Fatalf("RecvBuffered returned %d of %d frames that arrived in one read", viaBuffered, len(frames))
		}
	})
}
