package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
)

// chunk is one scripted event on a stream's read side: bytes (handed
// out over as many Reads as the caller's buffer needs), or an error
// returned once.
type chunk struct {
	data []byte
	err  error
}

// scriptStream serves a script of chunks and counts Read calls. Every
// Read returns bytes from one chunk only, like a socket delivering one
// segment at a time. After the script it reports io.EOF.
type scriptStream struct {
	script []chunk
	reads  int
}

func (s *scriptStream) Read(p []byte) (int, error) {
	s.reads++
	if len(s.script) == 0 {
		return 0, io.EOF
	}
	c := &s.script[0]
	if c.err != nil {
		s.script = s.script[1:]
		return 0, c.err
	}
	n := copy(p, c.data)
	if c.data = c.data[n:]; len(c.data) == 0 {
		s.script = s.script[1:]
	}
	return n, nil
}

func (s *scriptStream) Write(p []byte) (int, error) { return len(p), nil }
func (s *scriptStream) Close() error                { return nil }

type wantFrame struct {
	kind    byte
	payload []byte
}

func (w wantFrame) bytes() []byte { return frameBytes(w.kind, w.payload) }

// recvAll reads frames the way the node pump does — RecvFrame, then
// RecvBuffered until it declines — and returns every frame (payloads
// copied), how many came from each call, and the terminating error.
func recvAll(c *Conn) (got []wantFrame, viaRecv, viaBuffered int, err error) {
	for {
		kind, payload, err := c.RecvFrame()
		if err != nil {
			return got, viaRecv, viaBuffered, err
		}
		viaRecv++
		for ok := true; ok; kind, payload, ok = c.RecvBuffered() {
			got = append(got, wantFrame{kind, append([]byte(nil), payload...)})
		}
		viaBuffered = len(got) - viaRecv
	}
}

func mustEqualFrames(t *testing.T, got, want []wantFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("frame %d: kind %d, %d payload bytes; want kind %d, %d bytes",
				i, got[i].kind, len(got[i].payload), want[i].kind, len(want[i].payload))
		}
	}
}

// TestRecvFrameSplitAtEveryOffset delivers three frames (one with an
// empty payload) in two reads split at every possible byte offset.
func TestRecvFrameSplitAtEveryOffset(t *testing.T) {
	want := []wantFrame{
		{FrameBatch, []byte("first frame")},
		{FrameGob, nil},
		{FrameBatch, bytes.Repeat([]byte{0xab}, 40)},
	}
	var stream []byte
	for _, w := range want {
		stream = append(stream, w.bytes()...)
	}
	for off := 1; off < len(stream); off++ {
		s := &scriptStream{script: []chunk{{data: stream[:off:off]}, {data: stream[off:]}}}
		c := NewConn(s)
		got, _, _, err := recvAll(c)
		if err != io.EOF {
			t.Fatalf("split at %d: ended with %v, want io.EOF", off, err)
		}
		mustEqualFrames(t, got, want)
		if st := c.Stats(); st.FramesIn != 3 || st.BytesIn != int64(len(stream)) {
			t.Fatalf("split at %d: stats %+v, want 3 frames / %d bytes", off, st, len(stream))
		}
	}
}

// TestRecvBurstCostsReadsPerBufferNotPerFrame: 1 000 small frames that
// arrive together cost about one read per buffer-full, not two per
// frame, and all but the first of each read come back from
// RecvBuffered without touching the stream.
func TestRecvBurstCostsReadsPerBufferNotPerFrame(t *testing.T) {
	const frames = 1000
	var (
		stream []byte
		want   []wantFrame
	)
	for i := 0; i < frames; i++ {
		w := wantFrame{FrameBatch, bytes.Repeat([]byte{byte(i)}, 60+i%40)}
		want = append(want, w)
		stream = append(stream, w.bytes()...)
	}
	s := &scriptStream{script: []chunk{{data: stream}}}
	c := NewConn(s)
	got, viaRecv, viaBuffered, err := recvAll(c)
	if err != io.EOF {
		t.Fatalf("ended with %v, want io.EOF", err)
	}
	mustEqualFrames(t, got, want)
	maxReads := (len(stream)+RecvBufSize-1)/RecvBufSize + 1
	if reads := s.reads - 1; reads > maxReads { // the last Read is the EOF
		t.Fatalf("%d frames (%d bytes) cost %d reads, want <= %d", frames, len(stream), reads, maxReads)
	}
	if viaRecv > maxReads || viaRecv+viaBuffered != frames {
		t.Fatalf("RecvFrame returned %d frames and RecvBuffered %d; want <= %d and the rest", viaRecv, viaBuffered, maxReads)
	}
	if st := c.Stats(); st.FramesIn != frames || st.BytesIn != int64(len(stream)) {
		t.Fatalf("stats %+v, want %d frames / %d bytes", st, frames, len(stream))
	}
}

// rewoundError stands in for the error a resumable session's Read
// returns once it has negotiated a checkpoint rewind: the session layer
// reads its envelopes with this package, so these tests cannot import it.
type rewoundError struct{ tag string }

func (e *rewoundError) Error() string { return "session rewound to checkpoint " + e.tag }

func TestRecvFrameIngress(t *testing.T) {
	small := wantFrame{FrameBatch, []byte("small")}
	after := wantFrame{FrameBatch, []byte("after")}
	big := wantFrame{FrameBatch, bytes.Repeat([]byte{0x5a}, RecvBufSize+1000)}
	exact := wantFrame{FrameBatch, bytes.Repeat([]byte{0x11}, RecvBufSize-HeaderLen)}
	overLimit := frameBytes(FrameBatch, nil)
	binary.BigEndian.PutUint32(overLimit[:4], MaxFrame+1)
	errBoom := errors.New("boom")
	rewound := &rewoundError{tag: "snap:1"}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	for _, tc := range []struct {
		name    string
		script  []chunk
		want    []wantFrame
		wantErr func(error) bool
		check   func(t *testing.T, c *Conn)
	}{
		{
			name:    "frame larger than the buffer, then a small one, in one delivery",
			script:  []chunk{{data: join(big.bytes(), small.bytes())}},
			want:    []wantFrame{big, small},
			wantErr: func(err error) bool { return err == io.EOF },
		},
		{
			name:    "small frame buffered ahead of a large one",
			script:  []chunk{{data: join(small.bytes(), big.bytes()[:100])}, {data: big.bytes()[100:]}},
			want:    []wantFrame{small, big},
			wantErr: func(err error) bool { return err == io.EOF },
		},
		{
			name:    "frame that exactly fills the buffer",
			script:  []chunk{{data: join(small.bytes(), exact.bytes(), small.bytes())}},
			want:    []wantFrame{small, exact, small},
			wantErr: func(err error) bool { return err == io.EOF },
		},
		{
			name:    "length past MaxFrame is rejected before any allocation",
			script:  []chunk{{data: join(small.bytes(), overLimit)}},
			want:    []wantFrame{small},
			wantErr: func(err error) bool { return err != nil && err != io.EOF },
			check: func(t *testing.T, c *Conn) {
				if c.rbuf != nil {
					t.Fatalf("a body buffer of %d bytes was allocated for a rejected frame", cap(c.rbuf))
				}
				if _, _, ok := c.RecvBuffered(); ok {
					t.Fatal("RecvBuffered handed back a frame past the limit")
				}
			},
		},
		{
			name:    "read error inside a header",
			script:  []chunk{{data: small.bytes()[:3]}, {err: errBoom}},
			wantErr: func(err error) bool { return errors.Is(err, errBoom) },
		},
		{
			name:    "read error inside a body",
			script:  []chunk{{data: join(small.bytes(), after.bytes()[:HeaderLen+2])}, {err: errBoom}},
			want:    []wantFrame{small},
			wantErr: func(err error) bool { return errors.Is(err, errBoom) },
		},
		{
			name:    "read error inside a body larger than the buffer",
			script:  []chunk{{data: big.bytes()[:RecvBufSize+10]}, {err: errBoom}},
			wantErr: func(err error) bool { return errors.Is(err, errBoom) },
		},
		{
			name:    "stream ends inside a frame",
			script:  []chunk{{data: small.bytes()[:HeaderLen+1]}},
			wantErr: func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) },
		},
		{
			// A resumable session that negotiated a rewind restarts its
			// stream at a frame boundary: bytes of the abandoned
			// timeline still buffered must not be glued to it.
			name:   "session rewind drops the partial frame buffered before it",
			script: []chunk{{data: join(small.bytes(), after.bytes()[:HeaderLen+2])}, {err: rewound}, {data: after.bytes()}},
			want:   []wantFrame{small},
			wantErr: func(err error) bool {
				var rw *rewoundError
				return errors.As(err, &rw) && rw.tag == "snap:1"
			},
			check: func(t *testing.T, c *Conn) {
				if _, _, ok := c.RecvBuffered(); ok {
					t.Fatal("bytes from before the rewind are still buffered")
				}
				got, _, _, err := recvAll(c)
				if err != io.EOF {
					t.Fatalf("after the rewind: ended with %v, want io.EOF", err)
				}
				mustEqualFrames(t, got, []wantFrame{after})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&scriptStream{script: tc.script})
			got, _, _, err := recvAll(c)
			if !tc.wantErr(err) {
				t.Fatalf("ended with unexpected error %v", err)
			}
			mustEqualFrames(t, got, tc.want)
			var bytesIn int64
			for _, w := range tc.want {
				bytesIn += int64(HeaderLen + len(w.payload))
			}
			if st := c.Stats(); st.FramesIn != int64(len(tc.want)) || st.BytesIn != bytesIn {
				t.Fatalf("stats %+v, want %d frames / %d bytes", st, len(tc.want), bytesIn)
			}
			if tc.check != nil {
				tc.check(t, c)
			}
		})
	}
}

// TestStopReadingReturnsTheBufferOnce: StopReading hands the receive
// buffer to the pool once, dropping what was buffered, and the next
// connection's first read takes that buffer back instead of allocating;
// a second StopReading returns nothing. With the collector off and one
// P, the pool keeps what it is given and hands it back to the next Get.
func TestStopReadingReturnsTheBufferOnce(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's pool drops some of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	two := append(frameBytes(FrameBatch, []byte("one")), frameBytes(FrameBatch, []byte("two"))...)
	c := NewConn(&scriptStream{script: []chunk{{data: two}}})
	if _, payload, err := c.RecvFrame(); err != nil || string(payload) != "one" {
		t.Fatalf("first frame %q, %v", payload, err)
	}
	buf := &c.rb[0]
	c.StopReading()
	c.StopReading()
	if _, _, ok := c.RecvBuffered(); ok {
		t.Fatal("a frame buffered before StopReading was handed out after it")
	}
	d := NewConn(&scriptStream{script: []chunk{{data: frameBytes(FrameBatch, []byte("three"))}}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, payload, err := d.RecvFrame()
	runtime.ReadMemStats(&after)
	if err != nil || string(payload) != "three" {
		t.Fatalf("next connection's frame %q, %v", payload, err)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 || &d.rb[0] != buf {
		t.Fatalf("the next connection's first read allocated %d times; it took the returned buffer: %v", allocs, &d.rb[0] == buf)
	}
	if got := recvBufs.Get().(*[RecvBufSize]byte); &got[0] == buf {
		t.Fatal("the buffer went back to the pool twice")
	}
}
