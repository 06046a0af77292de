// Package wire implements the framing Pia nodes speak over every link:
// length-prefixed, kind-tagged frames. Each frame is a 4-byte
// big-endian payload length, a 1-byte frame kind, and the payload; the
// length counts the payload alone. Each vocabulary a peer speaks has a
// kind of its own, and each is a hand-written binary layout:
// FrameBatch carries a batch of channel messages (internal/channel's
// codec) and is the only kind a node accepts after the handshake — a
// lone message is a batch of one; FrameHello carries the node handshake
// (internal/node); FrameHW the hardware-server RPC (internal/hwstub);
// FrameMesh the mesh control plane (internal/mesh). Kinds 5–8 are a
// resumable session's envelopes (internal/resilience), whose data
// envelopes carry the byte stream the frames above travel in on a
// resilient link. Fields is the bounded reader those layouts are parsed
// with. The length prefix keeps the stream self-describing, lets both
// sides count bytes, makes partial reads detectable, and is what
// internal/faultnet segments a link's egress by.
//
// Egress hands every frame (or run of frames) to the stream in one
// Write: WriteFrame writes a frame its encoder built with room for the
// header, where it lies, once PutHeader has filled it; SendRaw and the
// Egress builder assemble in a recycled buffer. Ingress reads through a
// bounded receive buffer, so a burst of small frames costs one read and
// RecvBuffered hands back the rest of the burst without blocking; the
// buffer comes from a process-wide pool at the first read and goes back
// to it when the reader calls StopReading.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrame bounds a single frame; anything larger is a protocol
// error, not a legitimate simulation message.
const MaxFrame = 64 << 20

// Frame kinds.
const (
	// FrameGob is a single gob-encoded value. No peer speaks it any
	// more: it stays for Send, Recv and DecodeGob (see Send).
	FrameGob byte = 0
	// FrameBatch is a batch of channel messages in the binary batch
	// format (see internal/channel).
	FrameBatch byte = 1
	// FrameHello is the node handshake: a hello, then its helloAck.
	FrameHello byte = 2
	// FrameHW is one request or response of the hardware-server RPC.
	FrameHW byte = 3
	// FrameMesh is one message of the mesh control plane: a hello, a
	// request or a reply.
	FrameMesh byte = 4
	// A resumable session's envelopes: the hello that opens each
	// connection epoch and its ack, a sequence-numbered chunk of the
	// byte stream with a piggybacked ack, and an idle keepalive's ack.
	FrameSessionHello     byte = 5
	FrameSessionHelloAck  byte = 6
	FrameSessionData      byte = 7
	FrameSessionHeartbeat byte = 8
)

// ErrFrameTooLarge is wrapped by the error RecvFrame returns for a
// header announcing more payload than the connection's cap.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// Conn frames values over a byte stream. Send, SendRaw, WriteFrame
// and BeginEgress are safe for concurrent use; Recv, RecvFrame,
// RecvBuffered and StopReading must be called from a single reader.
type Conn struct {
	rwc io.ReadWriteCloser

	wmu    sync.Mutex
	wbuf   bytes.Buffer
	ebuf   []byte // egress assembly buffer, recycled across flushes
	egress egress // the Conn's single egress builder, guarded by wmu

	// Ingress, single reader: rb[rr:rw] holds bytes read but not yet
	// handed out; rbuf holds the body of a frame larger than rb. max
	// caps the payload a header may announce.
	max    uint32
	rb     []byte
	rr, rw int
	rbuf   []byte

	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	framesIn  atomic.Int64
	framesOut atomic.Int64
}

// NewConn wraps a stream (usually a *net.TCPConn). It accepts frames
// of up to MaxFrame payload bytes.
func NewConn(rwc io.ReadWriteCloser) *Conn { return NewConnMax(rwc, MaxFrame) }

// NewConnMax wraps a stream whose incoming frames carry at most limit
// payload bytes (at most MaxFrame): a header announcing more is refused
// before any of its body is read or allocated.
func NewConnMax(rwc io.ReadWriteCloser, limit int) *Conn {
	return &Conn{rwc: rwc, max: uint32(min(limit, MaxFrame))}
}

// HeaderLen is the frame overhead: 4-byte length + 1-byte kind. An
// encoder that leaves this much room ahead of its payload can have the
// frame written where it was built (PutHeader, WriteFrame).
const HeaderLen = 5

// Send writes one FrameGob frame containing v. No peer vocabulary is
// gob any more; Send, Recv and DecodeGob stay only for the gob
// round-trip probe of the benchmark harness, and go when that probe is
// retired.
func (c *Conn) Send(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf.Reset()
	if err := gob.NewEncoder(&c.wbuf).Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return c.writeFrameLocked(FrameGob, c.wbuf.Bytes())
}

// SendRaw writes one frame of the given kind with an already-encoded
// payload. The payload is copied to the stream before SendRaw
// returns, so the caller may reuse its buffer.
func (c *Conn) SendRaw(kind byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeFrameLocked(kind, payload)
}

// PutHeader writes the header of a frame of the given kind into
// frame[:HeaderLen], the room its encoder left ahead of the payload
// that fills the rest of frame.
func PutHeader(frame []byte, kind byte) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-HeaderLen))
	frame[4] = kind
}

// NextFrame splits the first frame, header included, off frames laid
// end to end whose headers PutHeader wrote.
func NextFrame(frames []byte) (frame, rest []byte) {
	n := HeaderLen + int(binary.BigEndian.Uint32(frames))
	return frames[:n], frames[n:]
}

// WriteFrame writes one frame that was built in place, its header
// written by PutHeader: the whole frame goes to the stream in one Write,
// with no copy and without writing into it, so the caller's buffer is
// the frame on the wire; the caller may reuse it once WriteFrame
// returns.
func (c *Conn) WriteFrame(frame []byte) error {
	if len(frame) < HeaderLen || int(binary.BigEndian.Uint32(frame)) != len(frame)-HeaderLen {
		return fmt.Errorf("wire: a frame of %d bytes whose header does not say so", len(frame))
	}
	if len(frame)-HeaderLen > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(frame)-HeaderLen)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n, err := c.rwc.Write(frame)
	c.bytesOut.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	c.framesOut.Add(1)
	return nil
}

func (c *Conn) writeFrameLocked(kind byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	// Assemble header + payload contiguously and flush with a single
	// Write: one syscall per frame, and exactly one envelope when the
	// stream is a resilient session (which frames every Write it
	// sees). The counters record precisely what was handed to the
	// stream, on every path.
	buf := append(c.ebuf[:0], 0, 0, 0, 0, kind)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf = append(buf, payload...)
	n, err := c.rwc.Write(buf)
	c.retainEbuf(buf)
	c.bytesOut.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	c.framesOut.Add(1)
	return nil
}

// retainEbuf keeps the egress assembly buffer for the next flush,
// unless it has grown pathological.
func (c *Conn) retainEbuf(buf []byte) {
	if cap(buf) <= MaxFrame {
		c.ebuf = buf[:0]
	}
}

// RecvBufSize bounds the receive buffer: large enough that a burst of
// small frames costs one read, small enough that an idle connection
// holds little memory. Frames that do not fit are read straight into
// their own body buffer; a channel endpoint caps the frames it builds
// at this size, so each of them arrives in one piece.
const RecvBufSize = 32 << 10

// recvBufs carries receive buffers from connections whose reader has
// stopped (StopReading) to the next connection's first read, so a
// process that opens connections for run after run does not allocate
// and collect 32 KB for each. A buffer holds no pointers and a reader
// reads only what its own stream put there, so one goes back as it is.
var recvBufs = sync.Pool{New: func() any { return new([RecvBufSize]byte) }}

// fill reads until at least need bytes (need <= RecvBufSize) are
// buffered, compacting first so every read has the most room the
// buffer allows. On a read error the buffered partial frame is
// dropped: the stream is dead, or — on a resumable session that just
// rewound — restarts at a frame boundary.
func (c *Conn) fill(need int) error {
	if c.rb == nil {
		c.rb = recvBufs.Get().(*[RecvBufSize]byte)[:]
	}
	for c.rw-c.rr < need {
		if c.rr > 0 {
			c.rw = copy(c.rb, c.rb[c.rr:c.rw])
			c.rr = 0
		}
		n, err := c.rwc.Read(c.rb[c.rw:])
		c.rw += n
		if err != nil && c.rw < need {
			if c.rw > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			c.rw = 0
			return err
		}
	}
	return nil
}

// take hands out the n-byte-payload frame at the head of the receive
// buffer, which must hold all of it.
func (c *Conn) take(n int) (kind byte, payload []byte) {
	kind = c.rb[c.rr+4]
	payload = c.rb[c.rr+HeaderLen : c.rr+HeaderLen+n]
	c.rr += HeaderLen + n
	c.bytesIn.Add(int64(HeaderLen + n))
	c.framesIn.Add(1)
	return kind, payload
}

// RecvFrame reads one frame and returns its kind and payload. The
// payload slice is owned by the Conn and only valid until the next
// RecvFrame, RecvBuffered or Recv call; decode it before reading
// again. Reads go through a bounded receive buffer, so a frame already
// in the kernel costs at most one read and a frame already buffered
// costs none.
func (c *Conn) RecvFrame() (kind byte, payload []byte, err error) {
	if err := c.fill(HeaderLen); err != nil {
		return 0, nil, err
	}
	// Checked as uint32, before any conversion or allocation.
	l := binary.BigEndian.Uint32(c.rb[c.rr:])
	if l > c.max {
		return 0, nil, fmt.Errorf("%w: incoming frame of %d bytes, limit %d", ErrFrameTooLarge, l, c.max)
	}
	n := int(l)
	if HeaderLen+n <= RecvBufSize {
		if err := c.fill(HeaderLen + n); err != nil {
			return 0, nil, fmt.Errorf("wire: read body: %w", err)
		}
		kind, payload = c.take(n)
		return kind, payload, nil
	}
	// Larger than the receive buffer: move what is buffered into the
	// body buffer and read the rest of the body straight into it.
	kind = c.rb[c.rr+4]
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	have := copy(c.rbuf, c.rb[c.rr+HeaderLen:c.rw])
	c.rr, c.rw = 0, 0
	if _, err := io.ReadFull(c.rwc, c.rbuf[have:]); err != nil {
		return 0, nil, fmt.Errorf("wire: read body: %w", err)
	}
	c.bytesIn.Add(int64(HeaderLen + n))
	c.framesIn.Add(1)
	return kind, c.rbuf, nil
}

// RecvBuffered returns the next frame only if all of it is already in
// the receive buffer; it never reads from the stream, so it never
// blocks. Readers use it after RecvFrame to drain a burst. Anything it
// cannot hand back — a partial frame, one larger than the buffer, a
// length past the limit — is left for RecvFrame to read or reject.
func (c *Conn) RecvBuffered() (kind byte, payload []byte, ok bool) {
	if c.rw-c.rr < HeaderLen {
		return 0, nil, false
	}
	l := binary.BigEndian.Uint32(c.rb[c.rr:])
	if l > c.max || c.rw-c.rr-HeaderLen < int(l) {
		return 0, nil, false
	}
	kind, payload = c.take(int(l))
	return kind, payload, true
}

// StopReading ends the reading side: the single reader calls it once it
// will read no more, and the receive buffer goes back to a pool the
// process shares. Bytes buffered but not handed out are dropped, and no
// payload a receive returned may be used after it; a read after it
// starts over with a buffer from the pool. A second call does nothing.
func (c *Conn) StopReading() {
	if c.rb == nil {
		return
	}
	recvBufs.Put((*[RecvBufSize]byte)(c.rb))
	c.rb, c.rr, c.rw = nil, 0, 0
}

// Recv reads one FrameGob frame into v. It fails on any other frame
// kind; readers that must handle batch frames use RecvFrame.
func (c *Conn) Recv(v any) error {
	kind, payload, err := c.RecvFrame()
	if err != nil {
		return err
	}
	if kind != FrameGob {
		return fmt.Errorf("wire: expected gob frame, got kind %d", kind)
	}
	return DecodeGob(payload, v)
}

// DecodeGob decodes a FrameGob payload into v.
func DecodeGob(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// egress is a multi-frame egress builder: callers encode frame
// payloads directly into the connection's recycled assembly buffer —
// no intermediate per-frame slice — and Flush hands the whole run of
// frames to the stream in a single Write (the writev-style batched
// flush). Obtain one with BeginEgress; it holds the connection's
// write lock until Close.
type egress struct {
	c      *Conn
	buf    []byte
	hdr    int // offset of the open frame's header, -1 when none
	frames int
	err    error
}

// BeginEgress locks the connection for writing and returns its egress
// builder (no allocation: the builder is part of the Conn). The
// caller must call Close exactly once, typically via defer; Flush
// before Close to actually send.
func (c *Conn) BeginEgress() *egress {
	c.wmu.Lock()
	e := &c.egress
	e.c = c
	e.buf = c.ebuf[:0]
	e.hdr = -1
	e.frames = 0
	e.err = nil
	return e
}

// BeginFrame opens a frame of the given kind and returns the buffer
// to append the payload to. The caller encodes in place and hands the
// grown buffer to EndFrame.
func (e *egress) BeginFrame(kind byte) []byte {
	if e.hdr >= 0 {
		e.err = fmt.Errorf("wire: BeginFrame with a frame already open")
		return e.buf
	}
	e.hdr = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, kind)
	return e.buf
}

// EndFrame seals the frame whose payload was appended to buf (the
// slice returned by BeginFrame, possibly reallocated by appends) by
// patching the length prefix in place.
func (e *egress) EndFrame(buf []byte) error {
	if e.err != nil {
		return e.err
	}
	if e.hdr < 0 {
		e.err = fmt.Errorf("wire: EndFrame without BeginFrame")
		return e.err
	}
	e.buf = buf
	payload := len(buf) - e.hdr - HeaderLen
	if payload < 0 {
		e.err = fmt.Errorf("wire: EndFrame buffer shorter than its header")
		return e.err
	}
	if payload > MaxFrame {
		e.err = fmt.Errorf("wire: frame of %d bytes exceeds limit", payload)
		return e.err
	}
	binary.BigEndian.PutUint32(buf[e.hdr:e.hdr+4], uint32(payload))
	e.hdr = -1
	e.frames++
	return nil
}

// Flush writes every sealed frame with one Write call and resets the
// builder for further frames. Byte and frame counters record what was
// actually handed to the stream.
func (e *egress) Flush() error {
	if e.err != nil {
		return e.err
	}
	if e.hdr >= 0 {
		e.err = fmt.Errorf("wire: Flush with an unsealed frame")
		return e.err
	}
	if len(e.buf) == 0 {
		return nil
	}
	n, err := e.c.rwc.Write(e.buf)
	e.c.bytesOut.Add(int64(n))
	if err != nil {
		e.err = fmt.Errorf("wire: write frames: %w", err)
		return e.err
	}
	e.c.framesOut.Add(int64(e.frames))
	e.frames = 0
	e.buf = e.buf[:0]
	return nil
}

// Close releases the connection's write lock and recycles the
// assembly buffer. Unflushed frames are dropped (an abort).
func (e *egress) Close() {
	c := e.c
	c.retainEbuf(e.buf)
	e.buf = nil
	e.c = nil
	c.wmu.Unlock()
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rwc.Close() }

// SetReadDeadline sets the stream's read deadline, where it has one: a
// TCP or faultnet connection does, and a read past it fails with an
// error that matches os.ErrDeadlineExceeded; on a stream without one,
// such as a resumable session, it returns errors.ErrUnsupported. The
// zero time clears it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if d, ok := c.rwc.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return errors.ErrUnsupported
}

// Stats is a snapshot of one connection's framing counters. Totals
// include the frame headers; FramesOut is egress coalescing's figure
// of merit (fewer frames for the same drives).
type Stats struct {
	BytesIn, BytesOut   int64
	FramesIn, FramesOut int64
}

// Add accumulates o into s, for callers summing several connections.
func (s *Stats) Add(o Stats) {
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.FramesIn += o.FramesIn
	s.FramesOut += o.FramesOut
}

// Stats returns a snapshot of the connection's counters (atomic
// loads; safe concurrently with traffic).
func (c *Conn) Stats() Stats {
	return Stats{
		BytesIn:   c.bytesIn.Load(),
		BytesOut:  c.bytesOut.Load(),
		FramesIn:  c.framesIn.Load(),
		FramesOut: c.framesOut.Load(),
	}
}

// Dial connects to a Pia node.
func Dial(addr string) (*Conn, error) {
	tc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	if t, ok := tc.(*net.TCPConn); ok {
		t.SetNoDelay(true)
	}
	return NewConn(tc), nil
}
