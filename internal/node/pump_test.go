package node

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// stubStream is a connection whose peer is a script: Read serves a
// prepared byte stream (everything available in one read, like a burst
// already in the kernel), Write counts and discards.
type stubStream struct {
	in     *bytes.Reader
	writes int
}

func (s *stubStream) Read(p []byte) (int, error) {
	if s.in == nil {
		return 0, io.EOF
	}
	return s.in.Read(p)
}
func (s *stubStream) Write(p []byte) (int, error) { s.writes++; return len(p), nil }
func (s *stubStream) Close() error                { return nil }

// peerScript assembles what a dialing peer puts on the wire, using the
// real encoders.
type peerScript struct {
	buf bytes.Buffer
	c   *wire.Conn
	seq uint64
}

type scriptWriter struct{ *bytes.Buffer }

func (scriptWriter) Read([]byte) (int, error) { return 0, io.EOF }
func (scriptWriter) Close() error             { return nil }

func newPeerScript(t *testing.T) *peerScript {
	t.Helper()
	p := &peerScript{}
	p.c = wire.NewConn(scriptWriter{&p.buf})
	h := hello{FromNode: "node1", FromSub: "handheld", ToSub: "server",
		Policy: channel.Conservative, Link: channel.LinkModel{Latency: 5, PerMessage: 1}}
	if err := p.c.SendRaw(wire.FrameHello, appendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	return p
}

// batch appends one batch frame carrying the given messages, stamped
// with the channel's next sequence numbers.
func (p *peerScript) batch(t *testing.T, msgs ...channel.Message) {
	t.Helper()
	for i := range msgs {
		p.seq++
		msgs[i].Seq = p.seq
		msgs[i].From = "handheld"
	}
	if err := (&connTransport{c: p.c}).SendFrame(frameOf(t, msgs)); err != nil {
		t.Fatal(err)
	}
}

// frameOf encodes msgs as one frame the way an endpoint builds it: room
// for the wire header, then the batch payload.
func frameOf(t *testing.T, msgs []channel.Message) []byte {
	t.Helper()
	frame, n, err := channel.AppendBatch(make([]byte, wire.HeaderLen), msgs, wire.MaxFrame)
	if err != nil || n != len(msgs) {
		t.Fatalf("encoded %d of %d messages: %v", n, len(msgs), err)
	}
	wire.PutHeader(frame, wire.FrameBatch)
	return frame
}

func (p *peerScript) data(i int) channel.Message {
	return channel.Message{Kind: channel.KindData, Net: "link", Source: "prod", Time: vtime.Time(10 * (i + 1)), Value: i}
}

// serve runs the accepting side of a node against the script and
// returns serveConn's result with the endpoint and receiver it built.
func (p *peerScript) serve(t *testing.T) (error, *channel.Endpoint, *core.Subsystem, *receiver) {
	t.Helper()
	sub := core.NewSubsystem("server")
	rcv := &receiver{}
	rc, _ := sub.NewComponent("cons", rcv, "in")
	l, _ := sub.NewNet("link", 0)
	sub.Connect(l, rc.Port("in"))
	n := New("node2")
	var ep *channel.Endpoint
	n.Host(sub).OnChannel = func(e *channel.Endpoint) {
		ep = e
		if err := e.BindNet(l, "link"); err != nil {
			t.Error(err)
		}
	}
	err := n.serveConn(wire.NewConn(&stubStream{in: bytes.NewReader(p.buf.Bytes())}), nil)
	if ep == nil {
		t.Fatalf("handshake never built an endpoint: %v", err)
	}
	return err, ep, sub, rcv
}

// TestPumpDrainsBurstInOrder: frames that arrive together are decoded
// together and delivered in channel order; the pump stops at the close
// and never looks at what follows it.
func TestPumpDrainsBurstInOrder(t *testing.T) {
	const drives = 600 // more than maxBurst, so the burst bound is crossed
	p := newPeerScript(t)
	for i := 0; i < drives; i += 3 {
		p.batch(t, p.data(i))
		p.batch(t, p.data(i+1), p.data(i+2))
	}
	p.batch(t, channel.Message{Kind: channel.KindClose})
	if err := p.c.SendRaw(wire.FrameGob, []byte("never read")); err != nil {
		t.Fatal(err)
	}

	err, ep, sub, rcv := p.serve(t)
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if got := ep.QueuedCount(); got != drives+1 {
		t.Fatalf("pump queued %d messages, want %d", got, drives+1)
	}
	if err := sub.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if err := ep.Err(); err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	if len(rcv.Got) != drives {
		t.Fatalf("delivered %d drives, want %d", len(rcv.Got), drives)
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

// TestPumpRejectsGobAfterHandshake: after the hello exchange the only
// legal frame is a batch frame. A gob frame ends the connection with a
// peerLostError naming the frame kind — its payload is never decoded —
// and the frames of the same burst that preceded it are still
// delivered.
func TestPumpRejectsGobAfterHandshake(t *testing.T) {
	p := newPeerScript(t)
	p.batch(t, p.data(0))
	p.batch(t, p.data(1))
	// A payload gob would choke on: were it decoded, the error below
	// would be gob's, not the pump's.
	if err := p.c.SendRaw(wire.FrameGob, bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	p.batch(t, p.data(2))

	err, ep, _, _ := p.serve(t)
	var lost *peerLostError
	if !errors.As(err, &lost) || !errors.Is(err, ErrPeerLost) {
		t.Fatalf("post-handshake gob frame gave %v, want a PeerLostError", err)
	}
	if lost.Peer != "handheld" {
		t.Fatalf("peer = %q", lost.Peer)
	}
	if msg := err.Error(); !strings.Contains(msg, "unexpected frame kind 0") || strings.Contains(msg, "gob") || strings.Contains(msg, "decode") {
		t.Fatalf("error does not name the frame kind, or came from a decoder: %v", err)
	}
	if got := ep.QueuedCount(); got != 2 {
		t.Fatalf("queued %d messages before the violation, want 2", got)
	}
}

// TestPumpDeliversFramesBeforeACorruptOne: a frame that fails to decode
// mid-burst loses the connection — with a peerLostError, never a
// panic: pump runs unrecovered, so a panic here would take the whole
// process down — and not the whole frames before it.
func TestPumpDeliversFramesBeforeACorruptOne(t *testing.T) {
	var gobClose bytes.Buffer
	if err := gob.NewEncoder(&gobClose).Encode(channel.Message{Kind: channel.KindClose, From: "handheld", Seq: 3}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unknown entry encoding", []byte{0x02, 0x07, 0x01}, "unknown batch encoding 7"},
		// An entry length that fits an int but overflows pos+len.
		{"hostile entry length", append(binary.AppendUvarint([]byte{0x01, 0x00}, 1<<63-1), 1, 2, 3), "truncated field"},
		// What a pre-registry sender put on the wire for a value outside
		// the tag table: well-formed then, refused undecoded now.
		{"retired gob entry", append(binary.AppendUvarint([]byte{0x01, 0x01}, uint64(gobClose.Len())), gobClose.Bytes()...), "unknown batch encoding 1"},
		// A run entry (encoding 2: seq0 3, ack 0, empty From, Net "link",
		// Source "prod") whose first item is whole — ΔTime 30, nil — and
		// whose second, a word, stops inside its value: the whole item is
		// not delivered either, only whole frames are.
		{"run cut short inside an item", []byte{0x01, 0x02, 18, 3, 0, 0, 4, 'l', 'i', 'n', 'k', 4, 'p', 'r', 'o', 'd', 30, 0, 10, 2, 0}, "truncated field"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPeerScript(t)
			p.batch(t, p.data(0), p.data(1))
			if err := p.c.SendRaw(wire.FrameBatch, tc.payload); err != nil {
				t.Fatal(err)
			}
			err, ep, _, _ := p.serve(t)
			if !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupt batch frame gave %v, want a PeerLostError containing %q", err, tc.want)
			}
			if got := ep.QueuedCount(); got != 2 {
				t.Fatalf("queued %d messages before the corrupt frame, want 2", got)
			}
		})
	}
}

// TestSendFrameWordBurstIsOneRun pins what a burst costs on the wire: a
// frame of 64 word drives — words past 255 at a three-byte spacing as
// in a page load — is one Write of at most 10 bytes a word, frame
// header, count, entry header and the names said once all included.
func TestSendFrameWordBurstIsOneRun(t *testing.T) {
	s := &stubStream{}
	tr := &connTransport{c: wire.NewConn(s)}
	msgs := make([]channel.Message, 64)
	for i := range msgs {
		msgs[i] = channel.Message{Kind: channel.KindData, From: "modemsite", Seq: uint64(100 + i), Ack: 7,
			Net: "dma", Source: "asic", Time: vtime.Time(1_000_000 + 20_040*i), Value: signal.Word(0xdead0000 + uint32(i))}
	}
	if err := tr.SendFrame(frameOf(t, msgs)); err != nil {
		t.Fatal(err)
	}
	st := tr.c.Stats()
	if st.FramesOut != 1 || s.writes != 1 {
		t.Fatalf("a %d-word frame took %d frames and %d Writes, want one of each", len(msgs), st.FramesOut, s.writes)
	}
	if perWord := float64(st.BytesOut) / float64(len(msgs)); perWord > 10 {
		t.Fatalf("a %d-word frame is %d bytes on the wire, %.1f a word; want at most 10", len(msgs), st.BytesOut, perWord)
	}
}

// TestSendFrameWordZeroAlloc guards the frame-of-one path: a frame of
// one word drive through connTransport.SendFrame — the header written
// into the frame's own room, one Write — allocates nothing.
func TestSendFrameWordZeroAlloc(t *testing.T) {
	s := &stubStream{}
	tr := &connTransport{c: wire.NewConn(s)}
	frame := frameOf(t, []channel.Message{{Kind: channel.KindData, From: "handheld", Seq: 1, Ack: 1,
		Net: "dmaLink", Source: "dma", Time: 1000, Value: signal.Word(0xdeadbeef)}})
	const runs = 200
	if avg := testing.AllocsPerRun(runs, func() {
		if err := tr.SendFrame(frame); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("one-word SendFrame allocates %.2f/op, want 0", avg)
	}
	if s.writes != runs+1 { // AllocsPerRun makes one warm-up call
		t.Fatalf("%d Writes for %d one-message frames, want one each", s.writes, runs+1)
	}
	if st := tr.c.Stats(); st.FramesOut != int64(runs+1) {
		t.Fatalf("%d frames for %d one-message frames, want one each", st.FramesOut, runs+1)
	}
}

// TestPumpBurstsAFrameAtTheCap: a frame at the byte cap holds
// thousands of word drives; the pump hands them on in bursts of at most
// maxBurst — never the frame as one — in order, and stops after the
// close.
func TestPumpBurstsAFrameAtTheCap(t *testing.T) {
	p := &peerScript{}
	p.c = wire.NewConn(scriptWriter{&p.buf})
	var msgs []channel.Message
	for len(msgs) < 64 || len(frameOf(t, msgs)) < channel.DefaultCoalesce.MaxBytes-16 {
		m := p.data(len(msgs))
		m.Seq, m.From = uint64(len(msgs)+1), "handheld" // as batch stamps them
		msgs = append(msgs, m)
	}
	p.batch(t, msgs...)
	if size := p.buf.Len(); size > channel.DefaultCoalesce.MaxBytes || size < channel.DefaultCoalesce.MaxBytes-32 {
		t.Fatalf("the frame is %d bytes, want one at the %d-byte cap", size, channel.DefaultCoalesce.MaxBytes)
	}
	p.batch(t, channel.Message{Kind: channel.KindClose})

	var got []channel.Message
	largest := 0
	err := readBursts(wire.NewConn(&stubStream{in: bytes.NewReader(p.buf.Bytes())}), channel.NewBatchDecoder(), func(buf *channel.Batch) {
		largest = max(largest, len(buf.Msgs))
		got = append(got, buf.Msgs...)
	})
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if largest > maxBurst {
		t.Fatalf("a %d-message frame reached the endpoint in bursts of up to %d, want at most %d", len(msgs), largest, maxBurst)
	}
	if len(got) != len(msgs)+1 || got[len(msgs)].Kind != channel.KindClose {
		t.Fatalf("delivered %d messages, want the %d drives and the close", len(got), len(msgs))
	}
	for i, m := range got[:len(msgs)] {
		if m.Seq != uint64(i+1) || m.Value != i {
			t.Fatalf("order broken at %d: %+v", i, m)
		}
	}
}

// TestPumpLongFrameCorruptAtTheEnd: a frame of more than maxBurst
// messages whose last entry is corrupt ends the connection with a
// peerLostError, never a panic. The bursts of it handed on before the
// fault was reached stay delivered — whole bursts of well-formed
// messages, in order — and nothing of the corrupt entry is.
func TestPumpLongFrameCorruptAtTheEnd(t *testing.T) {
	const drives = 3*maxBurst + 10
	p := newPeerScript(t)
	msgs := make([]channel.Message, drives)
	for i := range msgs {
		msgs[i] = p.data(i)
		p.seq++
		msgs[i].Seq, msgs[i].From = p.seq, "handheld"
	}
	frame := frameOf(t, msgs)
	// One more entry, counted in the frame's count: an item cut short.
	entries, n := binary.Uvarint(frame[wire.HeaderLen:])
	if n <= 0 {
		t.Fatal("frame count unreadable")
	}
	count := binary.AppendUvarint(nil, entries+1)
	payload := append(count, frame[wire.HeaderLen+n:]...)
	payload = append(payload, 0x02, 18, 3, 0, 0, 4, 'l', 'i', 'n', 'k', 4, 'p', 'r', 'o', 'd', 30, 0, 10, 2, 0)
	if err := p.c.SendRaw(wire.FrameBatch, payload); err != nil {
		t.Fatal(err)
	}
	err, ep, _, _ := p.serve(t)
	var lost *peerLostError
	if !errors.As(err, &lost) || !strings.Contains(err.Error(), "truncated field") {
		t.Fatalf("a long frame with a corrupt end gave %v, want a PeerLostError", err)
	}
	if got := ep.QueuedCount(); got%maxBurst != 0 || got == 0 || got > drives {
		t.Fatalf("queued %d messages, want the whole bursts handed on before the fault", got)
	}
}
