package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/timeline"
	"repro/internal/wire"
)

// preEnvelopeHello is the first frame a dialer from before envelopes
// were wire frames sent: a 4-byte length counting its type byte (1),
// the session id, recv-next and lowest in 8-byte words, a 2-byte tag
// length, and a CRC32 over type and body.
func preEnvelopeHello() []byte {
	body := make([]byte, 26)
	binary.BigEndian.PutUint64(body[8:], 1)  // recv-next
	binary.BigEndian.PutUint64(body[16:], 1) // lowest
	env := binary.BigEndian.AppendUint32(nil, uint32(1+len(body)+crcLen))
	env = append(append(env, 1), body...)
	return binary.BigEndian.AppendUint32(env, crc32.ChecksumIEEE(env[4:]))
}

// TestPreEnvelopeHelloRefusedByKind: an older dialer's hello arrives as
// a frame of kind 1 and is refused by its kind, undecoded, counting as
// corruption; the listener records the refusal on its timeline, hangs
// up at once and creates no session.
// Its length counted the type byte a wire frame's length does not, so
// the frame completes one byte past what the older dialer wrote: the
// test sends that byte, or the listener would wait for it until its
// handshake deadline.
func TestPreEnvelopeHelloRefusedByKind(t *testing.T) {
	old := append(preEnvelopeHello(), 0)
	_, _, err := recvEnvelope(envConn(old))
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "frame kind 1 ") {
		t.Fatalf("a pre-envelope hello read as %v, want corruption refused by kind 1", err)
	}

	ln, dial := listen(t, Config{HandshakeTimeout: time.Minute})
	rec := timeline.NewRecorder(16)
	ln.SetTimeline(rec)
	go ln.Serve()
	defer ln.Close()
	raw, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := raw.(net.Conn)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(old); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
		t.Fatalf("a pre-envelope dialer read %d bytes and %v, want the listener's close", n, err)
	}
	if n := ln.held(); n != 0 {
		t.Fatalf("a pre-envelope hello created %d sessions", n)
	}
	// The refusal is on the timeline before the connection closes.
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != timeline.KindSession || !strings.HasPrefix(evs[0].Detail, "refused hello (wrong kind): ") {
		t.Fatalf("timeline after a pre-envelope hello: %+v, want one session event refusing it by kind", evs)
	}
}

// TestHelloRefusalReasons: whatever first frame the listener cannot
// take as a hello, the refusal it records names why, reading the frame
// as the listener does.
func TestHelloRefusalReasons(t *testing.T) {
	hello, _ := appendHandshake(nil, wire.FrameSessionHello, handshake{})
	flipped := slices.Clone(hello)
	flipped[len(flipped)-1] ^= 1
	overCap := slices.Clone(hello)
	binary.BigEndian.PutUint32(overCap, maxEnvelope+1)
	badStatus, _ := appendHandshake(nil, wire.FrameSessionHello, handshake{Status: statusReject + 1})
	for _, tc := range []struct {
		name, want string
		bytes      []byte
	}{
		{"older peer", "wrong kind", append(preEnvelopeHello(), 0)},
		{"data envelope", "wrong kind", appendData(nil, 1, 0, []byte("x"))},
		{"checksum", "crc", flipped},
		{"over cap", "over cap", overCap},
		{"layout", "malformed", badStatus},
		{"cut short", "read error", hello[:len(hello)-1]},
	} {
		kind, body, err := recvEnvelope(envConn(tc.bytes))
		if err == nil {
			_, err = parseHandshake(kind, wire.FrameSessionHello, body)
		}
		if err == nil {
			t.Fatalf("%s: taken as a hello", tc.name)
		}
		if got := refusal(kind, err); got != tc.want {
			t.Fatalf("%s: refused as %q (%v), want %q", tc.name, got, err, tc.want)
		}
	}
}

// oneRead serves its bytes in a single Read and counts the reads.
type oneRead struct {
	b     []byte
	reads int
}

func (r *oneRead) Read(p []byte) (int, error) {
	r.reads++
	if r.reads > 1 {
		return 0, io.EOF
	}
	return copy(p, r.b), nil
}
func (r *oneRead) Write(p []byte) (int, error) { return len(p), nil }
func (r *oneRead) Close() error                { return nil }

// TestOverCapHeaderRefusedUnread: a header announcing more than
// maxEnvelope kills the epoch as corruption before any byte of its
// body is read.
func TestOverCapHeaderRefusedUnread(t *testing.T) {
	hdr := make([]byte, wire.HeaderLen)
	binary.BigEndian.PutUint32(hdr, maxEnvelope+1)
	hdr[wire.HeaderLen-1] = wire.FrameSessionData
	r := &oneRead{b: hdr}
	conn := wire.NewConnMax(r, maxEnvelope)
	s := newSession(Config{}, nil)
	s.conn = conn
	s.readLoop(conn)
	if st := s.Stats(); st.CrcKills != 1 || st.EpochDeaths != 1 {
		t.Fatalf("CrcKills = %d, EpochDeaths = %d, want 1 and 1", st.CrcKills, st.EpochDeaths)
	}
	if r.reads != 1 {
		t.Fatalf("%d reads, want the header's one", r.reads)
	}
}

// discard is a connection epoch that swallows writes.
type discard struct{}

func (discard) Read([]byte) (int, error)    { return 0, io.EOF }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Close() error                { return nil }

// TestEnvelopeAllocs: a data envelope is built once, into the buffer
// retention keeps, and one in the receive buffer costs nothing on its
// way to Read: at most one allocation an envelope on egress, none on
// ingress, for page-sized frames (31 × 4.4 KB) and for many small ones
// (2 048 × 1 KB).
func TestEnvelopeAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	for _, tc := range []struct{ frames, size int }{{31, 4400}, {2048, 1 << 10}} {
		chunk, buf := pattern(tc.size), make([]byte, tc.size)

		tx := newSession(Config{}, nil)
		tx.conn = wire.NewConnMax(discard{}, maxEnvelope)
		egress := testing.AllocsPerRun(tc.frames, func() {
			if _, err := tx.Write(chunk); err != nil {
				t.Fatal(err)
			}
		})

		// AllocsPerRun runs the function once more than it counts.
		var stream []byte
		for seq := uint64(1); seq <= uint64(tc.frames)+1; seq++ {
			stream = appendData(stream, seq, 0, chunk)
		}
		rx := newSession(Config{}, nil)
		conn := envConn(stream)
		rx.conn = conn
		ingress := testing.AllocsPerRun(tc.frames, func() {
			kind, body, err := recvEnvelope(conn)
			if err == nil {
				err = rx.handleEnvelope(conn, kind, body)
			}
			if err == nil {
				_, err = io.ReadFull(rx, buf)
			}
			if err != nil || !bytes.Equal(buf, chunk) {
				t.Fatalf("ingress: %v", err)
			}
		})
		t.Logf("%d × %d B: %v allocations an envelope on egress, %v on ingress", tc.frames, tc.size, egress, ingress)
		if egress > 1 || ingress != 0 {
			t.Errorf("%d × %d B: %v allocations an envelope on egress (want <= 1), %v on ingress (want 0)",
				tc.frames, tc.size, egress, ingress)
		}
	}
}

// readEnvelopes reads envelopes from stream as an epoch does, through a
// reader capped at maxEnvelope, until the first error, and parses each
// by its kind's layout: the handshake's (hello and hello ack), data's
// and heartbeat's. A header past the cap must be refused as corruption,
// and every envelope whose layout parses must encode back to exactly
// its bytes. It returns how many envelopes the reader accepted.
func readEnvelopes(t *testing.T, stream []byte) (accepted int) {
	conn := envConn(stream)
	for ; ; accepted++ {
		overCap := len(stream) >= wire.HeaderLen && binary.BigEndian.Uint32(stream) > maxEnvelope
		kind, body, err := recvEnvelope(conn)
		if overCap && !errors.Is(err, errCorrupt) {
			t.Fatalf("a header past the cap read as %v", err)
		}
		if err != nil {
			return accepted
		}
		frame := seal(append(begin(nil), body...), 0, kind)
		stream = stream[len(frame):]
		var again []byte
		switch kind {
		case wire.FrameSessionHello, wire.FrameSessionHelloAck:
			if h, err := parseHandshake(kind, kind, body); err == nil {
				if len(h.Tag) > maxTag {
					t.Fatalf("a %d-byte tag past the cap", len(h.Tag))
				}
				again, _ = appendHandshake(nil, kind, h)
			}
		case wire.FrameSessionData:
			if seq, ack, chunk, err := parseData(body); err == nil {
				again = appendData(nil, seq, ack, chunk)
			}
		case wire.FrameSessionHeartbeat:
			if ack, err := parseHeartbeat(body); err == nil {
				again = appendHeartbeat(nil, ack)
			}
		}
		if again != nil && !bytes.Equal(again, frame) {
			t.Fatalf("kind %d re-encodes as % x, not % x", kind, again, frame)
		}
	}
}

// FuzzEnvelope reads any byte stream as an epoch does (readEnvelopes):
// nothing panics, a header past the cap is refused before its body is
// read, and what is accepted passed its CRC and round-trips. The CRC
// shields the layouts from most random streams, so the input is also
// sealed as the body of one envelope of each session kind, all four of
// which the reader must accept.
func FuzzEnvelope(f *testing.F) {
	h, _ := appendHandshake(nil, wire.FrameSessionHello, handshake{SessionID: 3, RecvNext: 9, Lowest: 2, Tag: "snap:handheld:4"})
	a, _ := appendHandshake(nil, wire.FrameSessionHelloAck, handshake{Status: statusRewind, SessionID: 3, Tag: "snap:handheld:4"})
	f.Add(h)
	f.Add(a)
	f.Add(append(appendData(nil, 1, 0, []byte("chunk")), appendHeartbeat(nil, 1)...))
	f.Add(append(preEnvelopeHello(), 0))
	huge := appendHeartbeat(nil, 7)
	binary.BigEndian.PutUint32(huge, maxEnvelope+1)
	f.Add(huge)
	f.Add(binary.AppendUvarint(appendData(nil, 1<<62, 1<<62, nil), 1<<63))
	f.Fuzz(func(t *testing.T, stream []byte) {
		readEnvelopes(t, stream)
		if len(stream)+crcLen > maxEnvelope {
			return
		}
		var sealed []byte
		for kind := wire.FrameSessionHello; kind <= wire.FrameSessionHeartbeat; kind++ {
			sealed = seal(append(begin(sealed), stream...), len(sealed), kind)
		}
		if n := readEnvelopes(t, sealed); n != 4 {
			t.Fatalf("the reader accepted %d of 4 sealed envelopes", n)
		}
	})
}
