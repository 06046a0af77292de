package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/wire"
)

// pair is one client/server session couple over loopback TCP, with a
// dial hook the tests use to sever or injure the raw connection.
type pair struct {
	client, server *Session
	ln             *Listener

	mu   sync.Mutex
	raw  net.Conn // latest raw conn dialed by the client
	wrap func(io.ReadWriteCloser) io.ReadWriteCloser
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{}
	p.ln = NewListener(ln, cfg)
	go p.ln.Serve()
	t.Cleanup(func() { p.ln.Close() })
	addr := ln.Addr().String()
	dial := func() (io.ReadWriteCloser, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.raw = c
		wrap := p.wrap
		p.mu.Unlock()
		if wrap != nil {
			return wrap(c), nil
		}
		return c, nil
	}
	accepted := make(chan *Session, 1)
	go func() {
		s, err := p.ln.Accept()
		if err == nil {
			accepted <- s
		}
	}()
	p.client, err = Dial(dial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.client.Close() })
	select {
	case p.server = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("listener never surfaced the session")
	}
	t.Cleanup(func() { p.server.Close() })
	return p
}

// killRaw severs the client's current raw TCP connection.
func (p *pair) killRaw() {
	p.mu.Lock()
	raw := p.raw
	p.mu.Unlock()
	if raw != nil {
		raw.Close()
	}
}

// drain reads exactly n bytes from s, failing after a timeout.
func drain(t *testing.T, s *Session, n int) []byte {
	t.Helper()
	out := make([]byte, 0, n)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		for len(out) < n {
			k, err := s.Read(buf)
			out = append(out, buf[:k]...)
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v after %d/%d bytes", err, len(out), n)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("drain: stuck at %d/%d bytes", len(out), n)
	}
	return out
}

// pattern builds a deterministic, self-describing payload.
func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i>>9)
	}
	return out
}

func TestCleanBidirectionalStream(t *testing.T) {
	p := newPair(t, Config{})
	const n = 256 << 10
	want := pattern(n)
	go func() {
		for i := 0; i < n; i += 8 << 10 {
			p.client.Write(want[i : i+8<<10])
		}
	}()
	go func() {
		for i := 0; i < n; i += 8 << 10 {
			p.server.Write(want[i : i+8<<10])
		}
	}()
	if got := drain(t, p.server, n); !bytes.Equal(got, want) {
		t.Fatal("client->server stream corrupted")
	}
	if got := drain(t, p.client, n); !bytes.Equal(got, want) {
		t.Fatal("server->client stream corrupted")
	}
	if st := p.client.Stats(); st.EpochDeaths != 0 || st.Resumes != 1 {
		t.Fatalf("clean run stats: %+v", st)
	}
}

// TestResumeAfterConnKill severs the TCP connection repeatedly in the
// middle of a transfer; the stream must come out exactly once, in
// order, with no gaps.
func TestResumeAfterConnKill(t *testing.T) {
	p := newPair(t, Config{RetryBase: 5 * time.Millisecond})
	changed := make(chan struct{}, 1)
	p.client.SetOnChange(func() {
		select {
		case changed <- struct{}{}:
		default:
		}
	})
	// await waits, up to a deadline the checks below report, until the
	// client's stats satisfy cond.
	await := func(cond func(Stats) bool) {
		deadline := time.After(10 * time.Second)
		for !cond(p.client.Stats()) {
			select {
			case <-changed:
			case <-deadline:
				return
			}
		}
	}
	// cut waits for a live epoch, severs its connection and waits until
	// the client has seen the epoch die, so what it writes next goes to
	// retention and is replayed by the resume.
	cut := func() {
		await(func(st Stats) bool { return st.Resumes > st.EpochDeaths })
		before := p.client.Stats().EpochDeaths
		p.killRaw()
		await(func(st Stats) bool { return st.EpochDeaths > before })
	}
	const n = 512 << 10
	want := pattern(n)
	go func() {
		for i := 0; i < n; i += 4 << 10 {
			p.client.Write(want[i : i+4<<10])
			if i%(128<<10) == 64<<10 {
				cut() // mid-transfer
			}
		}
	}()
	if got := drain(t, p.server, n); !bytes.Equal(got, want) {
		t.Fatal("stream not continuous across connection kills")
	}
	st := p.client.Stats()
	if st.EpochDeaths == 0 || st.Resumes < 2 {
		t.Fatalf("expected kills and resumes, got %+v", st)
	}
	if st.ReplayedFrames == 0 {
		t.Fatalf("resume never replayed retained frames: %+v", st)
	}
}

// TestLossyLink runs the session over a faultnet link that drops,
// duplicates, reorders and corrupts frames. Every injected fault must
// surface as an epoch death plus resume, never as corrupted or lost
// application bytes.
func TestLossyLink(t *testing.T) {
	link := faultnet.NewLink("lossy-test", faultnet.Config{
		Seed: 99, DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.02, CorruptProb: 0.02,
	})
	p := newPair(t, Config{
		Heartbeat: 20 * time.Millisecond, HeartbeatMiss: 3,
		RetryBase: 2 * time.Millisecond, RetryMax: 50,
	})
	p.mu.Lock()
	p.wrap = link.Wrap
	p.mu.Unlock()
	p.killRaw() // force a redial so the link wraps the transport

	const n = 256 << 10
	want := pattern(n)
	go func() {
		for i := 0; i < n; i += 2 << 10 {
			if _, err := p.client.Write(want[i : i+2<<10]); err != nil {
				return
			}
		}
	}()
	if got := drain(t, p.server, n); !bytes.Equal(got, want) {
		t.Fatal("stream corrupted across a lossy link")
	}
	if err := link.VerifyDigest(); err != nil {
		t.Fatal(err)
	}
	lst := link.Stats()
	if lst.Dropped+lst.Corrupted+lst.Reordered+lst.Duplicated == 0 {
		t.Fatalf("link too calm to prove anything: %+v", lst)
	}
	sst := p.client.Stats()
	if sst.EpochDeaths == 0 {
		t.Fatalf("faults never killed an epoch: session %+v link %+v", sst, lst)
	}
}

// blackhole swallows writes and blocks reads once tripped — a peer
// that is silently gone, as opposed to a closed TCP connection. As on
// a socket whose peer vanished, a blocked read ends only when this side
// closes the stream. It has no read deadline.
type blackhole struct {
	inner  io.ReadWriteCloser
	mu     sync.Mutex
	dead   bool
	once   sync.Once
	closed chan struct{} // closed by Close
}

func newBlackhole(inner io.ReadWriteCloser) *blackhole {
	return &blackhole{inner: inner, closed: make(chan struct{})}
}

func (b *blackhole) trip() {
	b.mu.Lock()
	b.dead = true
	b.mu.Unlock()
	b.inner.Close() // unblock the pending read; reads turn into hangs below
}

func (b *blackhole) isDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// silent blocks until the stream is closed.
func (b *blackhole) silent() (int, error) {
	<-b.closed
	return 0, net.ErrClosed
}

func (b *blackhole) Read(p []byte) (int, error) {
	if b.isDead() {
		return b.silent()
	}
	n, err := b.inner.Read(p)
	if err != nil && b.isDead() {
		return b.silent()
	}
	return n, err
}

func (b *blackhole) Write(p []byte) (int, error) {
	if b.isDead() {
		return len(p), nil
	}
	return b.inner.Write(p)
}

func (b *blackhole) Close() error {
	b.once.Do(func() { close(b.closed) })
	return b.inner.Close()
}

// TestHeartbeatDetectsSilentPeer: when the transport turns into a
// black hole (no error, no data), heartbeat liveness must kill the
// epoch and the redial must resume the stream.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	var (
		mu    sync.Mutex
		first *blackhole
		once  sync.Once
		live  = make(chan struct{}) // closed once the session resumed on a wrapped transport
	)
	p := newPair(t, Config{
		Heartbeat: 10 * time.Millisecond, HeartbeatMiss: 3,
		RetryBase: 2 * time.Millisecond, RetryMax: 20,
	})
	p.mu.Lock()
	p.wrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		b := newBlackhole(c)
		mu.Lock()
		if first == nil {
			first = b
		}
		mu.Unlock()
		return b
	}
	p.mu.Unlock()
	p.client.SetOnChange(func() {
		// The first resume was the dial; the second runs on the redial,
		// which the hook wrapped. Tripping any earlier would test the
		// resume handshake's bound (TestResumeHandshakeTimesOut), not
		// heartbeat liveness.
		if p.client.Stats().Resumes >= 2 {
			once.Do(func() { close(live) })
		}
	})
	p.killRaw() // move onto a blackhole-wrapped transport

	const n = 64 << 10
	want := pattern(n)
	half := n / 2
	go func() {
		for i := 0; i < half; i += 4 << 10 {
			p.client.Write(want[i : i+4<<10])
		}
		// Wait for the redial to actually wrap a transport, then
		// silently kill it.
		<-live
		mu.Lock()
		first.trip()
		mu.Unlock()
		for i := half; i < n; i += 4 << 10 {
			p.client.Write(want[i : i+4<<10])
		}
	}()
	if got := drain(t, p.server, n); !bytes.Equal(got, want) {
		t.Fatal("stream not continuous across a silent peer death")
	}
	if st := p.client.Stats(); st.EpochDeaths == 0 || st.HeartbeatsOut == 0 {
		t.Fatalf("heartbeat liveness never fired: %+v", st)
	}
}

// TestResumeHandshakeTimesOut: a transport that goes silent between
// the redial and the helloAck — a blackhole tripped as the redial wraps
// it, so the hello is swallowed and no ack comes — has no read deadline
// to bound the handshake. The resume must still fail within
// HandshakeTimeout, by closing the stream, and the next attempt must
// resume the stream with nothing lost.
func TestResumeHandshakeTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	var (
		once       sync.Once
		silent     = make(chan *blackhole, 1)
		wrapped    time.Time
		resumed    = make(chan struct{}) // closed once a redial resumed the session
		resumeOnce sync.Once
	)
	p := newPair(t, Config{HandshakeTimeout: timeout, RetryBase: 2 * time.Millisecond, RetryMax: 5})
	p.mu.Lock()
	p.wrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		b := newBlackhole(c)
		once.Do(func() {
			b.trip()
			wrapped = time.Now()
			silent <- b
		})
		return b
	}
	p.mu.Unlock()
	p.client.SetOnChange(func() {
		if p.client.Stats().Resumes >= 2 {
			resumeOnce.Do(func() { close(resumed) })
		}
	})

	const n = 64 << 10
	want := pattern(n)
	p.client.Write(want[:n/2])
	p.killRaw() // the redial lands on the silent transport
	guard := time.After(10 * time.Second)
	var b *blackhole
	select {
	case b = <-silent:
	case <-guard:
		t.Fatal("the session never redialed")
	}
	select {
	case <-b.closed:
	case <-guard:
		t.Fatal("the resume handshake on a silent transport never ended")
	}
	// The bound sits far above HandshakeTimeout so a loaded host cannot
	// trip it, and far below the guard, where an unbounded handshake
	// would hang.
	if took := time.Since(wrapped); took > 10*timeout {
		t.Fatalf("the silent resume handshake failed after %v, want near HandshakeTimeout %v", took, timeout)
	}
	select {
	case <-resumed:
	case <-guard:
		t.Fatalf("no retry resumed the session: %+v", p.client.Stats())
	}
	p.client.Write(want[n/2:])
	if got := drain(t, p.server, n); !bytes.Equal(got, want) {
		t.Fatal("stream not continuous across a silent resume handshake")
	}
	if st := p.client.Stats(); st.DialAttempts < 3 {
		t.Fatalf("%d dial attempts, want the first, the silent one and its retry", st.DialAttempts)
	}
}

// TestListenerHandshakeTimesOut: the accepting side bounds the hello
// the same way. A dialer that connects and says nothing, through a
// wrapped stream with no read deadline, is closed within
// HandshakeTimeout.
func TestListenerHandshakeTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := NewListener(raw, Config{HandshakeTimeout: timeout})
	ln.Wrap = func(c io.ReadWriteCloser) io.ReadWriteCloser { return newBlackhole(c) }
	go ln.Serve()
	t.Cleanup(func() { ln.Close() })
	c, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("a silent dialer read %v, want the listener's close", err)
	}
	// As in TestResumeHandshakeTimesOut: well above the timeout, well
	// below the guard.
	if took := time.Since(start); took > 10*timeout {
		t.Fatalf("the listener closed a silent handshake after %v, want near HandshakeTimeout %v", took, timeout)
	}
}

// TestRetryBudgetExhaustion: when the peer is unreachable for longer
// than the retry budget, the session dies with errSessionLost. Bytes
// it received before but had not read are still read first (the peer
// has pruned them as acked), and the drained buffer is then released.
func TestRetryBudgetExhaustion(t *testing.T) {
	p := newPair(t, Config{RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond, RetryMax: 3})
	const unread = 8 << 10
	if _, err := p.server.Write(pattern(unread)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		p.client.mu.Lock()
		got := p.client.rbuf.Len()
		p.client.mu.Unlock()
		if got == unread {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client buffered %d of %d bytes", got, unread)
		}
	}
	p.ln.Close() // no more accepts
	p.killRaw()
	deadline := time.After(10 * time.Second)
	for p.client.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("session never died")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !errors.Is(p.client.Err(), errSessionLost) {
		t.Fatalf("terminal error %v, want ErrSessionLost", p.client.Err())
	}
	if got := drain(t, p.client, unread); !bytes.Equal(got, pattern(unread)) {
		t.Fatal("bytes received before the loss read back corrupted")
	}
	if _, err := p.client.Read(make([]byte, 16)); !errors.Is(err, errSessionLost) {
		t.Fatalf("Read after loss: %v", err)
	}
	p.client.mu.Lock()
	kept := p.client.rbuf.Cap()
	p.client.mu.Unlock()
	if kept != 0 {
		t.Fatalf("a dead, drained session keeps a %d-byte receive buffer", kept)
	}
}

// TestRewindOnRetentionMiss: the client keeps writing through a long
// outage until its retention evicts unacked frames; the resume then
// negotiates a rewind to the latest common checkpoint, both sides see
// RewoundError, and after ClearRewind the stream works from scratch.
func TestRewindOnRetentionMiss(t *testing.T) {
	p := newPair(t, Config{
		RetryBase: 2 * time.Millisecond, RetryMax: 100,
		RetentionFrames: 8,
	})
	hooks := func(s *Session) {
		s.SetRewindHooks(func() string { return "ckpt-7" }, func(tag string) bool { return tag == "ckpt-7" })
	}
	hooks(p.client)
	hooks(p.server)

	// Sever the link, then write far past the retention window so the
	// evicted frames can never be replayed.
	p.ln.mu.Lock() // pause the accept loop is not possible; instead kill and burn retention fast
	p.ln.mu.Unlock()
	p.killRaw()
	for i := 0; i < 64; i++ {
		if _, err := p.client.Write(pattern(1 << 10)); err != nil {
			t.Fatal(err)
		}
	}

	waitRewound := func(s *Session, side string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, err := s.Read(make([]byte, 1024))
			var rw *RewoundError
			if errors.As(err, &rw) {
				if rw.Tag != "ckpt-7" {
					t.Fatalf("%s rewound to %q", side, rw.Tag)
				}
				s.ClearRewind()
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", side, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never saw the rewind", side)
			}
		}
	}
	waitRewound(p.client, "client")
	waitRewound(p.server, "server")

	// The stream restarts clean: fresh bytes flow end to end.
	want := pattern(32 << 10)
	go func() {
		for i := 0; i < len(want); i += 4 << 10 {
			p.client.Write(want[i : i+4<<10])
		}
	}()
	if got := drain(t, p.server, len(want)); !bytes.Equal(got, want) {
		t.Fatal("stream broken after rewind")
	}
	if st := p.client.Stats(); st.Rewinds != 1 {
		t.Fatalf("client rewinds = %d, want 1: %+v", st.Rewinds, st)
	}
	if st := p.server.Stats(); st.Rewinds != 1 {
		t.Fatalf("server rewinds = %d, want 1: %+v", st.Rewinds, st)
	}
}

// TestRewindWithoutHooksIsTerminal: a retention miss with no
// checkpoint hooks installed must kill the session, not hang it.
func TestRewindWithoutHooksIsTerminal(t *testing.T) {
	p := newPair(t, Config{
		RetryBase: 2 * time.Millisecond, RetryMax: 100,
		RetentionFrames: 4,
	})
	p.killRaw()
	for i := 0; i < 32; i++ {
		p.client.Write(pattern(1 << 10))
	}
	deadline := time.After(10 * time.Second)
	for p.client.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("session without checkpoints survived a retention miss")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !errors.Is(p.client.Err(), errSessionLost) {
		t.Fatalf("terminal error %v", p.client.Err())
	}
}

// TestDataIntegrityAcrossManyEpochs hammers the kill path while
// verifying a large checksum-friendly payload end to end.
func TestDataIntegrityAcrossManyEpochs(t *testing.T) {
	p := newPair(t, Config{RetryBase: time.Millisecond})
	const n = 1 << 20
	want := pattern(n)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(7 * time.Millisecond):
				p.killRaw()
			}
		}
	}()
	go func() {
		for i := 0; i < n; i += 16 << 10 {
			if _, err := p.client.Write(want[i : i+16<<10]); err != nil {
				return
			}
		}
	}()
	got := drain(t, p.server, n)
	close(stop)
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("first divergence at byte %d of %d", i, n)
			}
		}
		t.Fatal("length mismatch")
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	if !(Config{Heartbeat: time.Second}).Enabled() {
		t.Fatal("non-zero config disabled")
	}
}

// envConn reads envelopes from fixed bytes as an epoch does.
func envConn(b []byte) *wire.Conn { return wire.NewConnMax(byteConn{bytes.NewReader(b)}, maxEnvelope) }

func TestEnvelopeRoundTrip(t *testing.T) {
	h := handshake{SessionID: 7, RecvNext: 42, Lowest: 3, Tag: "snap-9"}
	env, err := appendHandshake(nil, wire.FrameSessionHello, h)
	if err != nil {
		t.Fatal(err)
	}
	kind, body, err := recvEnvelope(envConn(env))
	if err != nil || kind != wire.FrameSessionHello {
		t.Fatalf("hello: %v kind %d", err, kind)
	}
	got, err := parseHandshake(kind, wire.FrameSessionHello, body)
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v %v", got, err)
	}
	a := handshake{Status: statusRewind, SessionID: 7, RecvNext: 9, Tag: "snap-9"}
	if env, err = appendHandshake(nil, wire.FrameSessionHelloAck, a); err != nil {
		t.Fatal(err)
	}
	kind, body, err = recvEnvelope(envConn(env))
	if err != nil || kind != wire.FrameSessionHelloAck {
		t.Fatalf("ack: %v kind %d", err, kind)
	}
	gotA, err := parseHandshake(kind, wire.FrameSessionHelloAck, body)
	if err != nil || gotA != a {
		t.Fatalf("ack round trip: %+v %v", gotA, err)
	}
	// Corruption must be detected.
	env = appendData(nil, 5, 4, []byte("payload"))
	env[len(env)-6] ^= 0x40
	if _, _, err := recvEnvelope(envConn(env)); err == nil {
		t.Fatal("corrupted envelope accepted")
	}
}

func TestStatsSnapshot(t *testing.T) {
	p := newPair(t, Config{})
	msg := []byte("hello over the wan")
	if _, err := p.client.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := drain(t, p.server, len(msg))
	if !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch")
	}
	if st := p.client.Stats(); st.FramesOut != 1 {
		t.Fatalf("client FramesOut = %d", st.FramesOut)
	}
	if st := p.server.Stats(); st.FramesIn != 1 {
		t.Fatalf("server FramesIn = %d", st.FramesIn)
	}
	if p.client.ID() == 0 || p.client.ID() != p.server.ID() {
		t.Fatalf("session ids: client %d server %d", p.client.ID(), p.server.ID())
	}
	_ = fmt.Sprintf("%v", p.client.Stats()) // Stats must be plain data
}

// byteConn is a connection epoch that yields fixed bytes and then EOF.
type byteConn struct{ *bytes.Reader }

func (byteConn) Write(p []byte) (int, error) { return len(p), nil }
func (byteConn) Close() error                { return nil }

// TestCorruptionCountsAsCrcKill pins what CrcKills means: an epoch
// that died because bytes arrived and were wrong (a flipped checksum
// byte, a length field outside the envelope bounds), not one that died
// because the transport went away.
func TestCorruptionCountsAsCrcKill(t *testing.T) {
	flipped := appendData(nil, 1, 0, []byte("payload"))
	flipped[len(flipped)-1] ^= 0x01
	hostile := appendData(nil, 1, 0, []byte("payload"))
	binary.BigEndian.PutUint32(hostile[:4], maxEnvelope+1)
	for _, tc := range []struct {
		name  string
		bytes []byte
		kills int64
	}{
		{"flipped CRC byte", flipped, 1},
		{"length out of range", hostile, 1},
		{"EOF", nil, 0},
		{"EOF mid-envelope", flipped[:len(flipped)-2], 0},
	} {
		conn := envConn(tc.bytes)
		_, _, err := recvEnvelope(envConn(tc.bytes))
		if got := errors.Is(err, errCorrupt); got != (tc.kills == 1) {
			t.Fatalf("%s: recvEnvelope error %v, errCorrupt = %v", tc.name, err, got)
		}
		s := newSession(Config{}, nil)
		s.conn = conn
		s.readLoop(conn)
		if st := s.Stats(); st.CrcKills != tc.kills || st.EpochDeaths != 1 {
			t.Fatalf("%s: CrcKills = %d, EpochDeaths = %d, want %d and 1", tc.name, st.CrcKills, st.EpochDeaths, tc.kills)
		}
	}
}

// TestStatsAddCoversEveryCounter: a counter added to Stats and not to
// Add would be summed nowhere.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var one, sum Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if s.Field(i).Int() != 2*int64(i+1) {
			t.Errorf("Add does not sum %s", s.Type().Field(i).Name)
		}
	}
}
