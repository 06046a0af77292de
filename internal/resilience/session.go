// Package resilience makes Pia's cross-node channels survive the
// network the paper actually targets: geographically distributed,
// unreliable links. It layers a session protocol between TCP (or a
// faultnet-shaped stream) and the wire framing:
//
//   - every chunk of application bytes travels in a checksummed
//     envelope with a session sequence number and a piggybacked
//     cumulative ack;
//   - the sender retains unacked envelopes in a bounded egress buffer;
//   - any anomaly — connection loss, a sequence gap from a dropped
//     frame, a checksum failure from corruption — kills the current
//     connection epoch, and the dialing side reconnects with
//     exponential backoff, jitter and a retry budget;
//   - the resume handshake replays retained envelopes, so the
//     application sees one continuous, exactly-once, in-order byte
//     stream across any number of reconnects;
//   - when the retention buffer can no longer cover the peer's loss,
//     the handshake negotiates a rewind to a common checkpoint tag
//     instead — the paper's §2.1.2 checkpoint/restore mechanism,
//     promoted from sync-violation recovery to link-failure recovery;
//   - heartbeats bound how long a dead peer can go unnoticed.
//
// A Session implements io.ReadWriteCloser; wire.Conn runs on top
// unchanged. Below it, each envelope is itself a wire frame of a
// session kind (envelope.go), read through a wire.Conn on the raw
// connection of each epoch.
package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/timeline"
	"repro/internal/wire"
)

// errSessionLost is wrapped by every terminal session failure: retry
// budget exhausted, peer rejection, heartbeat timeout with no
// reconnect, or an explicit Close.
var errSessionLost = errors.New("resilience: session lost")

// RewoundError signals that the session negotiated a checkpoint
// rewind: the byte stream was reset on both sides and the application
// must restore the tagged checkpoint, then call ClearRewind and
// resume with fresh framing. Read returns it (repeatedly) until
// ClearRewind; concurrent Writes are discarded, since they belong to
// the timeline the rewind abandons.
type RewoundError struct{ Tag string }

func (e *RewoundError) Error() string {
	return fmt.Sprintf("resilience: session rewound to checkpoint %q", e.Tag)
}

// Config tunes a session. The zero value is usable: see withDefaults.
type Config struct {
	// Heartbeat is the idle keepalive interval; 0 disables
	// heartbeats and liveness detection.
	Heartbeat time.Duration
	// HeartbeatMiss is how many silent heartbeat intervals kill the
	// connection epoch (default 4).
	HeartbeatMiss int

	// RetryBase is the first reconnect backoff (default 20ms); the
	// delay doubles per attempt up to RetryCap (default 2s), with
	// ±50% jitter. RetryMax attempts per outage (default 10).
	RetryBase time.Duration
	RetryCap  time.Duration
	RetryMax  int

	// RetentionFrames bounds the unacked egress kept for resume
	// replay (default 65536 frames; retentionBytes bounds its size).
	// When an outage outlives the retention, the next resume
	// negotiates a checkpoint rewind instead of a replay.
	RetentionFrames int

	// HandshakeTimeout bounds one hello/ack exchange (default 5s).
	HandshakeTimeout time.Duration

	// Seed drives backoff jitter.
	Seed int64
}

// retentionBytes bounds the bytes of unacked egress a session keeps
// for resume replay, beside Config.RetentionFrames.
const retentionBytes = 32 << 20

// Enabled reports whether the config was explicitly populated; an
// all-zero config leaves the resilience layer off in the node stack.
func (c Config) Enabled() bool { return c != Config{} }

func (c Config) withDefaults() Config {
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 20 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 10
	}
	if c.RetentionFrames <= 0 {
		c.RetentionFrames = 1 << 16
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	return c
}

// Stats counts session activity.
type Stats struct {
	EpochDeaths    int64 // connection epochs killed (loss, gap, crc, heartbeat)
	DialAttempts   int64
	Resumes        int64 // successful resume handshakes (incl. the first)
	ReplayedFrames int64 // retained envelopes resent on resume
	Rewinds        int64 // checkpoint rewinds negotiated
	GapKills       int64 // epochs killed by a sequence gap
	CrcKills       int64 // epochs killed by a checksum failure
	DupFramesIn    int64 // duplicate envelopes discarded by seq
	FramesOut      int64
	FramesIn       int64
	HeartbeatsOut  int64
}

// Add accumulates o into s, for callers summing several sessions.
func (s *Stats) Add(o Stats) {
	s.EpochDeaths += o.EpochDeaths
	s.DialAttempts += o.DialAttempts
	s.Resumes += o.Resumes
	s.ReplayedFrames += o.ReplayedFrames
	s.Rewinds += o.Rewinds
	s.GapKills += o.GapKills
	s.CrcKills += o.CrcKills
	s.DupFramesIn += o.DupFramesIn
	s.FramesOut += o.FramesOut
	s.FramesIn += o.FramesIn
	s.HeartbeatsOut += o.HeartbeatsOut
}

// Session is one reliable, resumable byte stream between two nodes.
// It implements io.ReadWriteCloser. Reads and writes are safe for
// one reader and any number of writers (writes are serialized).
type Session struct {
	cfg  Config
	dial func() (io.ReadWriteCloser, error) // nil on the accepting side

	// wmu serializes all connection writes (data, replay,
	// heartbeats) so envelopes leave in seq order. Lock order: wmu
	// before mu; never take wmu while holding mu.
	wmu sync.Mutex

	mu   sync.Mutex
	cond *sync.Cond
	id   uint64
	conn *wire.Conn    // current epoch, nil while down
	err  error         // terminal
	done chan struct{} // closed at terminal failure or Close
	// forget, set by the listener that created the session, drops it
	// from the listener's table at terminal failure.
	forget func()

	// Egress: retention holds the unacked envelopes, seqs lowestAvail
	// through nextSeq-1 in order.
	nextSeq     uint64 // next data seq to assign (first is 1)
	lowestAvail uint64 // lowest seq still replayable
	retention   [][]byte
	retBytes    int

	// Ingress.
	recvNext    uint64 // next data seq expected
	rbuf        bytes.Buffer
	lastTraffic time.Time
	ackStall    time.Time // last time the peer's acks made progress

	// Rewind.
	rewindPending bool
	rewindTag     string
	latestTag     func() string     // latest completed checkpoint tag
	hasTag        func(string) bool // is the tag restorable here?

	rng   *rand.Rand // backoff jitter; guarded by mu
	stats Stats

	// onChange, guarded by mu, is invoked (without locks held) after
	// any transition that can flip Quiescent: ack progress, epoch
	// death, resume, rewind arm/clear, terminal failure. The node
	// layer points it at the hosted subsystem's Wake so a scheduler
	// stalled on the departure gate re-evaluates promptly.
	onChange func()

	// tl, when set via SetTimeline, receives structured session
	// lifecycle events (epoch deaths, resumes, negotiated rewinds,
	// failed handshakes, terminal loss). Epoch deaths and resumes are
	// recorded under mu with the counter they bump, so Stats never
	// counts one the recorder has not yet seen.
	// They are transient timeline kinds: epoch boundaries are
	// wall-clock phenomena and never enter the canonical export.
	tl *timeline.Recorder
}

// SetTimeline attaches a timeline recorder to the session.
func (s *Session) SetTimeline(rec *timeline.Recorder) {
	s.mu.Lock()
	s.tl = rec
	s.mu.Unlock()
}

// actor names the session on the timeline. Caller holds mu.
func (s *Session) actor() string { return fmt.Sprintf("session-%d", s.id) }

func (s *Session) timelineEvent(what, detail string) {
	s.mu.Lock()
	tl, actor := s.tl, s.actor()
	s.mu.Unlock()
	tl.SessionEvent(actor, what, detail)
}

func newSession(cfg Config, dial func() (io.ReadWriteCloser, error)) *Session {
	s := &Session{
		cfg:         cfg.withDefaults(),
		dial:        dial,
		done:        make(chan struct{}),
		nextSeq:     1,
		recvNext:    1,
		lowestAvail: 1,
		lastTraffic: time.Now(),
		ackStall:    time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.rng = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed5e551))
	return s
}

// Dial establishes a new session over connections produced by dialFn
// (plain TCP, or a faultnet link's Dial). The first handshake happens
// synchronously; later reconnects are automatic.
func Dial(dialFn func() (io.ReadWriteCloser, error), cfg Config) (*Session, error) {
	s := newSession(cfg, dialFn)
	if err := s.reconnect(); err != nil {
		s.fail(err)
		return nil, err
	}
	go s.redialLoop()
	s.startKeepalive()
	return s, nil
}

// ID returns the session id assigned by the accepting side.
func (s *Session) ID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetRewindHooks installs the checkpoint hooks the rewind negotiation
// consults: latest() names this side's most recent completed
// checkpoint tag, has(tag) reports whether a tag is restorable here.
// Until both sides have hooks, a retention miss is terminal instead
// of rewinding.
func (s *Session) SetRewindHooks(latest func() string, has func(string) bool) {
	s.mu.Lock()
	s.latestTag = latest
	s.hasTag = has
	s.mu.Unlock()
}

// ClearRewind acknowledges a RewoundError: the application has
// restored the checkpoint and the stream may flow again.
func (s *Session) ClearRewind() {
	s.mu.Lock()
	s.rewindPending = false
	s.cond.Broadcast()
	s.mu.Unlock()
	s.notify()
}

// SetOnChange installs the quiescence-transition callback (see the
// onChange field). Safe from any goroutine.
func (s *Session) SetOnChange(f func()) {
	s.mu.Lock()
	s.onChange = f
	s.mu.Unlock()
}

// notify fires the onChange callback, if any, without holding mu.
func (s *Session) notify() {
	s.mu.Lock()
	f := s.onChange
	s.mu.Unlock()
	if f != nil {
		f()
	}
}

// Quiescent reports whether this session can be left unattended by
// the subsystem scheduler: nothing it has sent is still at risk and
// no negotiated rewind awaits servicing. A terminally failed session
// is quiescent — nothing will ever need the scheduler again. A
// session mid-outage is not: the coming resume may negotiate a
// checkpoint rewind, which only a live run loop can execute. The
// node layer gates finite-horizon departure on this.
func (s *Session) Quiescent() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return true
	}
	if s.rewindPending || len(s.retention) > 0 {
		return false
	}
	return s.conn != nil
}

// Write chunks p into data envelopes: each gets a sequence number, is
// retained for resume replay, and is sent on the current connection
// if one is up. A down link does not fail Write — bytes accumulate in
// retention and flow on resume. Writes during a pending rewind are
// discarded: they belong to the abandoned timeline.
func (s *Session) Write(p []byte) (int, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxChunk {
			n = maxChunk
		}
		chunk := p[:n]
		p = p[n:]
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return total, err
		}
		if s.rewindPending {
			s.mu.Unlock()
			total += n
			continue
		}
		env := make([]byte, 0, wire.HeaderLen+2*binary.MaxVarintLen64+n+crcLen) // retained as built
		env = appendData(env, s.nextSeq, s.recvNext-1, chunk)
		s.nextSeq++
		s.retainLocked(env)
		conn := s.conn
		s.stats.FramesOut++
		s.mu.Unlock()
		if conn != nil {
			if err := conn.WriteFrame(env); err != nil {
				// Not fatal: retention holds the envelope; the epoch
				// dies and resume will replay it.
				s.epochDead(conn, fmt.Errorf("write: %w", err))
			}
		}
		total += n
	}
	return total, nil
}

// retainLocked appends an envelope to the retention buffer, evicting
// the oldest entries when over budget. Caller holds s.mu.
func (s *Session) retainLocked(env []byte) {
	if len(s.retention) == 0 {
		s.ackStall = time.Now()
	}
	s.retention = append(s.retention, env)
	s.retBytes += len(env)
	n, kept := 0, s.retBytes
	for len(s.retention)-n > s.cfg.RetentionFrames || kept > retentionBytes {
		kept -= len(s.retention[n])
		n++
	}
	s.dropRetained(n)
}

// pruneLocked drops retained envelopes covered by a cumulative ack.
// Caller holds s.mu.
func (s *Session) pruneLocked(ack uint64) error {
	if ack >= s.nextSeq {
		return fmt.Errorf("resilience: peer acked %d beyond our %d", ack, s.nextSeq-1)
	}
	if ack >= s.lowestAvail {
		s.ackStall = time.Now()
		s.dropRetained(int(ack + 1 - s.lowestAvail))
	}
	return nil
}

// dropRetained forgets the n oldest retained envelopes. Caller holds
// s.mu.
func (s *Session) dropRetained(n int) {
	for _, env := range s.retention[:n] {
		s.retBytes -= len(env)
	}
	clear(s.retention[:n])
	s.retention = s.retention[n:]
	s.lowestAvail += uint64(n)
}

// Read delivers in-order session bytes. It blocks until data, a
// negotiated rewind (RewoundError until ClearRewind), or terminal
// failure.
func (s *Session) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.rewindPending {
			return 0, &RewoundError{Tag: s.rewindTag}
		}
		if s.rbuf.Len() > 0 {
			return s.rbuf.Read(p)
		}
		if s.err != nil {
			s.rbuf = bytes.Buffer{} // drained: release its array
			return 0, s.err
		}
		s.cond.Wait()
	}
}

// Close terminates the session.
func (s *Session) Close() error {
	s.fail(fmt.Errorf("%w: closed", errSessionLost))
	return nil
}

// fail makes the session terminally dead. Nothing it retains can be
// sent again, so retention goes with it, and the listener that created
// it forgets it. Bytes already delivered stay for Read, which releases
// the receive buffer once it has drained it.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		close(s.done)
		if s.conn != nil {
			s.conn.Close()
			s.conn = nil
		}
		s.retention, s.retBytes = nil, 0
		forget := s.forget
		s.cond.Broadcast()
		s.mu.Unlock()
		if forget != nil {
			forget()
		}
		s.timelineEvent("lost", err.Error())
		s.notify()
		return
	}
	s.mu.Unlock()
}

// Err returns the terminal error, if the session is dead.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Alive reports whether the session is still usable: it has not been
// terminally killed (retry budget exhausted, unresumable gap, peer
// refusal). A session mid-outage — dead epoch, redial in progress —
// is still alive. This is the liveness signal behind a node's
// /healthz endpoint.
func (s *Session) Alive() bool { return s.Err() == nil }

// epochDead retires one connection epoch. The session itself stays
// alive: the dialing side's redial loop takes over, the accepting
// side waits for the peer to come back.
func (s *Session) epochDead(conn *wire.Conn, cause error) {
	s.mu.Lock()
	if s.conn == conn && conn != nil {
		s.conn = nil
		s.stats.EpochDeaths++
		s.tl.SessionEvent(s.actor(), "epoch-death", fmt.Sprint(cause))
		s.cond.Broadcast()
		s.mu.Unlock()
		conn.Close()
		s.notify()
		return
	}
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// attach splices a fresh connection epoch into the session and
// replays retained envelopes the peer has not seen. conn is the wire
// reader the handshake read through: what it buffered past the
// handshake belongs to the epoch. Caller must not hold wmu or mu.
func (s *Session) attach(conn *wire.Conn, peerRecvNext uint64) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.conn != nil {
		old := s.conn
		s.conn = nil
		old.Close()
	}
	if peerRecvNext > 0 {
		_ = s.pruneLocked(peerRecvNext - 1)
	}
	// Retention now starts at the peer's resume point. Replay a copy:
	// the epoch's reader, started below, prunes retention as acks come.
	replay := append([][]byte(nil), s.retention...)
	s.conn = conn
	s.lastTraffic = time.Now()
	s.ackStall = time.Now()
	s.stats.Resumes++
	s.stats.ReplayedFrames += int64(len(replay))
	if s.stats.Resumes > 1 {
		// The first attach opens the session; the layer above records
		// the channel it carries.
		s.tl.SessionEvent(s.actor(), "resume", fmt.Sprintf("replay=%d", len(replay)))
	}
	s.mu.Unlock()
	go s.readLoop(conn)
	for _, env := range replay {
		if err := conn.WriteFrame(env); err != nil {
			s.epochDead(conn, fmt.Errorf("replay: %w", err))
			return
		}
	}
	s.notify()
}

// resetForRewind clears all stream state for a negotiated checkpoint
// rewind and arms the RewoundError the application must observe.
func (s *Session) resetForRewind(tag string) {
	s.mu.Lock()
	s.retention = nil
	s.retBytes = 0
	s.nextSeq = 1
	s.recvNext = 1
	s.lowestAvail = 1
	s.rbuf.Reset()
	s.rewindPending = true
	s.rewindTag = tag
	s.stats.Rewinds++
	s.cond.Broadcast()
	s.mu.Unlock()
	s.timelineEvent("rewind", tag)
	s.notify()
}

// readLoop consumes envelopes from one connection epoch until it
// dies.
func (s *Session) readLoop(conn *wire.Conn) {
	for {
		kind, body, err := recvEnvelope(conn)
		if err != nil {
			s.mu.Lock()
			if s.conn == conn && errors.Is(err, errCorrupt) {
				s.stats.CrcKills++
			}
			s.mu.Unlock()
			s.epochDead(conn, err)
			return
		}
		if fatal := s.handleEnvelope(conn, kind, body); fatal != nil {
			s.epochDead(conn, fatal)
			return
		}
		// Acks piggybacked on the envelope may have emptied
		// retention — a scheduler stalled on the departure gate
		// needs to hear about it.
		s.notify()
	}
}

// handleEnvelope processes one checked envelope; a non-nil return
// kills the epoch.
func (s *Session) handleEnvelope(conn *wire.Conn, kind byte, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != conn {
		return fmt.Errorf("superseded epoch")
	}
	s.lastTraffic = time.Now()
	switch kind {
	case wire.FrameSessionData:
		seq, ack, chunk, err := parseData(body)
		if err != nil {
			return fmt.Errorf("data envelope: %w", err)
		}
		if err := s.pruneLocked(ack); err != nil {
			return err
		}
		switch {
		case seq == s.recvNext:
			s.rbuf.Write(chunk)
			s.recvNext++
			s.stats.FramesIn++
			s.cond.Broadcast()
		case seq < s.recvNext:
			s.stats.DupFramesIn++ // replay overlap or faultnet dup
		default:
			s.stats.GapKills++
			return fmt.Errorf("sequence gap: got %d, want %d", seq, s.recvNext)
		}
	case wire.FrameSessionHeartbeat:
		ack, err := parseHeartbeat(body)
		if err != nil {
			return fmt.Errorf("heartbeat: %w", err)
		}
		if err := s.pruneLocked(ack); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unexpected frame kind %d mid-stream", kind)
	}
	return nil
}

// redialLoop (dialing side only) watches for dead epochs and
// reconnects.
func (s *Session) redialLoop() {
	for {
		s.mu.Lock()
		for s.conn != nil && s.err == nil {
			s.cond.Wait()
		}
		dead := s.err != nil
		s.mu.Unlock()
		if dead {
			return
		}
		if err := s.reconnect(); err != nil {
			s.fail(err)
			return
		}
	}
}

// reconnect dials and handshakes with exponential backoff until the
// retry budget runs out.
func (s *Session) reconnect() error {
	var last error
	for attempt := 0; attempt < s.cfg.RetryMax; attempt++ {
		if attempt > 0 || s.ID() != 0 {
			s.sleepBackoff(attempt)
		}
		if err := s.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		s.stats.DialAttempts++
		s.mu.Unlock()
		conn, err := s.dial()
		if err != nil {
			last = err
			continue
		}
		if err := s.clientHandshake(conn); err != nil {
			conn.Close()
			if errors.Is(err, errSessionLost) {
				return err
			}
			s.timelineEvent("handshake-failed", fmt.Sprintf("attempt=%d %v", attempt, err))
			last = err
			continue
		}
		return nil
	}
	return fmt.Errorf("%w: retry budget exhausted after %d attempts: %v", errSessionLost, s.cfg.RetryMax, last)
}

// sleepBackoff waits the jittered exponential delay for an attempt.
func (s *Session) sleepBackoff(attempt int) {
	d := s.cfg.RetryBase << uint(attempt)
	if d > s.cfg.RetryCap || d <= 0 {
		d = s.cfg.RetryCap
	}
	s.mu.Lock()
	jitter := 0.5 + s.rng.Float64()
	s.mu.Unlock()
	t := time.NewTimer(time.Duration(float64(d) * jitter))
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.done:
	}
}

// clientHandshake runs the dialing side of the hello exchange on a
// fresh raw connection.
func (s *Session) clientHandshake(raw io.ReadWriteCloser) error {
	s.mu.Lock()
	h := handshake{SessionID: s.id, RecvNext: s.recvNext, Lowest: s.lowestAvail}
	if s.latestTag != nil {
		h.Tag = s.latestTag()
	}
	s.mu.Unlock()
	frame, err := appendHandshake(nil, wire.FrameSessionHello, h)
	if err != nil {
		return err
	}
	conn, kind, body, err := exchange(raw, s.cfg.HandshakeTimeout, frame)
	if err != nil {
		return fmt.Errorf("hello ack: %w", err)
	}
	ack, err := parseHandshake(kind, wire.FrameSessionHelloAck, body)
	if err != nil {
		return err
	}
	switch ack.Status {
	case statusOK:
		s.mu.Lock()
		s.id = ack.SessionID
		s.mu.Unlock()
		s.attach(conn, ack.RecvNext)
		return nil
	case statusRewind:
		s.mu.Lock()
		ok := s.hasTag != nil && ack.Tag != "" && s.hasTag(ack.Tag)
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("%w: peer ordered rewind to unknown checkpoint %q", errSessionLost, ack.Tag)
		}
		s.resetForRewind(ack.Tag)
		s.attach(conn, 1)
		return nil
	default:
		return fmt.Errorf("%w: peer rejected resume", errSessionLost)
	}
}

// startKeepalive launches the heartbeat/liveness goroutine when the
// config asks for one.
func (s *Session) startKeepalive() {
	if s.cfg.Heartbeat <= 0 {
		return
	}
	go s.keepaliveLoop()
}

func (s *Session) keepaliveLoop() {
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	var hb []byte // the heartbeat envelope, encoded anew into one array
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		conn := s.conn
		idle := time.Since(s.lastTraffic)
		ack := s.recvNext - 1
		unacked := len(s.retention)
		stalled := time.Since(s.ackStall)
		s.mu.Unlock()
		if conn == nil {
			continue
		}
		if idle > s.cfg.Heartbeat*time.Duration(s.cfg.HeartbeatMiss) {
			s.epochDead(conn, fmt.Errorf("heartbeat: peer silent for %v", idle.Round(time.Millisecond)))
			continue
		}
		// Retransmission timeout: egress the peer never acks (e.g. a
		// tail frame dropped by the network with no follow-up traffic
		// to expose the gap) is recovered by killing the epoch — the
		// resume handshake replays everything unacked.
		if unacked > 0 && stalled > s.cfg.Heartbeat*time.Duration(s.cfg.HeartbeatMiss) {
			s.epochDead(conn, fmt.Errorf("ack stall: %d envelopes unacked for %v", unacked, stalled.Round(time.Millisecond)))
			continue
		}
		hb = appendHeartbeat(hb[:0], ack)
		s.wmu.Lock()
		s.mu.Lock()
		cur := s.conn
		s.mu.Unlock()
		if cur == conn {
			if err := conn.WriteFrame(hb); err != nil {
				s.wmu.Unlock()
				s.epochDead(conn, fmt.Errorf("heartbeat write: %w", err))
				continue
			}
			s.mu.Lock()
			s.stats.HeartbeatsOut++
			s.mu.Unlock()
		}
		s.wmu.Unlock()
	}
}

// exchange opens an epoch's wire reader on raw and runs one step of the
// hello/ack handshake on it: it writes frame, when there is one, and
// reads the peer's envelope. The step ends within d, by closing the
// stream, which ends a blocked read or write on any stream.
func exchange(raw io.ReadWriteCloser, d time.Duration, frame []byte) (conn *wire.Conn, kind byte, body []byte, err error) {
	conn = wire.NewConnMax(raw, maxEnvelope)
	stop := time.AfterFunc(d, func() { conn.Close() }).Stop
	if frame != nil {
		err = conn.WriteFrame(frame)
	}
	if err == nil {
		kind, body, err = recvEnvelope(conn)
	}
	if !stop() {
		err = fmt.Errorf("none within %v", d)
	}
	return conn, kind, body, err
}
