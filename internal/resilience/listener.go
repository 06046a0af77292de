package resilience

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/timeline"
	"repro/internal/wire"
)

// Listener accepts raw connections and demuxes them into resumable
// Sessions: the first envelope on every raw conn is a hello naming a
// session id (0 for a new session), and the listener either creates a
// session, splices the conn into an existing one, or negotiates a
// checkpoint rewind when the resume cannot be served from retention.
type Listener struct {
	ln  net.Listener
	cfg Config

	// Wrap, when set, decorates every accepted raw connection before
	// the handshake — the hook faultnet uses to injure server-side
	// links.
	Wrap func(io.ReadWriteCloser) io.ReadWriteCloser

	mu        sync.Mutex
	tl        *timeline.Recorder // refusals, and the sessions it creates; set via SetTimeline
	nextID    uint64
	sessions  map[uint64]*Session // live sessions; each leaves at its terminal failure
	pending   chan *Session       // hands each new session to Accept
	done      chan struct{}       // closed by Close
	closeOnce sync.Once
}

// NewListener wraps a net.Listener. Call Serve (usually in a
// goroutine) to start the demux, then Accept for each new session.
func NewListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{
		ln:       ln,
		cfg:      cfg.withDefaults(),
		nextID:   1,
		sessions: make(map[uint64]*Session),
		pending:  make(chan *Session),
		done:     make(chan struct{}),
	}
}

// Addr returns the underlying listener address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops the demux. Accepted sessions are left to their own
// lifecycles; new ones no Accept took have no owner and are closed.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return l.ln.Close()
}

// Serve accepts raw connections until the listener closes. Each
// handshake runs in its own goroutine so a stalled peer cannot block
// the demux.
func (l *Listener) Serve() error {
	for {
		raw, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.done:
				return nil
			default:
				return err
			}
		}
		go l.handshake(raw)
	}
}

// Accept returns the next new session (not resumes — those splice
// into their existing Session transparently).
func (l *Listener) Accept() (*Session, error) {
	select {
	case s := <-l.pending:
		return s, nil
	case <-l.done:
		return nil, fmt.Errorf("resilience: listener closed")
	}
}

// SetTimeline attaches a timeline recorder: every hello and every
// resume the listener refuses is recorded as a session event, and
// every session it creates from now on records into it from its first
// epoch.
func (l *Listener) SetTimeline(rec *timeline.Recorder) {
	l.mu.Lock()
	l.tl = rec
	l.mu.Unlock()
}

func (l *Listener) refused(id uint64, detail string) {
	l.mu.Lock()
	tl := l.tl
	l.mu.Unlock()
	tl.SessionEvent(fmt.Sprintf("session-%d", id), "refused", detail)
}

// handshake runs the accepting side of the hello exchange on one raw
// connection.
func (l *Listener) handshake(raw net.Conn) {
	var rwc io.ReadWriteCloser = raw
	if l.Wrap != nil {
		rwc = l.Wrap(raw)
	}
	conn, kind, body, err := exchange(rwc, l.cfg.HandshakeTimeout, nil)
	var h handshake
	if err == nil {
		h, err = parseHandshake(kind, wire.FrameSessionHello, body)
	}
	if err != nil {
		l.refused(h.SessionID, fmt.Sprintf("hello (%s): %v", refusal(kind, err), err))
		conn.Close()
		return
	}

	if h.SessionID == 0 {
		l.acceptNew(conn)
		return
	}
	l.mu.Lock()
	s := l.sessions[h.SessionID]
	l.mu.Unlock()
	if s == nil || s.Err() != nil {
		l.refused(h.SessionID, "unknown session")
		l.answer(conn, handshake{Status: statusReject})
		conn.Close()
		return
	}
	l.resume(s, conn, h)
}

// refusal says why a hello was refused, given the kind of the envelope
// it came in (0 when none was read whole) and the error: a header past
// the session cap ("over cap"), a frame that is no hello ("wrong kind":
// an older peer's hello, or another envelope), a checksum or a layout
// that failed ("crc", "malformed"), or nothing whole in time ("read
// error").
func refusal(kind byte, err error) string {
	switch {
	case errors.Is(err, wire.ErrFrameTooLarge):
		return "over cap"
	case errors.Is(err, errKind) || kind != 0 && kind != wire.FrameSessionHello:
		return "wrong kind"
	case errors.Is(err, errCorrupt):
		return "crc"
	case kind != 0:
		return "malformed"
	default:
		return "read error"
	}
}

// answer writes a hello ack.
func (l *Listener) answer(conn *wire.Conn, a handshake) error {
	frame, err := appendHandshake(nil, wire.FrameSessionHelloAck, a)
	if err == nil {
		err = conn.WriteFrame(frame)
	}
	return err
}

// acceptNew creates a session for a first-contact hello and hands it
// to Accept, or closes it when the listener closes first.
func (l *Listener) acceptNew(conn *wire.Conn) {
	l.mu.Lock()
	id := l.nextID
	l.nextID++
	s := newSession(l.cfg, nil)
	s.id = id
	s.tl = l.tl
	s.forget = func() {
		l.mu.Lock()
		delete(l.sessions, id)
		l.mu.Unlock()
	}
	l.sessions[id] = s
	l.mu.Unlock()
	if err := l.answer(conn, handshake{Status: statusOK, SessionID: id, RecvNext: 1}); err != nil {
		conn.Close()
		s.Close()
		return
	}
	s.attach(conn, 1)
	s.startKeepalive()
	select {
	case l.pending <- s:
	case <-l.done:
		s.Close()
	}
}

// resume splices a reconnect into an existing session, replaying
// retained envelopes — or, when the peer's loss outruns retention on
// either side, negotiates a rewind to a common checkpoint tag.
func (l *Listener) resume(s *Session, conn *wire.Conn, h handshake) {
	s.mu.Lock()
	// Can we serve the peer's resume point from our retention, and
	// can the peer serve ours from theirs?
	canServe := h.RecvNext >= s.lowestAvail && h.RecvNext <= s.nextSeq
	canGet := s.recvNext >= h.Lowest
	recvNext, lowest := s.recvNext, s.lowestAvail
	latest := ""
	if s.latestTag != nil {
		latest = s.latestTag()
	}
	hasPeerTag := s.hasTag != nil && h.Tag != "" && s.hasTag(h.Tag)
	s.mu.Unlock()

	if canServe && canGet {
		if err := l.answer(conn, handshake{Status: statusOK, SessionID: s.id, RecvNext: recvNext}); err != nil {
			conn.Close()
			return
		}
		s.attach(conn, h.RecvNext)
		return
	}

	// Retention miss: pick a checkpoint both sides can restore. The
	// client proposed its latest completed tag; prefer that when we
	// hold it too, else offer our own only if it matches the
	// client's (we cannot know the client's full tag set, so a
	// mismatch is a reject).
	tag := ""
	if hasPeerTag {
		tag = h.Tag
	} else if latest != "" && latest == h.Tag {
		tag = latest
	}
	if tag == "" {
		l.refused(s.id, fmt.Sprintf("retention miss with no common checkpoint: peer wants %d, we retain from %d",
			h.RecvNext, lowest))
		l.answer(conn, handshake{Status: statusReject, SessionID: s.id})
		conn.Close()
		s.fail(fmt.Errorf("%w: retention miss with no common checkpoint", errSessionLost))
		return
	}
	if err := l.answer(conn, handshake{Status: statusRewind, SessionID: s.id, Tag: tag}); err != nil {
		conn.Close()
		return
	}
	s.resetForRewind(tag)
	s.attach(conn, 1)
}
