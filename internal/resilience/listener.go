package resilience

import (
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/timeline"
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

	mu       sync.Mutex
	tl       *timeline.Recorder // refusals, and the sessions it creates; set via SetTimeline
	nextID   uint64
	sessions map[uint64]*Session
	pending  chan *Session
	closed   bool
}

// NewListener wraps a net.Listener. Call Serve (usually in a
// goroutine) to start the demux, then Accept for each new session.
func NewListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{
		ln:       ln,
		cfg:      cfg.withDefaults(),
		nextID:   1,
		sessions: make(map[uint64]*Session),
		pending:  make(chan *Session, 8),
	}
}

// Addr returns the underlying listener address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops the demux. Live sessions are left to their own
// lifecycles.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return l.ln.Close()
}

// Serve accepts raw connections until the listener closes. Each
// handshake runs in its own goroutine so a stalled peer cannot block
// the demux.
func (l *Listener) Serve() error {
	for {
		raw, err := l.ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				close(l.pending)
				return nil
			}
			return err
		}
		go l.handshake(raw)
	}
}

// Accept returns the next new session (not resumes — those splice
// into their existing Session transparently).
func (l *Listener) Accept() (*Session, error) {
	s, ok := <-l.pending
	if !ok {
		return nil, fmt.Errorf("resilience: listener closed")
	}
	return s, nil
}

// SetTimeline attaches a timeline recorder: every resume the listener
// refuses is recorded as a session event, and every session it creates
// from now on records into it from its first epoch.
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
	var conn io.ReadWriteCloser = raw
	if l.Wrap != nil {
		conn = l.Wrap(raw)
	}
	stop := handshakeDeadline(conn, l.cfg.HandshakeTimeout)
	typ, body, err := readEnvelope(conn)
	if !stop() || err != nil || typ != typeHello {
		conn.Close()
		return
	}
	h, err := decodeHello(body)
	if err != nil {
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
		conn.Write(encodeHelloAck(helloAck{Status: statusReject}))
		conn.Close()
		return
	}
	l.resume(s, conn, h)
}

// acceptNew creates a session for a first-contact hello.
func (l *Listener) acceptNew(conn io.ReadWriteCloser) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		return
	}
	id := l.nextID
	l.nextID++
	s := newSession(l.cfg, nil)
	s.id = id
	s.tl = l.tl
	l.sessions[id] = s
	l.mu.Unlock()
	if _, err := conn.Write(encodeHelloAck(helloAck{Status: statusOK, SessionID: id, RecvNext: 1})); err != nil {
		conn.Close()
		return
	}
	s.attach(conn, 1)
	s.startKeepalive()
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		s.Close()
		return
	}
	l.pending <- s
}

// resume splices a reconnect into an existing session, replaying
// retained envelopes — or, when the peer's loss outruns retention on
// either side, negotiates a rewind to a common checkpoint tag.
func (l *Listener) resume(s *Session, conn io.ReadWriteCloser, h hello) {
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
		if _, err := conn.Write(encodeHelloAck(helloAck{Status: statusOK, SessionID: s.id, RecvNext: recvNext})); err != nil {
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
		conn.Write(encodeHelloAck(helloAck{Status: statusReject, SessionID: s.id}))
		conn.Close()
		s.fail(fmt.Errorf("%w: retention miss with no common checkpoint", ErrSessionLost))
		return
	}
	if _, err := conn.Write(encodeHelloAck(helloAck{Status: statusRewind, SessionID: s.id, Tag: tag})); err != nil {
		conn.Close()
		return
	}
	s.resetForRewind(tag)
	s.attach(conn, 1)
}
