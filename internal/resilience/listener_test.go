package resilience

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// listen starts a Listener on loopback and returns it with a dial
// function for it.
func listen(t *testing.T, cfg Config) (*Listener, func() (io.ReadWriteCloser, error)) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := NewListener(raw, cfg)
	addr := raw.Addr().String()
	return ln, func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) }
}

// held reports how many sessions the listener's table holds.
func (l *Listener) held() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sessions)
}

// TestListenerCloseWithUnacceptedSessions: nine first contacts that no
// Accept takes wait to be handed off. Close must neither panic on a
// handoff nor leave any of the nine sessions, which have no owner,
// alive; Accept then reports the closure.
func TestListenerCloseWithUnacceptedSessions(t *testing.T) {
	ln, dial := listen(t, Config{})
	served := make(chan error, 1)
	go func() { served <- ln.Serve() }()
	var clients []*Session
	for i := 0; i < 9; i++ {
		c, err := Dial(dial, Config{RetryMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	if s, err := ln.Accept(); err == nil {
		t.Fatalf("Accept after Close handed out session %d", s.ID())
	}
	// Each handoff ends on its own goroutine once it sees Close.
	for deadline := time.Now().Add(10 * time.Second); ln.held() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d unaccepted sessions outlived Close", ln.held())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadSessionsLeaveTheListener: a terminally failed session keeps
// nothing. After 50 sessions are opened, made to retain unacked
// egress, and closed, the listener holds none of them and none holds
// retention or a receive buffer.
func TestDeadSessionsLeaveTheListener(t *testing.T) {
	ln, dial := listen(t, Config{})
	go ln.Serve()
	defer ln.Close()
	const size = 4 << 10
	var dead []*Session
	for i := 0; i < 50; i++ {
		c, err := Dial(dial, Config{RetryMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		// The client neither writes nor sends heartbeats, so nothing
		// acks what the server sends: it stays in retention.
		if _, err := s.Write(pattern(size)); err != nil {
			t.Fatal(err)
		}
		drain(t, c, size)
		c.Close()
		s.mu.Lock()
		kept := len(s.retention)
		s.mu.Unlock()
		if kept == 0 {
			t.Fatalf("session %d retains nothing before Close", s.ID())
		}
		s.Close()
		dead = append(dead, s)
	}
	if n := ln.held(); n != 0 {
		t.Fatalf("the listener holds %d dead sessions", n)
	}
	for _, s := range dead {
		s.mu.Lock()
		kept, bytes, rbuf := len(s.retention), s.retBytes, s.rbuf.Cap()
		s.mu.Unlock()
		if kept != 0 || bytes != 0 || rbuf != 0 {
			t.Fatalf("dead session %d keeps %d envelopes (%d bytes) and a %d-byte receive buffer", s.ID(), kept, bytes, rbuf)
		}
	}
}

// TestOrphanedAcceptFails: a dialer opens a session, writes, and closes
// only its own side, so it never redials. Once the dialer's whole
// outage budget has passed with no traffic, the accepting side fails:
// the listener holds no session and the session no retention.
func TestOrphanedAcceptFails(t *testing.T) {
	cfg := Config{Heartbeat: 20 * time.Millisecond, HeartbeatMiss: 2, RetryBase: 10 * time.Millisecond, RetryCap: 20 * time.Millisecond, RetryMax: 2, HandshakeTimeout: 20 * time.Millisecond}
	ln, dial := listen(t, cfg)
	go ln.Serve()
	defer ln.Close()
	c, err := Dial(dial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	failed := make(chan struct{})
	var once sync.Once
	s.SetOnChange(func() {
		if !s.Alive() {
			once.Do(func() { close(failed) })
		}
	})
	const size = 4 << 10
	if _, err := c.Write(pattern(size)); err != nil {
		t.Fatal(err)
	}
	drain(t, s, size)
	c.Close()
	// Written after the dialer left, this stays unacked in retention.
	if _, err := s.Write(pattern(size)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	kept := s.retBytes
	s.mu.Unlock()
	if kept == 0 {
		t.Fatal("the orphaned session retains nothing before its budget runs out")
	}
	select {
	case <-failed:
	case <-time.After(10 * time.Second):
		t.Fatalf("the orphaned session is still alive %v after its dialer left (budget %v)", 10*time.Second, cfg.withDefaults().outageBudget())
	}
	s.mu.Lock()
	kept, bytes := len(s.retention), s.retBytes
	s.mu.Unlock()
	if n := ln.held(); n != 0 || kept != 0 || bytes != 0 {
		t.Fatalf("after the budget the listener holds %d sessions, the session %d envelopes (%d bytes)", n, kept, bytes)
	}
}
