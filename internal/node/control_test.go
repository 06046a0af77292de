package node

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/wire"
)

// guard bounds every wait in this file that should be over in
// milliseconds; it only ever elapses in a failing test.
const guard = 10 * time.Second

// within fails the test unless fn returns inside the guard, and
// returns what fn returned.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(guard):
		t.Fatalf("%s still blocked after %v", what, guard)
		return nil
	}
}

// TestCloseCutsAPendingHandshake: a dialer that connects and sends no
// hello neither holds Close for the handshake timeout nor outlives it:
// Close hangs up on it.
func TestCloseCutsAPendingHandshake(t *testing.T) {
	srv := New("srv")
	srv.Host(core.NewSubsystem("real"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Accepted after the silent one, so that one is in its handshake.
	cli := New("cli")
	cli.Host(core.NewSubsystem("local"))
	defer cli.Close()
	if _, err := cli.Connect("local", addr, "real", channel.Conservative, channel.LoopbackLink); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	within(t, "Close", srv.Close)
	if d := time.Since(start); d > helloTimeout/2 {
		t.Fatalf("Close took %v: it waited for the silent handshake to time out", d)
	}
	silent.SetReadDeadline(time.Now().Add(guard))
	if n, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the silent dialer read %d bytes, %v; want EOF", n, err)
	}
}

// shortHellos shortens the handshake timeout for one test.
func shortHellos(t *testing.T, d time.Duration) {
	old := helloTimeout
	helloTimeout = d
	t.Cleanup(func() { helloTimeout = old })
}

// TestDialControlGivesUpAtTheDeadline: a peer that accepts the
// connection and never answers the hello holds the dialer for the
// handshake timeout, no longer; so does a silent dialer the acceptor.
func TestDialControlGivesUpAtTheDeadline(t *testing.T) {
	shortHellos(t, 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // silent, holding what it accepts open until the test ends
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	n := New("alpha")
	defer n.Close()
	start := time.Now()
	err = within(t, "DialControl against a silent peer", func() error {
		_, err := n.DialControl("alpha", "zulu", ln.Addr().String())
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "no handshake within") {
		t.Fatalf("DialControl returned %v, want a handshake timeout", err)
	}
	if late := time.Since(start) - helloTimeout; late > time.Second {
		t.Fatalf("DialControl returned %v after the handshake timeout", late)
	}

	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(guard))
	if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("a dialer that sent no hello read %v; want the node to hang up", err)
	}
}

// TestControlConnection: a control hello reaches the control taker with
// the dialer's name, and the connection carries frames both ways; a
// node without a taker refuses it.
func TestControlConnection(t *testing.T) {
	srv := New("srv")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := New("cli")
	defer cli.Close()
	if _, err := cli.DialControl("alpha", "bravo", addr); err == nil || !strings.Contains(err.Error(), `takes no control connection from "alpha"`) {
		t.Fatalf("a node with no control taker answered %v", err)
	}

	from := make(chan string, 1)
	srv.SetControl(func(name string, c *wire.Conn) {
		from <- name
		if kind, payload, err := c.RecvFrame(); err == nil {
			c.SendRaw(kind, append(payload, '!'))
		}
	})
	c, err := cli.DialControl("alpha", "bravo", addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-from; got != "alpha" {
		t.Fatalf("the taker was handed %q, want alpha", got)
	}
	if err := c.SendRaw(wire.FrameMesh, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if kind, payload, err := c.RecvFrame(); err != nil || kind != wire.FrameMesh || string(payload) != "ping!" {
		t.Fatalf("echo %d %q %v", kind, payload, err)
	}
	// The taker returned: the node hung up.
	if _, _, err := c.RecvFrame(); err != io.EOF {
		t.Fatalf("after the taker returned the dialer read %v, want EOF", err)
	}
}
