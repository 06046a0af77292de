package mesh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestControlFrameRoundTrip(t *testing.T) {
	for _, f := range []any{
		ctlHello{From: "alpha", DataAddr: "127.0.0.1:7000"},
		ctlHello{},
		request{ID: 9, Op: opApply, Until: -3, Move: move{Epoch: 2, Comp: "hot", From: "alpha", To: "bravo"},
			Image: image{Bytes: []byte{1, 2, 3}, Digest: 1<<64 - 1}},
		request{Op: opHeartbeat},
		reply{ID: 1 << 40, Op: opStep, Counters: counters{"bravo": {Sent: 4, Queued: 5, Handled: 6}, "": {Sent: -1}}},
		reply{ID: 2, Op: opPrepare, Err: "no such component", Image: image{Bytes: bytes.Repeat([]byte{7}, 300), Digest: 42}},
	} {
		got, err := decodeFrame(wire.FrameMesh, appendFrame(nil, f))
		if err != nil || !reflect.DeepEqual(got, f) {
			t.Fatalf("%+v decoded as %+v, %v", f, got, err)
		}
	}
	long := reply{ID: 3, Op: opApply, Err: strings.Repeat("e", 3*maxReason)}
	if got, err := decodeFrame(wire.FrameMesh, appendFrame(nil, long)); err != nil || got.(reply).Err != long.Err[:maxReason] {
		t.Fatalf("an over-long refusal decoded as %v; want it clipped to %d bytes", err, maxReason)
	}
}

// allocBytes is how many bytes one call of f allocates, on average.
func allocBytes(f func()) uint64 {
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// hostileRows are control frames a member must refuse, each with the
// fault its error names.
var hostileRows = func() []struct {
	name    string
	kind    byte
	payload []byte
	want    string
} {
	valid := appendFrame(nil, request{ID: 1, Op: opStep, Until: 5, Move: move{Comp: "hot"}})
	// counted is a reply to step 1 with no Err, up to its counter list
	// of n peers, then tail.
	counted := func(n uint64, tail ...byte) []byte {
		return append(binary.AppendUvarint([]byte{ctlVersion, tagReply, 1, byte(opStep), 0}, n), tail...)
	}
	return []struct {
		name    string
		kind    byte
		payload []byte
		want    string
	}{
		{"wrong frame kind", wire.FrameHello, valid, "frame kind 2"},
		{"empty", wire.FrameMesh, nil, "short body"},
		{"unknown version", wire.FrameMesh, append([]byte{7}, valid[1:]...), "version 7"},
		{"unknown tag", wire.FrameMesh, []byte{ctlVersion, 9}, "tag 9"},
		{"unknown op", wire.FrameMesh, appendFrame(nil, request{ID: 1, Op: 99}), "unknown op(99)"},
		{"op zero", wire.FrameMesh, appendFrame(nil, reply{ID: 1}), "unknown op(0)"},
		{"name over its cap", wire.FrameMesh, appendFrame(nil, request{ID: 1, Op: opMigrate, Move: move{Comp: strings.Repeat("x", maxName+1)}}), "exceeds its cap"},
		{"2^62 reason length", wire.FrameMesh, binary.AppendUvarint([]byte{ctlVersion, tagReply, 1, byte(opStep)}, 1<<62), "exceeds its cap"},
		{"2^40 image length", wire.FrameMesh, binary.AppendUvarint(counted(0), 1<<40), "exceeds its cap"},
		{"counter list over its cap", wire.FrameMesh, counted(maxMembers + 1), "exceeds its cap"},
		{"counter list past the frame", wire.FrameMesh, counted(3), "list of 3 items in 0 bytes"},
		{"counter peers out of order", wire.FrameMesh, counted(2, 1, 'b', 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0), `peer "a" after "b"`},
		{"counter peer twice", wire.FrameMesh, counted(2, 1, 'a', 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0), `peer "a" after "a"`},
		{"overlong varint", wire.FrameMesh, append([]byte{ctlVersion, tagRequest, 0x81, 0x00}, valid[3:]...), "fewer suffice"},
		{"truncated", wire.FrameMesh, valid[:len(valid)-1], "truncated"},
		{"trailing bytes", wire.FrameMesh, append(append([]byte(nil), valid...), 0), "1 trailing bytes"},
	}
}()

// gobHello is the first bytes a member from before the binary control
// plane sends on a connection it dialed: its gob-encoded hello.
var gobHello = []byte{0x2c, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08, 'c', 't', 'l', 'H', 'e', 'l', 'l', 'o', 0x01, 0xff, 0x82, 0x00}

// requestFrame is a whole control frame, header included, of a request.
var requestFrame = func() []byte {
	frame := appendFrame(make([]byte, wire.HeaderLen), request{ID: 1, Op: opStep})
	wire.PutHeader(frame, wire.FrameMesh)
	return frame
}()

// TestControlRejectsHostileFrames: every hostile frame is refused with
// an error naming its fault, without an allocation sized by what the
// peer declared; sent by an admitted peer, it ends that peer's
// connection, and a call to another member still completes. A stale
// or hostile handshake is cut the same way.
func TestControlRejectsHostileFrames(t *testing.T) {
	m := newMember(t, "alpha", nothing)
	ok := dialAs(t, m, "ok")
	for i, tc := range hostileRows {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeFrame(tc.kind, tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decoded with %v, want an error containing %q", err, tc.want)
			}
			if n := allocBytes(func() { _, _ = decodeFrame(tc.kind, tc.payload) }); n > 1<<10 {
				t.Fatalf("refusing the frame allocated %d bytes", n)
			}
			name := fmt.Sprintf("hostile%d", i)
			h := dialAs(t, m, name)
			if err := h.SendRaw(tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			awaitMembership(t, m, name+" dropped", hasLeft(m, name))
			h.hungUp()
			ok.t = t
			callCompletes(t, m, "ok", ok)
		})
	}
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"gob hello", gobHello},
		{"request for a hello", requestFrame},
	} {
		t.Run("handshake/"+tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", m.CtlAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(guard))
			if _, err := io.Copy(io.Discard, c); errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("the member kept the connection open")
			}
			ok.t = t
			callCompletes(t, m, "ok", ok)
		})
	}
}

// callCompletes runs one step call from m to the scripted member name,
// answering it through p.
func callCompletes(t *testing.T, m *member, name string, p *peer) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := m.call([]string{name}, request{Op: opStep})
		done <- err
	}()
	rq := p.nextRequest()
	p.mustSend(reply{ID: rq.ID, Op: rq.Op})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call to %s: %v", name, err)
		}
	case <-time.After(guard):
		t.Fatalf("call to %s still gathering after %v", name, guard)
	}
}

// TestDialCtlGivesUpAtTheDeadline: a peer that accepts the control
// connection and never answers the hello holds the dialer until
// Start's deadline, no longer.
func TestDialCtlGivesUpAtTheDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { // silent, holding what it accepts open until the test ends
		var silent []net.Conn
		defer func() {
			for _, c := range silent {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			silent = append(silent, c)
		}
	}()
	m := newMember(t, "alpha", nothing)
	deadline := time.Now().Add(200 * time.Millisecond)
	err = within(t, "dialCtl against a silent peer", func() error {
		return m.dialCtl("zulu", ln.Addr().String(), deadline)
	})
	if err == nil || !strings.Contains(err.Error(), "dial control zulu") || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("dialCtl returned %v, want a handshake timeout", err)
	}
	if late := time.Since(deadline); late > time.Second {
		t.Fatalf("dialCtl returned %v after its deadline", late)
	}
}

// TestCloseCutsAPendingHandshake: a dialer that connects and sends
// nothing neither holds Close for the handshake timeout nor outlives
// it: Close hangs up on it.
func TestCloseCutsAPendingHandshake(t *testing.T) {
	m := newMember(t, "alpha", nothing)
	c, err := net.Dial("tcp", m.CtlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dialAs(t, m, "p1") // accepted after the silent one, so that one is in its handshake
	start := time.Now()
	within(t, "Close", m.Close)
	if d := time.Since(start); d > connectTimeout/2 {
		t.Fatalf("Close took %v: it waited for the silent handshake to time out", d)
	}
	c.SetReadDeadline(time.Now().Add(guard))
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the silent dialer read %d bytes, %v; want EOF", n, err)
	}
}

// FuzzMeshFrame: any payload decodes to a control frame within the caps
// — names, reason and image no longer than theirs, no more counter
// entries than the cap or the frame's bytes allow — or to an error,
// never a panic; what decodes encodes back to the same bytes.
func FuzzMeshFrame(f *testing.F) {
	f.Add(appendFrame(nil, ctlHello{From: "alpha", DataAddr: "127.0.0.1:7000"}))
	f.Add(appendFrame(nil, request{ID: 3, Op: opApply, Until: 1e9, Move: move{Epoch: 1, Comp: "hot", From: "alpha", To: "bravo"}, Image: image{Bytes: []byte("img"), Digest: 99}}))
	f.Add(appendFrame(nil, reply{ID: 3, Op: opStep, Err: "refused", Counters: counters{"alpha": {1, 2, 3}, "bravo": {4, 5, 6}}}))
	for _, tc := range hostileRows {
		if tc.kind == wire.FrameMesh {
			f.Add(tc.payload)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := decodeFrame(wire.FrameMesh, payload)
		if err != nil {
			return
		}
		var names []string
		var img image
		switch fr := fr.(type) {
		case ctlHello:
			names = []string{fr.From, fr.DataAddr}
		case request:
			names, img = []string{fr.Move.Comp, fr.Move.From, fr.Move.To}, fr.Image
		case reply:
			if len(fr.Err) > maxReason || len(fr.Counters) > maxMembers || len(fr.Counters)*minCount > len(payload) {
				t.Fatalf("%d-byte reason and %d counter entries from a %d-byte frame", len(fr.Err), len(fr.Counters), len(payload))
			}
			for p := range fr.Counters {
				names = append(names, p)
			}
			img = fr.Image
		}
		for _, n := range names {
			if len(n) > maxName {
				t.Fatalf("a name of %d bytes, past the %d-byte cap", len(n), maxName)
			}
		}
		if len(img.Bytes) > maxImage || len(img.Bytes) > len(payload) {
			t.Fatalf("a %d-byte image from a %d-byte frame", len(img.Bytes), len(payload))
		}
		if got := appendFrame(nil, fr); !bytes.Equal(got, payload) {
			t.Fatalf("%+v re-encoded as\n%x\nfrom\n%x", fr, got, payload)
		}
	})
}
