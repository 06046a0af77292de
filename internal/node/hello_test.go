package node

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/timeline"
	"repro/internal/wire"
)

func testHello() hello {
	return hello{FromNode: "designer", FromSub: "handheld", ToSub: "modemsite",
		Policy: channel.Optimistic, Link: channel.LinkModel{Latency: 5_000, BytesPerSecond: 1 << 20, PerMessage: -3}}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []hello{testHello(), {}, {FromNode: strings.Repeat("n", maxName), Link: channel.LoopbackLink}} {
		got, err := decodeHello(wire.FrameHello, appendHello(nil, h))
		if err != nil || got != h {
			t.Fatalf("hello %+v decoded as %+v, %v", h, got, err)
		}
	}
	for _, a := range []helloAck{{OK: true}, {Error: "node x hosts no subsystem \"y\""}, {}} {
		got, err := decodeHelloAck(wire.FrameHello, appendHelloAck(nil, a))
		if err != nil || got != a {
			t.Fatalf("helloAck %+v decoded as %+v, %v", a, got, err)
		}
	}
	long := helloAck{Error: strings.Repeat("e", 3*maxReason)}
	if got, err := decodeHelloAck(wire.FrameHello, appendHelloAck(nil, long)); err != nil || got.Error != long.Error[:maxReason] {
		t.Fatalf("an over-long refusal decoded as %d bytes, %v; want it clipped to %d", len(got.Error), err, maxReason)
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

// handshakeRows are hostile or stale handshake frames: each must be
// refused with an error naming its fault, without a panic or an
// allocation sized by what the peer declared.
var handshakeRows = func() []struct {
	name    string
	kind    byte
	payload []byte
	want    string
} {
	valid := appendHello(nil, testHello())
	badPolicy := testHello()
	badPolicy.Policy = 2
	return []struct {
		name    string
		kind    byte
		payload []byte
		want    string
	}{
		{"gob frame", wire.FrameGob, []byte{0x2f, 0xff, 0x81, 0x03}, "frame kind 0"},
		{"batch frame", wire.FrameBatch, valid, "frame kind 1"},
		{"empty", wire.FrameHello, nil, "short body"},
		{"unknown version", wire.FrameHello, append([]byte{7}, valid[1:]...), "version 7"},
		{"unknown tag", wire.FrameHello, []byte{helloVersion, 9}, "tag 9"},
		{"2^62 name length", wire.FrameHello, binary.AppendUvarint([]byte{helloVersion, tagHello}, 1<<62), "exceeds its cap"},
		{"name past the frame", wire.FrameHello, []byte{helloVersion, tagHello, 100, 'a'}, "short body"},
		{"unknown policy", wire.FrameHello, appendHello(nil, badPolicy), "policy 2"},
		{"short body", wire.FrameHello, valid[:len(valid)-1], "varint"},
		{"trailing bytes", wire.FrameHello, append(append([]byte(nil), valid...), 0), "1 trailing bytes"},
		{"overflowing varint", wire.FrameHello, append(valid[:len(valid)-1:len(valid)-1], bytes.Repeat([]byte{0xff}, 11)...), "varint"},
	}
}()

func TestHelloRejectsHostileFrames(t *testing.T) {
	for _, tc := range handshakeRows {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeHello(tc.kind, tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("hello gave %v, want an error containing %q", err, tc.want)
			}
			if n := allocBytes(func() { _, _ = decodeHello(tc.kind, tc.payload) }); n > 1<<10 {
				t.Fatalf("refusing the hello allocated %d bytes", n)
			}
		})
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"a hello where the ack belongs", appendHello(nil, testHello()), "tag 1"},
		{"2^62 reason length", binary.AppendUvarint([]byte{helloVersion, tagRefuse}, 1<<62), "exceeds its cap"},
		{"accept with trailing bytes", []byte{helloVersion, tagAccept, 0}, "1 trailing bytes"},
		{"unknown version", []byte{2, tagAccept}, "version 2"},
	} {
		t.Run("ack/"+tc.name, func(t *testing.T) {
			if _, err := decodeHelloAck(wire.FrameHello, tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("helloAck gave %v, want an error containing %q", err, tc.want)
			}
			if n := allocBytes(func() { _, _ = decodeHelloAck(wire.FrameHello, tc.payload) }); n > 1<<10 {
				t.Fatalf("refusing the helloAck allocated %d bytes", n)
			}
		})
	}
}

// legacyHello is the hello a node from before the binary handshake
// sends: this struct, gob-encoded, in a FrameGob frame.
type legacyHello struct {
	FromNode string
	FromSub  string
	ToSub    string
	Policy   uint8
	Link     channel.LinkModel
}

// TestHelloRefusesGobPeer: the frame a pre-change peer opens with is
// refused by its frame kind — the reason says so, and no decoder saw
// the payload — the refusal is recorded, the connection is closed, and
// the node goes on accepting dials.
func TestHelloRefusesGobPeer(t *testing.T) {
	srv := New("srv")
	refusals := make(chan string, 8)
	rec := timeline.NewRecorder(0)
	rec.Subscribe(func(e timeline.Event) {
		if e.Kind != timeline.KindSession {
			return
		}
		select {
		case refusals <- e.Detail:
		default:
		}
	})
	srv.EnableTimeline(rec)
	srv.Host(core.NewSubsystem("real"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	old, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(legacyHello{FromNode: "old", FromSub: "local", ToSub: "real", Link: channel.LoopbackLink}); err != nil {
		t.Fatal(err)
	}
	if err := old.SendRaw(wire.FrameGob, gobHello.Bytes()); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := old.RecvFrame()
	if err != nil {
		t.Fatalf("no refusal: %v", err)
	}
	ack, err := decodeHelloAck(kind, payload)
	if err != nil || ack.OK {
		t.Fatalf("answer to a gob hello: %+v, %v; want a refusal", ack, err)
	}
	if !strings.Contains(ack.Error, "frame kind 0") || strings.Contains(ack.Error, "gob") || strings.Contains(ack.Error, "decode") {
		t.Fatalf("refusal does not name the frame kind, or came from a decoder: %q", ack.Error)
	}
	if _, _, err := old.RecvFrame(); err == nil {
		t.Fatal("the refused connection is still open")
	}
	select {
	case d := <-refusals:
		if !strings.Contains(d, "frame kind 0") {
			t.Fatalf("recorded refusal %q does not name the frame kind", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the refusal was never recorded")
	}

	cli := New("cli")
	cli.Host(core.NewSubsystem("local"))
	defer cli.Close()
	if _, err := cli.Connect("local", addr, "real", channel.Conservative, channel.LoopbackLink); err != nil {
		t.Fatalf("the node stopped accepting after a refusal: %v", err)
	}
}

// TestConnectNamesAHandshakeFault: a refusal for a malformed hello
// reaches the dialer's error with its cause.
func TestConnectNamesAHandshakeFault(t *testing.T) {
	srv := New("srv")
	srv.Host(core.NewSubsystem("real"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := New("cli")
	cli.Host(core.NewSubsystem("local"))
	defer cli.Close()
	_, err = cli.Connect("local", addr, strings.Repeat("x", maxName+1), channel.Conservative, channel.LoopbackLink)
	if err == nil || !strings.Contains(err.Error(), "peer rejected channel") || !strings.Contains(err.Error(), "exceeds its cap") {
		t.Fatalf("an over-long name gave %v, want a refusal naming the cap", err)
	}
}

// FuzzHello: any payload decodes to a hello within the name caps, or
// to an error; never a panic. What decodes encodes back to the same
// hello.
func FuzzHello(f *testing.F) {
	f.Add(appendHello(nil, testHello()))
	for _, tc := range handshakeRows {
		f.Add(tc.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := decodeHello(wire.FrameHello, payload)
		if err != nil {
			return
		}
		if len(h.FromNode) > maxName || len(h.FromSub) > maxName || len(h.ToSub) > maxName {
			t.Fatalf("a name past the %d-byte cap: %+v", maxName, h)
		}
		if got, err := decodeHello(wire.FrameHello, appendHello(nil, h)); err != nil || got != h {
			t.Fatalf("round trip of %+v gave %+v, %v", h, got, err)
		}
	})
}

// FuzzHelloAck: the same for the acceptor's answer.
func FuzzHelloAck(f *testing.F) {
	f.Add(appendHelloAck(nil, helloAck{OK: true}))
	f.Add(appendHelloAck(nil, helloAck{Error: "refused"}))
	f.Add(binary.AppendUvarint([]byte{helloVersion, tagRefuse}, 1<<62))
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := decodeHelloAck(wire.FrameHello, payload)
		if err != nil {
			return
		}
		if len(a.Error) > maxReason {
			t.Fatalf("a reason past the %d-byte cap", maxReason)
		}
		if got, err := decodeHelloAck(wire.FrameHello, appendHelloAck(nil, a)); err != nil || got != a {
			t.Fatalf("round trip of %+v gave %+v, %v", a, got, err)
		}
	})
}
