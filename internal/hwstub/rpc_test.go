package hwstub

import (
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vtime"
	"repro/internal/wire"
)

func TestRPCRoundTrip(t *testing.T) {
	for _, q := range []hwReq{
		{Op: opSetTime, Time: 1 << 40}, {Op: opReadTime}, {Op: opRunFor, Dur: -5}, {Op: opStall},
		{Op: opPending}, {Op: opWrite, Addr: 0xffffffff, Val: 7}, {Op: opRead, Addr: 9},
	} {
		got, err := decodeReq(wire.FrameHW, appendReq(nil, q))
		if err != nil || got != q {
			t.Fatalf("request %+v decoded as %+v, %v", q, got, err)
		}
	}
	for _, r := range []hwResp{
		{Op: opReadTime, Time: 77}, {Op: opRead, Val: 0xdeadbeef}, {Op: opStall, Err: "stalled twice"},
		{Op: opRunFor, IRQs: []Interrupt{{Line: 1, At: 25, Data: 3}, {Line: -2, At: 1 << 50, Data: 0xffffffff}}},
		{Op: opPending},
	} {
		got, err := decodeResp(wire.FrameHW, appendResp(nil, r), r.Op)
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("response %+v decoded as %+v, %v", r, got, err)
		}
	}
}

// rpcRows are hostile or stale RPC frames: each must be refused with an
// error naming its fault, without a panic or an allocation sized by
// what the peer declared.
var rpcRows = []struct {
	name    string
	resp    bool // a response to op want, else a request
	want    byte
	kind    byte
	payload []byte
	err     string
}{
	{"gob request", false, 0, wire.FrameGob, []byte{0x2f, 0xff, 0x81}, "frame kind 0"},
	{"empty request", false, 0, wire.FrameHW, nil, "short body"},
	{"unknown op", false, 0, wire.FrameHW, []byte{9}, "unknown op 9"},
	{"short write", false, 0, wire.FrameHW, []byte{opWrite, 0, 0, 0, 1, 2}, "short body"},
	{"request with trailing bytes", false, 0, wire.FrameHW, []byte{opStall, 0}, "1 trailing bytes"},
	{"response to another op", true, opRead, wire.FrameHW, appendResp(nil, hwResp{Op: opReadTime}), "op 2 where op 7"},
	{"2^62 error length", true, opStall, wire.FrameHW, binary.AppendUvarint([]byte{opStall}, 1<<62), "exceeds its cap"},
	{"2^62 interrupts", true, opPending, wire.FrameHW, binary.AppendUvarint([]byte{opPending, 0}, 1<<62), "exceeds its cap"},
	{"interrupts past the frame", true, opRunFor, wire.FrameHW, append(binary.AppendUvarint([]byte{opRunFor, 0}, 1000), make([]byte, 64)...), "1000 items in 64 bytes"},
	{"response with trailing bytes", true, opRead, wire.FrameHW, []byte{opRead, 0, 0, 0, 0, 1, 0}, "1 trailing bytes"},
}

func decodeRow(resp bool, want, kind byte, payload []byte) error {
	if resp {
		_, err := decodeResp(kind, payload, want)
		return err
	}
	_, err := decodeReq(kind, payload)
	return err
}

func TestRPCRejectsHostileFrames(t *testing.T) {
	for _, tc := range rpcRows {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodeRow(tc.resp, tc.want, tc.kind, tc.payload); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("got %v, want an error containing %q", err, tc.err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 100; i++ {
				_ = decodeRow(tc.resp, tc.want, tc.kind, tc.payload)
			}
			runtime.ReadMemStats(&after)
			if n := (after.TotalAlloc - before.TotalAlloc) / 100; n > 1<<10 {
				t.Fatalf("refusing the frame allocated %d bytes", n)
			}
		})
	}
}

// TestServerSurvivesProtocolError: a request out of protocol is
// answered with its cause and closes that connection; the server goes
// on serving the next one.
func TestServerSurvivesProtocolError(t *testing.T) {
	b := NewSimBoard(nil)
	srv, addr, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.SendRaw(wire.FrameHW, []byte{9}); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := raw.RecvFrame()
	if err != nil {
		t.Fatalf("no answer to a bad request: %v", err)
	}
	if resp, err := decodeResp(kind, payload, 9); err != nil || !strings.Contains(resp.Err, "unknown op 9") {
		t.Fatalf("answer %+v, %v; want one naming the unknown op", resp, err)
	}
	if _, _, err := raw.RecvFrame(); err == nil {
		t.Fatal("the connection is still open after a bad request")
	}
	dev, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.WriteReg(3, 4); err != nil {
		t.Fatalf("the server stopped serving: %v", err)
	}
}

// TestRemoteRunForPastTheCap: a window that raises more interrupts than
// one response carries fails the call with the cap named, and the
// connection keeps serving.
func TestRemoteRunForPastTheCap(t *testing.T) {
	b := NewSimBoard(func(map[uint32]uint32, vtime.Time, vtime.Time) []Interrupt {
		return make([]Interrupt, maxIRQs+1)
	})
	srv, addr, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if irqs, err := dev.RunFor(10); err == nil || !strings.Contains(err.Error(), "more than 65536 interrupts") {
		t.Fatalf("RunFor past the cap: %d interrupts, %v", len(irqs), err)
	}
	if err := dev.WriteReg(1, 2); err != nil {
		t.Fatalf("the connection did not survive: %v", err)
	}
}

// TestRemoteCallNamesABadResponse: a response out of protocol fails the
// call with its cause and closes the connection.
func TestRemoteCallNamesABadResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		wc := wire.NewConn(c)
		defer wc.Close()
		if _, _, err := wc.RecvFrame(); err == nil {
			_ = wc.SendRaw(wire.FrameHW, appendResp(nil, hwResp{Op: opReadTime}))
		}
		_, _, _ = wc.RecvFrame() // until the caller hangs up
	}()
	dev, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := dev.ReadReg(1); err == nil || !strings.Contains(err.Error(), "bad response") {
		t.Fatalf("a response to another op gave %v", err)
	}
	if _, err := dev.ReadReg(1); err == nil {
		t.Fatal("the connection survived a bad response")
	}
}

// TestRemoteCallAllocs guards the remote register read end to end —
// request encode, both reads, the server's dispatch and response
// encode: a handful of allocations a call, not a gob encoder and
// decoder each way.
func TestRemoteCallAllocs(t *testing.T) {
	const most = 8
	b := NewSimBoard(nil)
	srv, addr, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if err := dev.WriteReg(5, 55); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if v, err := dev.ReadReg(5); err != nil || v != 55 {
			t.Fatalf("ReadReg = %d, %v", v, err)
		}
	}); avg > most {
		t.Fatalf("a remote register read allocates %.1f/call, want <= %d", avg, most)
	}
}

func BenchmarkRemoteReadReg(b *testing.B) {
	srv, addr, err := Serve(NewSimBoard(nil), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	dev, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dev.ReadReg(uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzHWRequest: any payload decodes to a request or an error, never a
// panic; what decodes encodes back to the same request.
func FuzzHWRequest(f *testing.F) {
	f.Add(appendReq(nil, hwReq{Op: opWrite, Addr: 1, Val: 2}))
	f.Add(appendReq(nil, hwReq{Op: opRunFor, Dur: 30}))
	for _, tc := range rpcRows {
		if !tc.resp {
			f.Add(tc.payload)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		q, err := decodeReq(wire.FrameHW, payload)
		if err != nil {
			return
		}
		if got, err := decodeReq(wire.FrameHW, appendReq(nil, q)); err != nil || got != q {
			t.Fatalf("round trip of %+v gave %+v, %v", q, got, err)
		}
	})
}

// FuzzHWResponse: any payload decodes to a response within the caps —
// an error string of at most maxErr bytes, at most maxIRQs interrupts
// and never more than the frame's bytes could carry — or to an error;
// what decodes encodes back to the same response.
func FuzzHWResponse(f *testing.F) {
	f.Add(opRunFor, appendResp(nil, hwResp{Op: opRunFor, IRQs: []Interrupt{{Line: 1, At: 2, Data: 3}}}))
	f.Add(opRead, appendResp(nil, hwResp{Op: opRead, Err: "no such register", Val: 1}))
	for _, tc := range rpcRows {
		if tc.resp {
			f.Add(tc.want, tc.payload)
		}
	}
	f.Fuzz(func(t *testing.T, want byte, payload []byte) {
		r, err := decodeResp(wire.FrameHW, payload, want)
		if err != nil {
			return
		}
		if len(r.Err) > maxErr || len(r.IRQs) > maxIRQs || len(r.IRQs)*minIRQ > len(payload) {
			t.Fatalf("%d-byte error and %d interrupts from a %d-byte frame", len(r.Err), len(r.IRQs), len(payload))
		}
		if got, err := decodeResp(wire.FrameHW, appendResp(nil, r), want); err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip of %+v gave %+v, %v", r, got, err)
		}
	})
}
