package signal

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"
)

func TestSize(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{Level(true), 1},
		{Byte(7), 1},
		{Word(9), 4},
		{Packet(make([]byte, 100)), 100},
		{Frame{Payload: make([]byte, 20)}, 32},
		{BusCycle{}, 8},
		{IRQ{}, 2},
		{Control{}, 4},
		{[]byte("abc"), 3},
		{"abcd", 4},
		{struct{}{}, 1},
	}
	for _, c := range cases {
		if got := Size(c.v); got != c.want {
			t.Errorf("Size(%T) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSizePacketProperty(t *testing.T) {
	f := func(p []byte) bool { return Size(Packet(p)) == len(p) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if String(Packet(make([]byte, 5))) != "packet[5B]" {
		t.Fatal("packet String wrong")
	}
	if String(Word(3)) == "" || String(Frame{Src: "a", Dst: "b"}) == "" {
		t.Fatal("empty String")
	}
}

// TestGobRoundTrip checks that the package's init registers every
// signal type with gob, which wire.Conn.Send and wire.DecodeGob need.
func TestGobRoundTrip(t *testing.T) {
	values := []any{
		Level(true),
		Word(0xdeadbeef),
		Byte(0x7f),
		Packet([]byte{1, 2, 3}),
		Frame{Src: "hh", Dst: "srv", Seq: 9, Payload: []byte{4, 5}, Last: true},
		IRQ{Line: 3, Cause: "dma"},
		BusCycle{Addr: 0x100, Data: 42, Write: true},
		Control{Op: "start", Arg: 1},
	}
	for _, v := range values {
		var buf bytes.Buffer
		holder := struct{ V any }{v}
		if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		var out struct{ V any }
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		if String(out.V) != String(v) {
			t.Fatalf("round trip %T: got %v, want %v", v, out.V, v)
		}
	}
}
