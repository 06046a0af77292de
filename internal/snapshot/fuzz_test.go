package snapshot

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/signal"
)

// FuzzComponentImage feeds DecodeComponentImage arbitrary bytes: it
// must not panic, what it decodes must be bounded by the input and the
// caps, and an image it accepts must encode and decode again to an
// equal image.
func FuzzComponentImage(f *testing.F) {
	seeds := []*ComponentImage{
		{},
		{Image: core.Image{Component: "hot", LocalTime: 42, Runlevel: "word", Live: true, State: []byte{1, 2},
			Inbox:   []event.Event{{Time: 50, Seq: 3, Kind: event.KindNet, Component: "hot", Port: "in", Net: "w", Value: 7, Source: "src"}},
			MemData: map[uint32]uint64{0: 1, 0x1000: 2, 0xffffffff: 3}},
			Nets: []core.NetImage{{Net: "w", Value: signal.Word(0x12345678), Time: 40, Source: "src"},
				{Net: "p", Value: signal.Packet{1, 2, 3}}, {Net: "f", Value: signal.Frame{Src: "a", Dst: "b", Payload: []byte{9}}}}},
	}
	for _, ci := range seeds {
		b, err := ci.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{imageVersion, 1, 'c', 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		ci, err := DecodeComponentImage(b)
		if err != nil {
			return
		}
		if len(ci.State) > len(b) || len(ci.State) > maxState ||
			len(ci.Inbox) > len(b)/inboxRowMin || len(ci.Inbox) > maxInbox ||
			len(ci.MemData) > len(b)/memWordMin || len(ci.MemData) > maxMemWords ||
			len(ci.Nets) > len(b)/netMin || len(ci.Nets) > maxNets {
			t.Fatalf("%d input bytes decoded to %d state bytes, %d inbox rows, %d memory words and %d nets",
				len(b), len(ci.State), len(ci.Inbox), len(ci.MemData), len(ci.Nets))
		}
		re, err := ci.Encode()
		if err != nil {
			t.Fatalf("an accepted image does not re-encode: %v", err)
		}
		again, err := DecodeComponentImage(re)
		if err != nil {
			t.Fatalf("a re-encoded image does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, ci) {
			t.Fatalf("re-encoding changed the image:\n got %+v\nwant %+v", again, ci)
		}
	})
}
