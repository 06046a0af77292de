package snapshot_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/signal"
	"repro/internal/snapshot"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

func roundTrip(t *testing.T, ci *snapshot.ComponentImage) *snapshot.ComponentImage {
	t.Helper()
	b, err := ci.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := snapshot.DecodeComponentImage(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// fill sets every field of the struct v to a value that is not its
// zero, recursing into embedded structs, slices of structs and maps, so
// a field the layout does not carry comes back zero. A field of a kind
// fill does not know fails the test: teach fill, and Encode, about it.
func fill(t *testing.T, v reflect.Value, seed int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		seed++
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("%s-%d", name, seed))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int64:
			f.SetInt(int64(seed) * -1_000_003) // times may be negative
		case reflect.Uint64:
			f.SetUint(uint64(seed) << 40)
		case reflect.Uint8: // event.Kind: the last one defined
			f.SetUint(uint64(event.KindControl))
		case reflect.Interface:
			f.Set(reflect.ValueOf(signal.Word(0x10000 + seed)))
		case reflect.Struct:
			fill(t, f, seed*10)
		case reflect.Slice:
			if f.Type().Elem().Kind() == reflect.Uint8 {
				f.SetBytes([]byte{byte(seed), 0, 0xff})
				break
			}
			s := reflect.MakeSlice(f.Type(), 2, 2)
			for j := 0; j < s.Len(); j++ {
				fill(t, s.Index(j), seed*100+j*10)
			}
			f.Set(s)
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			for _, k := range []uint64{0xffffffff, 0, uint64(seed)} {
				key, val := reflect.New(f.Type().Key()).Elem(), reflect.New(f.Type().Elem()).Elem()
				key.SetUint(k)
				val.SetUint(k<<20 | 1)
				m.SetMapIndex(key, val)
			}
			f.Set(m)
		default:
			t.Fatalf("fill: field %s of %v has kind %v", name, v.Type(), f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("fill: field %s of %v left zero", name, v.Type())
		}
	}
}

// TestImageCarriesEveryField fills every field of core.Image,
// event.Event and core.NetImage: each must survive Encode and Decode,
// so a field added to any of them cannot fail to travel.
func TestImageCarriesEveryField(t *testing.T) {
	var ci snapshot.ComponentImage
	fill(t, reflect.ValueOf(&ci).Elem(), 0)
	if got := roundTrip(t, &ci); !reflect.DeepEqual(got, &ci) {
		t.Fatalf("image changed on the way:\n got %+v\nwant %+v", got, &ci)
	}
}

// TestImageValueTags carries a value of every tag of the channel codec
// — boxed words, frames and bus cycles among them — and a registered
// extension type, in the inbox and as net samples.
func TestImageValueTags(t *testing.T) {
	var words signal.WordBoxes
	var frames signal.FrameBoxes
	var cycles signal.BusCycleBoxes
	values := []any{
		nil,
		signal.Level(true),
		signal.Word(7),
		words.Box(0xdeadbeef),
		signal.Byte(0x7f),
		signal.Packet{1, 2, 3},
		frames.Box(signal.Frame{Src: "hh", Dst: "srv", Seq: 9, Payload: []byte{4, 5}}),
		signal.Frame{Src: "hh", Dst: "srv", Seq: 10, Payload: []byte{6}, Last: true},
		cycles.Box(signal.BusCycle{Addr: 0x100, Data: 42, Write: true}),
		signal.Control{Op: "start", Arg: -1},
		signal.IRQ{Line: 3, Cause: "dma"},
		42,
		-1,
		wubbleu.NetReq{URL: "pia://home"},
	}
	ci := &snapshot.ComponentImage{Image: core.Image{Component: "c", Live: true}}
	for i, v := range values {
		ci.Inbox = append(ci.Inbox, event.Event{Time: vtime.Time(i), Seq: uint64(i), Component: "c", Port: "in", Net: "n", Value: v, Source: "src"})
		ci.Nets = append(ci.Nets, core.NetImage{Net: fmt.Sprintf("n%d", i), Value: v, Time: vtime.Time(i)})
	}
	if got := roundTrip(t, ci); !reflect.DeepEqual(got, ci) {
		t.Fatalf("values changed on the way:\n got %+v\nwant %+v", got, ci)
	}
}

type unregistered struct{ X int }

// TestImageRefusesUnregisteredValue: a value no channel could carry
// cannot migrate either, and the source says which type it was.
func TestImageRefusesUnregisteredValue(t *testing.T) {
	for _, ci := range []*snapshot.ComponentImage{
		{Image: core.Image{Component: "c", Inbox: []event.Event{{Value: unregistered{1}}}}},
		{Image: core.Image{Component: "c"}, Nets: []core.NetImage{{Net: "n", Value: unregistered{2}}}},
	} {
		_, err := ci.Encode()
		if err == nil || !strings.Contains(err.Error(), "snapshot_test.unregistered") {
			t.Fatalf("encode of an unregistered value: %v, want an error naming snapshot_test.unregistered", err)
		}
	}
}

// Layout pieces for hand-built images.
func field(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }

func uv(n uint64) []byte { return binary.AppendUvarint(nil, n) }

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// head is a valid image's fields up to its inbox: version 1, component
// "c", local time 0, no runlevel, flags, no state.
func head(flags byte) []byte {
	return cat([]byte{1}, field("c"), uv(0), field(""), []byte{flags}, field(""))
}

// intValue is the int 5 as a value field.
var intValue = field(string(binary.AppendUvarint([]byte{9}, 5+1<<63)))

// row is one inbox row of the given kind carrying value.
func row(kind byte, value []byte) []byte {
	return cat(uv(3), uv(1), []byte{kind}, field("c"), field("in"), field("n"), value, field("src"))
}

// mem is a memory section holding words at addrs.
func mem(addrs ...uint64) []byte {
	out := uv(uint64(len(addrs)))
	for _, a := range addrs {
		out = append(append(out, uv(a)...), uv(1)...)
	}
	return out
}

// TestDecodeRefusesHostileImages: each image is refused with an error
// naming what is wrong with it, and none panics.
func TestDecodeRefusesHostileImages(t *testing.T) {
	valid := cat(head(1), uv(1), row(0, intValue), mem(4, 8), uv(1), field("n"), intValue, uv(0), field("src"))
	if _, err := snapshot.DecodeComponentImage(valid); err != nil {
		t.Fatalf("the valid image: %v", err)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "short body"},
		{"unknown version", append([]byte{2}, valid[1:]...), "unknown image version 2"},
		{"unknown flag bit", cat(head(8), uv(0), uv(0), uv(0)), "unknown image flags"},
		{"unknown event kind", cat(head(1), uv(1), row(3, intValue), uv(0), uv(0)), "unknown event kind 3"},
		{"address above 32 bits", cat(head(1), uv(0), mem(1<<32), uv(0)), "out of order or range"},
		{"addresses unsorted", cat(head(1), uv(0), mem(8, 4), uv(0)), "out of order or range"},
		{"address repeated", cat(head(1), uv(0), mem(4, 4), uv(0)), "out of order or range"},
		{"trailing bytes", append(valid, 0), "trailing bytes"},
		{"truncated", valid[:len(valid)-1], "short body"},
		{"non-minimal varint", cat([]byte{1}, field("c"), []byte{0x80, 0x00}), "fewer suffice"},
		{"name past its cap", cat([]byte{1}, field(strings.Repeat("x", 1<<10+1))), "exceeds its cap"},
		{"state past its cap", cat([]byte{1}, field("c"), uv(0), field(""), []byte{0}, uv(1<<40)), "exceeds its cap"},
		{"inbox past its cap", cat(head(1), uv(1<<40)), "exceeds its cap"},
		{"inbox past the input", cat(head(1), uv(1000), row(0, intValue)), "items in"},
		{"memory past the input", cat(head(1), uv(0), uv(1<<20), uv(4)), "items in"},
		{"nets past the input", cat(head(1), uv(0), uv(0), uv(1000)), "items in"},
		{"empty value", cat(head(1), uv(1), row(0, field("")), uv(0), uv(0)), "short body"},
		{"unknown value tag", cat(head(1), uv(1), row(0, field("\x63")), uv(0), uv(0)), "unknown value tag 99"},
		{"bytes after a value", cat(head(1), uv(1), row(0, field("\x00\x00")), uv(0), uv(0)), "1 trailing bytes"},
		{"unregistered extension", cat(head(1), uv(1), row(0, field("\x0a\x04nope\x00")), uv(0), uv(0)), "not registered"},
		{"packet longer than its value", cat(head(1), uv(1), row(0, field("\x04\x7f")), uv(0), uv(0)), "short body"},
	} {
		ci, err := snapshot.DecodeComponentImage(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %+v, %v; want an error containing %q", tc.name, ci, err, tc.want)
		}
	}
}
