package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// migSender drives one value per period on "out".
type migSender struct {
	Next, Count int
	Period      vtime.Duration
}

func (s *migSender) Run(p *core.Proc) error {
	for s.Next < s.Count {
		p.DelayUntil(vtime.Time(int64(s.Next+1) * int64(s.Period)))
		p.Send("out", s.Next)
		s.Next++
	}
	return nil
}

func (s *migSender) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(s.Next)), nil }
func (s *migSender) RestoreState(b []byte) error { return wire.ReadInts(b, &s.Next) }

// migReceiver records each delivery with its exact receive time.
type migReceiver struct {
	Got   []int
	Times []vtime.Time
}

func (r *migReceiver) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Got = append(r.Got, m.Value.(int))
		r.Times = append(r.Times, p.Time())
	}
}

func (r *migReceiver) SaveState() ([]byte, error) {
	return appendList(appendList(nil, r.Got), r.Times), nil
}

func (r *migReceiver) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	r.Got, r.Times = readList[int](&f), readList[vtime.Time](&f)
	return f.Done()
}

// appendList and readList lay out a list of integers in a test
// behaviour's state: its count, then each value as a varint.
func appendList[T ~int | ~int64 | ~uint32 | ~uint64](b []byte, vs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func readList[T ~int | ~int64 | ~uint32 | ~uint64](f *wire.Fields) []T {
	vs := make([]T, f.Len(1<<20, 1))
	for i := range vs {
		vs[i] = T(f.Varint())
	}
	return vs
}

// buildMigPair wires sender->net("wire", delay)->receiver on a fresh
// subsystem and returns it with the receiver behaviour.
func buildMigPair(t *testing.T, name string, count int, delay vtime.Duration) (*core.Subsystem, *migReceiver) {
	t.Helper()
	s := core.NewSubsystem(name)
	snd := &migSender{Count: count, Period: 10}
	rcv := &migReceiver{}
	sc, err := s.NewComponent("src", snd, "out")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := s.NewComponent("dst", rcv, "in")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.NewNet("wire", delay)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(n, sc.Port("out"), rc.Port("in")); err != nil {
		t.Fatal(err)
	}
	return s, rcv
}

// TestAdoptIntoDifferentSubsystem captures a component on one
// subsystem and restores it into a separately built instance: the
// cross-node transfer path of live migration.
func TestAdoptIntoDifferentSubsystem(t *testing.T) {
	src, _ := buildMigPair(t, "origin", 8, 3)
	// Run to a horizon where dst has seen some values.
	if err := src.Run(45); err != nil {
		t.Fatalf("source run: %v", err)
	}
	ci, err := ExtractComponent(src, "mig-test", "dst")
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	b, err := ci.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	ci2, err := DecodeComponentImage(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	// The destination is a different Subsystem instance with its own
	// sender, pre-advanced to the same horizon so the adopted
	// component resumes in a consistent timebase.
	dstSub, dstRcv := buildMigPair(t, "destination", 8, 3)
	if err := dstSub.Run(45); err != nil {
		t.Fatalf("destination pre-run: %v", err)
	}
	if err := AdoptComponent(dstSub, ci2); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if err := dstSub.Run(vtime.Infinity); err != nil {
		t.Fatalf("destination run: %v", err)
	}
	if len(dstRcv.Got) != 8 {
		t.Fatalf("adopted receiver saw %d values, want 8: %v", len(dstRcv.Got), dstRcv.Got)
	}
	for i, v := range dstRcv.Got {
		if v != i {
			t.Fatalf("adopted receiver values out of order: %v", dstRcv.Got)
		}
	}
	for i, ts := range dstRcv.Times {
		want := vtime.Time(int64(i+1)*10 + 3)
		if ts != want {
			t.Fatalf("delivery %d at %v, want %v (times %v)", i, ts, want, dstRcv.Times)
		}
	}
}

// TestAdoptWithStraddlingEvents makes the cut fall between a send
// and its delivery: the receiver's pending inbox event has a
// timestamp beyond the capture horizon, travels inside the image,
// and must be delivered at its exact original virtual time in the
// new subsystem.
func TestAdoptWithStraddlingEvents(t *testing.T) {
	// Period 10, net delay 7: the value sent at t=40 is delivered at
	// t=47, so capturing at the Run(40) exit catches it in flight —
	// absorbed into dst's inbox but not yet delivered.
	src, srcRcv := buildMigPair(t, "origin", 8, 7)
	if err := src.Run(40); err != nil {
		t.Fatalf("source run: %v", err)
	}
	if got := len(srcRcv.Got); got != 3 {
		t.Fatalf("precondition: source receiver saw %d values before the cut, want 3", got)
	}
	ci, err := ExtractComponent(src, "straddle", "dst")
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	straddlers := 0
	for _, e := range ci.Inbox {
		if e.Time > 40 {
			straddlers++
		}
	}
	if straddlers == 0 {
		t.Fatalf("precondition: no straddling event in the image (inbox %+v)", ci.Inbox)
	}
	// The inbox crosses the wire as the event.Event rows it holds.
	b, err := ci.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	sent := ci.Inbox
	if ci, err = DecodeComponentImage(b); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(ci.Inbox, sent) {
		t.Fatalf("inbox changed on the wire:\n got %+v\nwant %+v", ci.Inbox, sent)
	}

	dstSub, dstRcv := buildMigPair(t, "destination", 8, 7)
	if err := dstSub.Run(40); err != nil {
		t.Fatalf("destination pre-run: %v", err)
	}
	if err := AdoptComponent(dstSub, ci); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if err := dstSub.Run(vtime.Infinity); err != nil {
		t.Fatalf("destination run: %v", err)
	}
	if len(dstRcv.Got) != 8 {
		t.Fatalf("adopted receiver saw %d values, want 8: %v", len(dstRcv.Got), dstRcv.Got)
	}
	for i, ts := range dstRcv.Times {
		want := vtime.Time(int64(i+1)*10 + 7)
		if ts != want {
			t.Fatalf("delivery %d at %v, want %v (straddler timing lost)", i, ts, want)
		}
	}
}

// TestExtractRefusesLiveWithoutSaver documents the failure mode: a
// live component with no StateSaver cannot be captured, so it cannot
// migrate.
type saverless struct{}

func (saverless) Run(p *core.Proc) error {
	for {
		if _, ok := p.Recv("in"); !ok {
			return nil
		}
	}
}

func TestExtractRefusesLiveWithoutSaver(t *testing.T) {
	s := core.NewSubsystem("bare")
	c, err := s.NewComponent("opaque", saverless{}, "in")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.NewNet("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(n, c.Port("in")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractComponent(s, "nope", "opaque"); err == nil {
		t.Fatal("extracting a live saverless component must fail")
	}
}

// memHub writes memWords words of its memory, then waits on its ports.
type memHub struct{ migReceiver }

const memWords = 16

func (h *memHub) Run(p *core.Proc) error {
	for a := uint32(0); a < memWords; a++ {
		p.Memory().Write(p, 0x1000+a*4, uint64(a+1)*0x9e3779b97f4a7c15)
	}
	for {
		if _, ok := p.Recv(); !ok {
			return nil
		}
	}
}

// TestExtractNetsOrderStable captures a six-port component with 16
// words of memory fifty times: the image's Nets — built from
// Component.Ports — must come out in the same order, by port name,
// every time, and the memory words in address order, so the same
// component state always encodes to the same bytes.
func TestExtractNetsOrderStable(t *testing.T) {
	s := core.NewSubsystem("hub")
	c, err := s.NewComponent("hub", &memHub{}, "p0", "p1", "p2", "p3", "p4", "p5")
	if err != nil {
		t.Fatal(err)
	}
	// Port p<i> sits on net n<5-i>, so port order and net order differ.
	var want []string
	for i := 0; i < 6; i++ {
		port, net := fmt.Sprintf("p%d", i), fmt.Sprintf("n%d", 5-i)
		n, err := s.NewNet(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Connect(n, c.Port(port)); err != nil {
			t.Fatal(err)
		}
		want = append(want, net)
	}
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for round := 0; round < 50; round++ {
		ci, err := ExtractComponent(s, fmt.Sprintf("cut-%d", round), "hub")
		if err != nil {
			t.Fatalf("extract %d: %v", round, err)
		}
		if len(ci.MemData) != memWords {
			t.Fatalf("capture %d holds %d memory words, want %d", round, len(ci.MemData), memWords)
		}
		var got []string
		for _, ns := range ci.Nets {
			got = append(got, ns.Net)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("capture %d: Nets = %v, want %v (port-name order)", round, got, want)
		}
		b, err := ci.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("capture %d encodes differently from capture 0", round)
		}
	}
}
