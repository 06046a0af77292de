package event

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

// The kernel reads an inbox through the link API: a filtered receive
// asks MinMatching for the earliest event on its ports and pops that
// position, a rollback re-pushes journaled events with their sequence
// numbers, and a checkpoint walks the queue with Each. These helpers
// are those calls on a Queue, whose links stand for whole routes.

// onPorts is the link filter of a receive on ports.
func (q *Queue) onPorts(ports []string) func(int32) bool {
	return func(l int32) bool { return slices.Contains(ports, q.routes.Key(l).port) }
}

// popMatching pops the earliest event on one of ports into *e; it
// reports false, leaving *e alone, when none is.
func (q *Queue) popMatching(ports []string, e *Event) bool {
	at, _ := q.MinMatching(q.onPorts(ports))
	if at < 0 {
		return false
	}
	q.popAt(at, e)
	return true
}

// pushStamped re-pushes e with its own sequence number.
func (q *Queue) pushStamped(e Event) {
	r := route{e.Kind, e.Component, e.Port, e.Net, e.Source}
	q.PushStamped(e.Time, e.Seq, q.routes.Link(&q.LinkQueue, r), e.Value)
}

// snapshot returns the pending events in delivery order.
func (q *Queue) snapshot() []Event {
	var out []Event
	q.Each(func(t vtime.Time, seq uint64, l int32, v any) {
		r := q.routes.Key(l)
		out = append(out, Event{Time: t, Seq: seq, Kind: r.kind, Component: r.component, Port: r.port, Net: r.net, Value: v, Source: r.source})
	})
	return out
}

func mustPop(t *testing.T, q *Queue) Event {
	t.Helper()
	e, ok := q.Pop()
	if !ok {
		t.Fatal("Pop on empty queue")
	}
	return e
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 30})
	q.Push(Event{Time: 10})
	q.Push(Event{Time: 20})
	var got []vtime.Time
	for q.Len() > 0 {
		got = append(got, mustPop(t, &q).Time)
	}
	want := []vtime.Time{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestQueueFIFOWithinSameTime(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(Event{Time: 7, Component: string(rune('a' + i))})
	}
	for i := 0; i < 5; i++ {
		e := mustPop(t, &q)
		if e.Component != string(rune('a'+i)) {
			t.Fatalf("tie-break broken: got %q at position %d", e.Component, i)
		}
	}
}

func TestNextTime(t *testing.T) {
	var q Queue
	if q.NextTime() != vtime.Infinity {
		t.Fatal("NextTime on empty queue should be Infinity")
	}
	q.Push(Event{Time: 42})
	if q.NextTime() != 42 {
		t.Fatal("NextTime disagrees with contents")
	}
	if q.Len() != 1 {
		t.Fatal("NextTime must not remove")
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue should report !ok")
	}
}

// TestDrain: PopBatch with no cap drains everything due.
func TestDrain(t *testing.T) {
	var q Queue
	for _, ts := range []vtime.Time{5, 1, 9, 3, 7} {
		q.Push(Event{Time: ts})
	}
	got := q.PopBatch(5, 0, nil)
	if len(got) != 3 {
		t.Fatalf("PopBatch(5) returned %d events, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Before(got[i-1]) {
			t.Fatal("PopBatch output not ordered")
		}
	}
	if q.Len() != 2 {
		t.Fatalf("queue left with %d events, want 2", q.Len())
	}
}

func TestSnapshotDoesNotDisturb(t *testing.T) {
	var q Queue
	for _, ts := range []vtime.Time{5, 1, 9} {
		q.Push(Event{Time: ts})
	}
	snap := q.snapshot()
	if len(snap) != 3 || snap[0].Time != 1 || snap[1].Time != 5 || snap[2].Time != 9 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
	if q.Len() != 3 || q.NextTime() != 1 {
		t.Fatal("Snapshot disturbed the queue")
	}
}

func TestPushStampedPreservesOrder(t *testing.T) {
	var q Queue
	a := Event{Time: 4, Component: "a"}
	b := Event{Time: 4, Component: "b"}
	a.Seq = q.Push(a)
	b.Seq = q.Push(b)
	// Simulate replay into a fresh queue.
	var r Queue
	r.pushStamped(b)
	r.pushStamped(a)
	if e := mustPop(t, &r); e.Seq != a.Seq || e.Component != "a" {
		t.Fatal("PushStamped lost original ordering")
	}
	if e := mustPop(t, &r); e.Seq != b.Seq || e.Component != "b" {
		t.Fatal("PushStamped lost original ordering")
	}
	// New pushes must order after replayed ones at the same time.
	var s Queue
	s.pushStamped(b)
	if cSeq := s.Push(Event{Time: 4}); cSeq <= b.Seq {
		t.Fatal("sequence counter not kept monotone across PushStamped")
	}
}

func TestMinMatchingAndPopMatching(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 3, Port: "irq"})
	q.Push(Event{Time: 1, Port: "bus"})
	q.Push(Event{Time: 2, Port: "irq"})
	q.Push(Event{Time: 2, Port: "bus"})

	irq := []string{"irq"}
	at, tm := q.MinMatching(q.onPorts(irq))
	if at < 0 || tm != 2 {
		t.Fatalf("MinMatching = position %d @%v, want irq@2", at, tm)
	}
	if q.Len() != 4 {
		t.Fatal("MinMatching must not remove")
	}

	var e Event
	ok := q.popMatching(irq, &e)
	if !ok || e.Time != 2 || e.Seq != 3 || e.Port != "irq" {
		t.Fatalf("popMatching = %v ok=%v, want irq@2 (seq 3)", e, ok)
	}
	if q.Len() != 3 {
		t.Fatalf("popMatching left %d events, want 3", q.Len())
	}
	// The untouched events still pop in global order.
	want := []vtime.Time{1, 2, 3}
	for i := 0; q.Len() > 0; i++ {
		if got := mustPop(t, &q).Time; got != want[i] {
			t.Fatalf("position %d: %v, want %v", i, got, want[i])
		}
	}

	if at, _ := q.MinMatching(q.onPorts([]string{"none"})); at >= 0 {
		t.Fatal("MinMatching matched a nonexistent port")
	}
	if q.popMatching([]string{"none"}, &e) {
		t.Fatal("popMatching matched a nonexistent port")
	}
}

// Property: MinMatching agrees with a drain-and-filter reference.
func TestMinMatchingProperty(t *testing.T) {
	f := func(times []uint8, mask []bool) bool {
		var q Queue
		ports := []string{"a"}
		anyMatch := false
		for i, ts := range times {
			port := "b"
			if i < len(mask) && mask[i] {
				port = "a"
				anyMatch = true
			}
			q.Push(Event{Time: vtime.Time(ts), Port: port})
		}
		at, tm := q.MinMatching(q.onPorts(ports))
		if !anyMatch {
			return at < 0
		}
		for _, e := range q.snapshot() {
			if e.Port == "a" {
				var got Event
				return at >= 0 && tm == e.Time && q.popMatching(ports, &got) && got == e
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: popping the queue always yields a non-decreasing (Time,
// Seq) sequence, no matter the insertion order.
func TestQueueSortedProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q Queue
		for _, ts := range times {
			q.Push(Event{Time: vtime.Time(ts)})
		}
		prev := Event{Time: -1}
		for q.Len() > 0 {
			e, _ := q.Pop()
			if e.Before(prev) {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PopBatch(t, 0) returns exactly the events with Time <= t.
func TestDrainPartitionProperty(t *testing.T) {
	f := func(times []uint8, cut uint8) bool {
		var q Queue
		for _, ts := range times {
			q.Push(Event{Time: vtime.Time(ts)})
		}
		got := q.PopBatch(vtime.Time(cut), 0, nil)
		for _, e := range got {
			if e.Time > vtime.Time(cut) {
				return false
			}
		}
		for q.Len() > 0 {
			e, _ := q.Pop()
			if e.Time <= vtime.Time(cut) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 5, Kind: KindNet, Net: "bus", Component: "cpu", Port: "in", Value: 7}
	if s := e.String(); s == "" {
		t.Fatal("empty String for net event")
	}
	timer := Event{Time: 5, Kind: kindTimer, Component: "cpu"}
	if s := timer.String(); s == "" {
		t.Fatal("empty String for timer event")
	}
	ctl := Event{Time: 5, Kind: KindControl}
	if s := ctl.String(); s == "" {
		t.Fatal("empty String for control event")
	}
	for _, k := range []Kind{KindNet, kindTimer, KindControl, Kind(99)} {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]vtime.Time, 1024)
	for i := range times {
		times[i] = vtime.Time(rng.Int63n(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Push(Event{Time: times[i%len(times)]})
		if q.Len() > 512 {
			q.Pop()
		}
	}
}

func TestStableAgainstSort(t *testing.T) {
	// Cross-check the heap against a reference stable sort.
	rng := rand.New(rand.NewSource(7))
	var q Queue
	type rec struct {
		time vtime.Time
		seq  int
	}
	var ref []rec
	for i := 0; i < 500; i++ {
		ts := vtime.Time(rng.Intn(50))
		q.Push(Event{Time: ts})
		ref = append(ref, rec{ts, i})
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].time < ref[j].time })
	for i := 0; q.Len() > 0; i++ {
		if got := mustPop(t, &q).Time; got != ref[i].time {
			t.Fatalf("position %d: heap %v, reference %v", i, got, ref[i].time)
		}
	}
}
