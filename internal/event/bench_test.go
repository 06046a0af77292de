package event

import (
	"testing"

	"repro/internal/vtime"
)

// driveFanout models the scheduler's hottest loop: a drive fans one
// event value out to each of fanout listeners, and the listener-side
// drain consumes everything deliverable at the current time.
func driveFanout(q *Queue, t vtime.Time, fanout int, scratch []Event) []Event {
	for i := 0; i < fanout; i++ {
		q.Push(Event{Time: t, Kind: KindNet, Net: "bus", Value: i})
	}
	if scratch == nil {
		_ = q.PopBatch(t, 0, nil)
		return nil
	}
	return q.PopBatch(t, 0, scratch)
}

// BenchmarkDriveFanout measures allocations per drive-fanout round.
// The scratch-buffer variant (what the scheduler fast path uses) must
// not allocate in steady state; the naive variant allocates a result
// slice per drain.
func BenchmarkDriveFanout(b *testing.B) {
	const fanout = 32

	b.Run("alloc", func(b *testing.B) {
		var q Queue
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			driveFanout(&q, vtime.Time(i), fanout, nil)
		}
	})

	b.Run("scratch", func(b *testing.B) {
		var q Queue
		scratch := make([]Event, 0, fanout)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch = driveFanout(&q, vtime.Time(i), fanout, scratch)
		}
	})
}

// TestDriveFanoutZeroAlloc is the CI guard behind BenchmarkDriveFanout:
// the struct-of-arrays queue's push/drain fast path must stay at
// exactly 0 allocs/op — the heap columns and the row store reach
// steady-state capacity and are recycled in place, and events move by
// value so there is no per-event object at all. The metrics layer is
// pull-based (collectors walk existing Stats() accessors at snapshot
// time) precisely so this number cannot move when observability ships
// disabled; a regression here means someone put work back on the
// drive hot path.
func TestDriveFanoutZeroAlloc(t *testing.T) {
	const fanout = 32
	var q Queue
	scratch := make([]Event, 0, fanout)
	tick := vtime.Time(0)
	// Warm the columns and the scratch buffer to steady state first.
	for i := 0; i < 16; i++ {
		scratch = driveFanout(&q, tick, fanout, scratch)
		tick++
	}
	allocs := testing.AllocsPerRun(200, func() {
		scratch = driveFanout(&q, tick, fanout, scratch)
		tick++
	})
	if allocs != 0 {
		t.Fatalf("drive fanout allocates %.1f times/op, want 0", allocs)
	}
}

// TestQueueScanZeroAlloc guards the safe-horizon scan paths: NextTime
// (the scheduler key scan reads only the head of the time column),
// MinMatching on a link filter (filtered receive) and a
// PopBatch/PushStamped recycle round must all run allocation-free
// against a warm queue.
func TestQueueScanZeroAlloc(t *testing.T) {
	var q Queue
	irq := q.onPorts([]string{"irq"})
	for i := 0; i < 64; i++ {
		port := "bus"
		if i%7 == 0 {
			port = "irq"
		}
		q.Push(Event{Time: vtime.Time(i), Port: port, Net: "bus"})
	}
	scratch := make([]Event, 0, 64)
	sink := vtime.Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		sink += q.NextTime()
		if at, t := q.MinMatching(irq); at >= 0 {
			sink += t
		}
		scratch = q.PopBatch(vtime.Infinity, 8, scratch)
		for _, e := range scratch {
			q.pushStamped(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("queue scan allocates %.1f times/op, want 0", allocs)
	}
	_ = sink
}

// burstLen is one word-passage page load: the number of net drives
// that land in the browser's inbox before it starts receiving.
const burstLen = 16_897

// burst pushes n in-order events into q and pops them all.
func burst(q *Queue, n int) {
	for i := 0; i < n; i++ {
		q.Push(Event{Time: vtime.Time(i), Kind: KindNet, Port: "dma", Net: "dma"})
	}
	for q.Len() > 0 {
		q.Pop()
	}
}

// BenchmarkQueueBurst is the cold-queue cost of one page load: every
// simulation starts with empty queues, so this — not the warm
// push/pop pair — is what the word-passage rows pay.
func BenchmarkQueueBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q Queue
		burst(&q, burstLen)
	}
}
