package event

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vtime"
)

// The queue reads its columns as a sorted run until a push arrives out
// of order and as a heap from then until it empties (package comment).
// These tests drive the model of chunk_test.go through both readings
// and every way from one to the other.

// checkShape asserts what the queue must look like whichever reading is
// current. An empty queue is an empty run with no chunk past the first.
// A run is its slots head..next keyed by its live spans, which count
// exactly those slots and follow each other in order, with no free list
// and no heap columns; every chunk its head has passed is dropped and
// every later one is there, and the dropped prefix of the chunk table is
// no longer than the live part. A heap is its columns with every
// position ordered at or after its parent, and a link for every slot.
// Either way every live event's link is in the route table, and a table
// small enough to be searched whole holds each route once.
func checkShape(t *testing.T, q *Queue) {
	t.Helper()
	if q.Len() == 0 {
		if q.heap || q.head != 0 || q.next != 0 || q.free != 0 || len(q.rest) != 0 || len(q.spans) != 0 || q.spanHead != 0 {
			t.Fatalf("empty queue is not an empty run: heap %v, slots %d..%d, free %d, %d extra chunks, spans %d..%d",
				q.heap, q.head, q.next, q.free, len(q.rest), q.spanHead, len(q.spans))
		}
		return
	}
	var live []int32 // the live events' links
	if q.heap {
		if len(q.cols.links) != int(q.next) {
			t.Fatalf("heap of slots up to %d holds %d links", q.next, len(q.cols.links))
		}
		for _, slot := range q.cols.rows {
			live = append(live, q.cols.links[slot])
		}
	} else {
		for _, s := range q.spans[q.spanHead:] {
			live = append(live, s.link)
		}
	}
	routes := q.routes.keys
	for _, l := range live {
		if l < 0 || int(l) >= len(routes) {
			t.Fatalf("live event holds route %d of %d", l, len(routes))
		}
	}
	if len(routes) <= MaxLinks {
		// Searched whole on every push, so it holds no tuple twice.
		for i, r := range routes {
			if slices.Contains(routes[:i], r) {
				t.Fatalf("route %d of %d repeats an earlier one: %+v", i, len(routes), r)
			}
		}
	}
	if !q.heap {
		if q.free != 0 || (q.cols != nil && len(q.cols.times) != 0) {
			t.Fatalf("run with free list %d and %d heap positions", q.free, len(q.cols.times))
		}
		n, prev := int32(0), key{time: vtime.Time(math.MinInt64)}
		for i, s := range q.spans[q.spanHead:] {
			if s.n < 1 || s.stride < 0 {
				t.Fatalf("span %d holds %d events %d apart", i, s.n, s.stride)
			}
			if first := s.at(0); i > 0 && prev.after(first.time, first.seq) {
				t.Fatalf("span %d starts at %+v, before the last event of the one before it, %+v", i, first, prev)
			}
			n, prev = n+s.n, s.at(s.n-1)
		}
		if n != q.next-q.head {
			t.Fatalf("spans key %d events, the run holds slots %d..%d", n, q.head, q.next)
		}
		headChunk, tailChunk := int(q.head/chunkRows), int((q.next-1)/chunkRows)
		if len(q.rest) != tailChunk {
			t.Fatalf("slots up to %d in a store of %d chunks", q.next-1, 1+len(q.rest))
		}
		for i, c := range q.rest {
			if passed := i+1 < headChunk; passed != (c == nil) {
				t.Fatalf("chunk %d (head in chunk %d): dropped %v", i+1, headChunk, c == nil)
			}
		}
		if dead := max(0, headChunk-1); dead > len(q.rest)-dead {
			t.Fatalf("chunk table of %d holds %d dropped chunks", len(q.rest), dead)
		}
		return
	}
	c := q.cols
	for i := 1; i < len(c.times); i++ {
		if c.less(i, (i-1)/2) {
			t.Fatalf("heap order broken at position %d", i)
		}
	}
}

// The calls a walk makes.
const (
	opPushNext  = iota // at or after the latest time pushed: extends a run
	opPushPaced        // the next of a paced burst on the previous route: extends a span
	opPushAny          // a time up to the latest: usually out of order
	opRepush           // PushStamped of the most recently popped events
	opPop
	opPopMatching
	opPopBatch
	opSnapshot
	opReset
	nOps
)

// pace is a paced burst's time step.
const pace = 800

// walk drives a queue and the reference through a sequence of calls,
// checking every event the queue hands back and its shape after every
// call, and counts the transitions and span decisions the calls reach.
type walk struct {
	*model
	q      *Queue
	clock  vtime.Time // latest time pushed in order
	popped []Event    // most recent last, as a rollback journal holds them
	seen   struct {
		lateWithPrefix int // out-of-order push into a run whose head had advanced
		midRun         int // a filtered pop took an event from inside a run
		repushOlder    int // rollback re-push of keys older than the run's tail
		passed         int // a run's head left a chunk and the chunk was dropped
		rebased        int // ... and the chunk table was rebased
		heapEmptied    int // a heap emptied and the queue was a run again
		joined         int // a push into a non-empty run counted itself into the tail span
		opened         int // ... or opened a span
	}
}

func (w *walk) took(got, want Event) {
	w.t.Helper()
	w.removed(got, want)
	w.popped = append(w.popped, got)
}

// do makes call op; arg picks what the call leaves open — the time
// step, the filter, the bounds of a batch, how many events a rollback
// re-pushes.
func (w *walk) do(op int, arg byte) {
	t, q, m := w.t, w.q, w.model
	t.Helper()
	wasHeap, head := q.heap, q.head
	wasLen, hadSpans := q.Len(), len(q.spans)-int(q.spanHead)
	switch op {
	case opPushNext:
		w.clock += vtime.Time(arg % 3)
		m.pushAt(q, w.clock)
	case opPushPaced:
		w.clock += pace
		m.pushOn(q, w.clock, m.prev)
	case opPushAny:
		m.pushAt(q, vtime.Time(int64(arg)*int64(w.clock+1)/256))
		if !wasHeap && q.heap && head > 0 {
			w.seen.lateWithPrefix++
		}
	case opRepush:
		n := min(len(w.popped), 1+int(arg%8))
		for _, e := range w.popped[len(w.popped)-n:] {
			if !q.heap && q.Len() > 0 && e.Before(m.sorted()[len(m.live)-1]) {
				w.seen.repushOlder++
			}
			m.pushed(q, route{e.Kind, e.Component, e.Port, e.Net, e.Source}, func() { q.pushStamped(e) })
			m.live = append(m.live, e)
		}
		w.popped = w.popped[:len(w.popped)-n]
	case opPop:
		got, ok := q.Pop()
		if ok != (len(m.live) > 0) {
			t.Fatalf("Pop ok=%v with %d live", ok, len(m.live))
		}
		if ok {
			w.took(got, m.sorted()[0])
			if !wasHeap && q.Len() > 0 && head > chunkRows && head%chunkRows == chunkRows-1 {
				w.seen.passed++
				if q.head < head {
					w.seen.rebased++
				}
			}
		}
	case opPopMatching:
		filter := acrossPorts[int(arg)%len(acrossPorts):][:1]
		want, any := m.minMatching(filter)
		at, tm := q.MinMatching(q.onPorts(filter))
		if !q.heap && at > int(q.head) {
			w.seen.midRun++
		}
		var got Event
		if at >= 0 {
			q.popAt(at, &got)
		}
		if (at >= 0) != any || (any && tm != got.Time) {
			t.Fatalf("popped %+v at position %d @%v, reference %+v %v", got, at, tm, want, any)
		}
		if any {
			w.took(got, want)
		}
	case opPopBatch:
		ref := m.sorted()
		cut, max := w.clock-vtime.Time(arg%20), int(arg/20%12)
		n := 0
		for n < len(ref) && ref[n].Time <= cut && (max == 0 || n < max) {
			n++
		}
		got := q.PopBatch(cut, max, nil)
		if !slices.Equal(got, ref[:n]) {
			t.Fatalf("PopBatch(%v, %d) returned %d events, reference %d (or they differ)", cut, max, len(got), n)
		}
		for i := range got {
			w.took(got[i], ref[i])
		}
	case opSnapshot:
		if snap := q.snapshot(); !slices.Equal(snap, m.sorted()) {
			t.Fatalf("snapshot of %d events differs from the reference", len(snap))
		}
	case opReset:
		q.Reset()
		m.live = nil
	}
	if wasHeap && q.Len() == 0 {
		w.seen.heapEmptied++
	}
	if !q.heap && wasLen > 0 && q.Len() == wasLen+1 && op != opRepush {
		if len(q.spans)-int(q.spanHead) == hadSpans {
			w.seen.joined++
		} else {
			w.seen.opened++
		}
	}
	if q.Len() != len(m.live) {
		t.Fatalf("op %d: Len %d, reference %d", op, q.Len(), len(m.live))
	}
	want := vtime.Infinity
	if len(m.live) > 0 {
		want = m.sorted()[0].Time
	}
	if q.NextTime() != want {
		t.Fatalf("op %d: NextTime %v, reference %v", op, q.NextTime(), want)
	}
	checkShape(t, q)
}

// TestQueueModel: seeded random interleavings of every mutating call,
// checked against the sorted-slice reference after each one. The walk
// moves through phases that favour different calls, each drawing its
// routes either mostly from a few or mostly from the whole pool, so
// that each run/heap transition, each way the route table serves a
// push and each span decision is reached many times; the counters at
// the end say that every one was.
func TestQueueModel(t *testing.T) {
	phases := []struct {
		weights [nOps]int
		steps   int
	}{
		// An in-order burst.
		{[nOps]int{opPushNext: 10}, 150},
		// A paced page load and its drain, filtered or not.
		{[nOps]int{opPushPaced: 20, opPushNext: 1, opPop: 10, opPopMatching: 2}, 300},
		// A run that never empties.
		{[nOps]int{opPushNext: 10, opPop: 9, opPopMatching: 3, opSnapshot: 1}, 150},
		// A timer chain: a run that never empties and never heaps, long
		// enough for its head to pass chunks.
		{[nOps]int{opPushNext: 11, opPop: 10}, 3000},
		// A drain.
		{[nOps]int{opPop: 10, opPopMatching: 2, opPopBatch: 1}, 150},
		// Speculate and roll back.
		{[nOps]int{opPushNext: 6, opPop: 4, opRepush: 1}, 150},
		// Interleaved sources.
		{[nOps]int{opPushAny: 6, opPop: 5, opPopMatching: 2, opPopBatch: 1}, 150},
		// Everything.
		{[nOps]int{opPushNext: 4, opPushAny: 1, opRepush: 1, opPop: 4, opPopMatching: 2, opPopBatch: 1, opSnapshot: 1, opReset: 1}, 150},
	}
	w := &walk{model: &model{t: t}} // one walk, so its counters span the seeds
	for seed := int64(1); seed <= 12; seed++ {
		w.q, w.clock, w.popped = new(Queue), 0, nil
		w.rng = rand.New(rand.NewSource(seed))
		var weights [nOps]int
		for step, left := 0, 0; step < 6000; step, left = step+1, left-1 {
			if left == 0 {
				ph := phases[w.rng.Intn(len(phases))]
				weights, left = ph.weights, ph.steps
				w.cold = []int{5, 90}[w.rng.Intn(2)]
			}
			total := 0
			for _, wt := range weights {
				total += wt
			}
			op, pick := 0, w.rng.Intn(total)
			for pick >= weights[op] {
				pick -= weights[op]
				op++
			}
			if len(w.live) > 400 && op <= opRepush {
				op = opPop
			}
			w.do(op, byte(w.rng.Intn(256)))
		}
		w.popAll(w.q)
		checkShape(t, w.q)
	}
	if s := w.seen; s.lateWithPrefix == 0 || s.midRun == 0 || s.repushOlder == 0 ||
		s.passed == 0 || s.rebased == 0 || s.heapEmptied == 0 || s.joined == 0 || s.opened == 0 {
		t.Fatalf("a transition was never reached: %+v", s)
	}
	if r := w.routes; r.lastHit == 0 || r.tableHit == 0 || r.miss == 0 || r.rebuilt == 0 || r.reset == 0 {
		t.Fatalf("the route table never served a push one way: %+v", r)
	}
	t.Logf("transitions reached: %+v; route table: %+v", w.seen, w.routes)
}

// TestRunNeverEmptiesStaysSmall: a queue that is pushed and popped in
// order for ever without emptying — a component that always has its
// next timer pending — stays a run, and dropping the chunks its head
// passes and rebasing the chunk table keep its row store and the table
// proportional to its depth, not to its history: at most the chunks
// the live slots span, and a table at most twice that long. Its keys
// are as small: one span when the pushes are paced evenly, and when
// they are not — every span two events long — a key slice at most
// four times the spans live at its deepest.
func TestRunNeverEmptiesStaysSmall(t *testing.T) {
	for _, depth := range []int{100, 1000} {
		for _, even := range []bool{true, false} {
			at := func(i int) vtime.Time {
				if even {
					return vtime.Time(i)
				}
				return vtime.Time(3 * i / 2) // steps 1, 2, 1, 2, ...
			}
			var q Queue
			spans := (depth+chunkRows-1)/chunkRows + 1 // the most chunks depth+1 slots can touch
			mostKeys := 0
			for i := 0; i < 200_000; i++ {
				q.Push(Event{Time: at(i)})
				if q.Len() > depth {
					if e := mustPop(t, &q); e.Time != at(i-depth) {
						t.Fatalf("depth %d: popped time %v at push %d", depth, e.Time, i)
					}
				}
				if q.heap || q.cols != nil {
					t.Fatalf("depth %d: in-order traffic entered the heap at push %d", depth, i)
				}
				held := 0
				for _, c := range q.rest {
					if c != nil {
						held++
					}
				}
				if held > spans || len(q.rest) > 2*spans || cap(q.rest) > 4*spans {
					t.Fatalf("depth %d, push %d: %d chunks held in a table of %d (room for %d), want <= %d and <= %d",
						depth, i, held, len(q.rest), cap(q.rest), spans, 2*spans)
				}
				if q.next > int32(len(q.rest)+1)*chunkRows || len(q.first) > chunkRows {
					t.Fatalf("depth %d, push %d: slot %d past a store of %d chunks", depth, i, q.next, 1+len(q.rest))
				}
				live := len(q.spans) - int(q.spanHead)
				mostKeys = max(mostKeys, live)
				if even && live != 1 {
					t.Fatalf("depth %d, push %d: evenly paced run keyed by %d spans", depth, i, live)
				}
				if cap(q.spans) > 4*mostKeys+8 {
					t.Fatalf("depth %d, push %d: room for %d spans, at most %d ever live", depth, i, cap(q.spans), mostKeys)
				}
			}
			checkShape(t, &q)
		}
	}
}

// TestInOrderBurstNeverHeaps: one page load into an inbox — pushes in
// (Time, Seq) order with ties, then a drain — is served by the run from
// its first push to its last pop, and the drain lets go of each chunk
// as its head leaves it: past the first chunk the queue holds only the
// chunks between its head and its tail.
func TestInOrderBurstNeverHeaps(t *testing.T) {
	const n = 16_384
	var q Queue
	for i := 0; i < n; i++ {
		q.Push(Event{Time: vtime.Time(i / 4), Kind: KindNet, Port: "dma"})
		if q.heap {
			t.Fatalf("push %d entered the heap", i)
		}
	}
	chunks := len(q.rest)
	for i := 0; i < n; i++ {
		if q.heap {
			t.Fatalf("pop %d found a heap", i)
		}
		if e := mustPop(t, &q); e.Time != vtime.Time(i/4) || e.Seq != uint64(i+1) {
			t.Fatalf("pop %d returned time %v seq %d", i, e.Time, e.Seq)
		}
		held := 0
		for _, c := range q.rest {
			if c != nil {
				held++
			}
		}
		if want := (n-1)/chunkRows - max(1, (i+1)/chunkRows) + 1; q.Len() > 0 && held != min(want, chunks) {
			t.Fatalf("pop %d: %d chunks held, want %d", i, held, min(want, chunks))
		}
		if i%97 == 0 {
			checkShape(t, &q)
		}
	}
	checkShape(t, &q)
}

// TestPacedBurstIsOneSpan: a run keys its events by spans, and a push
// joins the tail span exactly when it continues it — the same link (a
// Queue's link is the route with the kind), the next sequence number, and the span's time step (set by its
// second event, if that step fits) — so a burst of drives paced one word
// time apart, or tied at one time, is one span however long it is, and
// every break in that shape opens a new one. Either way each event
// comes back with its own time, sequence number, kind and route.
func TestPacedBurstIsOneSpan(t *testing.T) {
	type push struct {
		at     vtime.Time
		port   string
		kind   Kind
		seqGap uint64 // pushed stamped, this far past the counter
	}
	paced := func(n int, stride vtime.Time) (ps []push) {
		for i := 0; i < n; i++ {
			ps = append(ps, push{at: 1000 + vtime.Time(i)*stride, port: "dma"})
		}
		return ps
	}
	cases := []struct {
		name   string
		pushes []push
		spans  int
	}{
		{"paced", paced(2000, 800), 1},
		{"tied", paced(2000, 0), 1},
		{"one", paced(1, 0), 1},
		{"route changes", append(paced(10, 5), push{at: 1050, port: "irq"}, push{at: 1055, port: "irq"}), 2},
		{"kind changes", append(paced(10, 5), push{at: 1050, port: "dma", kind: kindTimer}), 2},
		{"step changes", []push{{at: 0, port: "dma"}, {at: 1, port: "dma"}, {at: 2, port: "dma"}, {at: 4, port: "dma"}, {at: 6, port: "dma"}}, 2},
		{"sequence gap", append(paced(10, 5), push{at: 1050, port: "dma", seqGap: 3}, push{at: 1055, port: "dma"}), 2},
		{"step too wide", []push{{at: 0, port: "dma"}, {at: 1 << 40, port: "dma"}, {at: 2 << 40, port: "dma"}}, 3},
		{"step just fits", []push{{at: 0, port: "dma"}, {at: math.MaxInt32, port: "dma"}, {at: 2 * math.MaxInt32, port: "dma"}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				q    Queue
				want []Event
			)
			for i, p := range tc.pushes {
				e := Event{Time: p.at, Kind: p.kind, Component: "rx", Port: p.port, Net: p.port, Source: "tx", Value: i}
				if p.seqGap > 0 {
					e.Seq = q.seq + p.seqGap
					q.pushStamped(e)
				} else {
					e.Seq = q.Push(e)
				}
				want = append(want, e)
			}
			if q.heap || len(q.spans) != tc.spans {
				t.Fatalf("%d pushes keyed by %d spans (heap %v), want %d", len(tc.pushes), len(q.spans), q.heap, tc.spans)
			}
			checkShape(t, &q)
			for i, w := range want {
				if got := mustPop(t, &q); got != w {
					t.Fatalf("pop %d = %+v, want %+v", i, got, w)
				}
				if i%97 == 0 {
					checkShape(t, &q)
				}
			}
			checkShape(t, &q)
		})
	}

	// A span the head is draining still takes the events that continue
	// it: popping its first events steps its key, not its shape.
	var q Queue
	for i := 0; i < 3; i++ {
		q.Push(Event{Time: vtime.Time(10 * i), Port: "dma"})
	}
	mustPop(t, &q)
	mustPop(t, &q)
	q.Push(Event{Time: 30, Port: "dma"})
	if len(q.spans)-int(q.spanHead) != 1 || q.Len() != 2 {
		t.Fatalf("a push continuing a draining span opened one: spans %d..%d, %d live", q.spanHead, len(q.spans), q.Len())
	}
	for _, at := range []vtime.Time{20, 30} {
		if e := mustPop(t, &q); e.Time != at {
			t.Fatalf("popped time %v, want %v", e.Time, at)
		}
	}
}
