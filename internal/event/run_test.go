package event

import (
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
// A run is its slots head..next with their keys in order, no free list
// and no heap columns; every chunk its head has passed is dropped and
// every later one is there, and the dropped prefix of the chunk table is
// no longer than the live part. A heap is its columns with every
// position ordered at or after its parent. Either way every live row's
// route is in the table, and a table small enough to be searched whole
// holds each route once.
func checkShape(t *testing.T, q *Queue) {
	t.Helper()
	if q.Len() == 0 {
		if q.heap || q.head != 0 || q.next != 0 || q.free != 0 || len(q.rest) != 0 {
			t.Fatalf("empty queue is not an empty run: heap %v, slots %d..%d, free %d, %d extra chunks",
				q.heap, q.head, q.next, q.free, len(q.rest))
		}
		return
	}
	var live []int32 // the live slots
	if q.heap {
		live = q.cols.rows
	} else {
		for slot := q.head; slot < q.next; slot++ {
			live = append(live, slot)
		}
	}
	for _, slot := range live {
		if p, _ := q.at(slot); p.link < 0 || int(p.link) >= len(q.routes) {
			t.Fatalf("row %d holds route %d of %d", slot, p.link, len(q.routes))
		}
	}
	if len(q.routes) <= maxRoutes {
		// Searched whole on every push, so it holds no tuple twice.
		for i, r := range q.routes {
			if slices.Contains(q.routes[:i], r) {
				t.Fatalf("route %d of %d repeats an earlier one: %+v", i, len(q.routes), r)
			}
		}
	}
	if !q.heap {
		if q.free != 0 || (q.cols != nil && len(q.cols.times) != 0) {
			t.Fatalf("run with free list %d and %d heap positions", q.free, len(q.cols.times))
		}
		for slot := q.head + 1; slot < q.next; slot++ {
			_, prev := q.at(slot - 1)
			if _, k := q.at(slot); prev.after(k.time, k.seq) {
				t.Fatalf("run out of order at slot %d (slots %d..%d)", slot, q.head, q.next)
			}
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

// TestQueueModel: seeded random interleavings of every mutating call,
// checked against the sorted-slice reference after each one. The walk
// moves through phases that favour different calls, each drawing its
// routes either mostly from a few or mostly from the whole pool, so
// that each run/heap transition and each way the route table serves a
// push is reached many times; the counters at the end say that every
// one was.
func TestQueueModel(t *testing.T) {
	const (
		opPushNext = iota // at or after the latest time pushed: extends a run
		opPushAny         // a random time: usually out of order
		opRepush          // PushStamped of the most recently popped events
		opPop
		opPopMatching
		opPopBatch
		opSnapshot
		opReset
		nOps
	)
	phases := []struct {
		weights [nOps]int
		steps   int
	}{
		// An in-order burst.
		{[nOps]int{opPushNext: 10}, 150},
		// A run that never empties.
		{[nOps]int{opPushNext: 10, opPop: 9, opPopMatching: 3, opSnapshot: 1}, 150},
		// A timer chain: a run that never empties and never heaps, long
		// enough for its head to pass chunks.
		{[nOps]int{opPushNext: 11, opPop: 10}, 1500},
		// A drain.
		{[nOps]int{opPop: 10, opPopMatching: 2, opPopBatch: 1}, 150},
		// Speculate and roll back.
		{[nOps]int{opPushNext: 6, opPop: 4, opRepush: 1}, 150},
		// Interleaved sources.
		{[nOps]int{opPushAny: 6, opPop: 5, opPopMatching: 2, opPopBatch: 1}, 150},
		// Everything.
		{[nOps]int{opPushNext: 4, opPushAny: 1, opRepush: 1, opPop: 4, opPopMatching: 2, opPopBatch: 1, opSnapshot: 1, opReset: 1}, 150},
	}
	var seen struct {
		lateWithPrefix int // out-of-order push into a run whose head had advanced
		midRun         int // PopMatching took an event from inside a run
		repushOlder    int // rollback re-push of keys older than the run's tail
		passed         int // a run's head left a chunk and the chunk was dropped
		rebased        int // ... and the chunk table was rebased
		heapEmptied    int // a heap emptied and the queue was a run again
	}
	m := &model{t: t} // one model, so its route counters span the seeds
	for seed := int64(1); seed <= 12; seed++ {
		q := new(Queue)
		m.rng = rand.New(rand.NewSource(seed))
		var (
			clock  vtime.Time // latest time pushed in order
			popped []Event    // most recent last, as a rollback journal holds them
		)
		took := func(got, want Event) {
			t.Helper()
			m.removed(got, want)
			popped = append(popped, got)
		}
		var weights [nOps]int
		for step, left := 0, 0; step < 6000; step, left = step+1, left-1 {
			if left == 0 {
				ph := phases[m.rng.Intn(len(phases))]
				weights, left = ph.weights, ph.steps
				m.cold = []int{5, 90}[m.rng.Intn(2)]
			}
			total := 0
			for _, w := range weights {
				total += w
			}
			op, pick := 0, m.rng.Intn(total)
			for pick >= weights[op] {
				pick -= weights[op]
				op++
			}
			if len(m.live) > 400 && op <= opRepush {
				op = opPop
			}
			wasHeap, head, hadRoutes := q.heap, q.head, len(q.routes)
			switch op {
			case opPushNext:
				clock += vtime.Time(m.rng.Intn(3))
				m.pushAt(q, clock)
			case opPushAny:
				m.pushAt(q, vtime.Time(m.rng.Int63n(int64(clock)+1)))
				if !wasHeap && q.heap && head > 0 {
					seen.lateWithPrefix++
				}
			case opRepush:
				n := min(len(popped), 1+m.rng.Intn(8))
				for _, e := range popped[len(popped)-n:] {
					if !q.heap && q.Len() > 0 && e.Before(m.sorted()[len(m.live)-1]) {
						seen.repushOlder++
					}
					m.pushed(q, route{e.Component, e.Port, e.Net, e.Source}, func() { q.PushStamped(e) })
					m.live = append(m.live, e)
				}
				popped = popped[:len(popped)-n]
			case opPop:
				got, ok := q.Pop()
				if ok != (len(m.live) > 0) {
					t.Fatalf("seed %d step %d: Pop ok=%v with %d live", seed, step, ok, len(m.live))
				}
				if ok {
					took(got, m.sorted()[0])
					if !wasHeap && q.Len() > 0 && head > chunkRows && head%chunkRows == chunkRows-1 {
						seen.passed++
						if q.head < head {
							seen.rebased++
						}
					}
				}
			case opPopMatching:
				filter := acrossPorts[m.rng.Intn(len(acrossPorts)):][:1]
				want, any := m.minMatching(filter)
				if at := q.minMatching(filter); !q.heap && at > int(q.head) {
					seen.midRun++
				}
				at, seq, peeked := q.MinMatching(filter)
				var got Event
				ok := q.PopMatching(filter, &got)
				if ok != any || peeked != any || (ok && (at != got.Time || seq != got.Seq)) {
					t.Fatalf("seed %d step %d: PopMatching = %+v %v after MinMatching @%v seq %d %v, reference %+v %v", seed, step, got, ok, at, seq, peeked, want, any)
				}
				if ok {
					took(got, want)
				}
			case opPopBatch:
				ref := m.sorted()
				cut, max := clock-vtime.Time(m.rng.Intn(20)), m.rng.Intn(12)
				n := 0
				for n < len(ref) && ref[n].Time <= cut && (max == 0 || n < max) {
					n++
				}
				got := q.PopBatch(cut, max, nil)
				if !slices.Equal(got, ref[:n]) {
					t.Fatalf("seed %d step %d: PopBatch(%v, %d) returned %d events, reference %d (or they differ)", seed, step, cut, max, len(got), n)
				}
				for i := range got {
					took(got[i], ref[i])
				}
			case opSnapshot:
				if snap := q.Snapshot(); !slices.Equal(snap, m.sorted()) {
					t.Fatalf("seed %d step %d: snapshot of %d events differs from the reference", seed, step, len(snap))
				}
			case opReset:
				q.Reset()
				m.live = nil
			}
			if wasHeap && q.Len() == 0 {
				seen.heapEmptied++
			}
			m.emptied(q, hadRoutes)
			if q.Len() != len(m.live) {
				t.Fatalf("seed %d step %d op %d: Len %d, reference %d", seed, step, op, q.Len(), len(m.live))
			}
			want := vtime.Infinity
			if len(m.live) > 0 {
				want = m.sorted()[0].Time
			}
			if q.NextTime() != want {
				t.Fatalf("seed %d step %d op %d: NextTime %v, reference %v", seed, step, op, q.NextTime(), want)
			}
			checkShape(t, q)
		}
		m.popAll(q)
		checkShape(t, q)
	}
	if seen.lateWithPrefix == 0 || seen.midRun == 0 || seen.repushOlder == 0 ||
		seen.passed == 0 || seen.rebased == 0 || seen.heapEmptied == 0 {
		t.Fatalf("a transition was never reached: %+v", seen)
	}
	if r := m.routes; r.lastHit == 0 || r.tableHit == 0 || r.miss == 0 || r.rebuilt == 0 || r.reset == 0 {
		t.Fatalf("the route table never served a push one way: %+v", r)
	}
	t.Logf("transitions reached: %+v; route table: %+v", seen, m.routes)
}

// TestRunNeverEmptiesStaysSmall: a queue that is pushed and popped in
// order for ever without emptying — a component that always has its
// next timer pending — stays a run, and dropping the chunks its head
// passes and rebasing the chunk table keep its row store and the table
// proportional to its depth, not to its history: at most the chunks
// the live slots span, and a table at most twice that long.
func TestRunNeverEmptiesStaysSmall(t *testing.T) {
	for _, depth := range []int{100, 1000} {
		var q Queue
		spans := (depth+chunkRows-1)/chunkRows + 1 // the most chunks depth+1 slots can touch
		for i := 0; i < 200_000; i++ {
			q.Push(Event{Time: vtime.Time(i)})
			if q.Len() > depth {
				if e := mustPop(t, &q); e.Time != vtime.Time(i-depth) {
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
		}
		checkShape(t, &q)
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
