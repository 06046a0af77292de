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

// checkShape asserts what the columns must look like whichever reading
// is current: a run is sorted from its cursor, a heap starts at 0 and
// every position orders at or after its parent, an empty queue is an
// empty run, every live row's route is in the table, and a table small
// enough to be searched whole holds each route once.
func checkShape(t *testing.T, q *Queue) {
	t.Helper()
	if q.Len() == 0 {
		if q.heap || q.head != 0 || len(q.times) != 0 {
			t.Fatalf("empty queue is not an empty run: heap %v, head %d, %d positions", q.heap, q.head, len(q.times))
		}
		return
	}
	for _, slot := range q.rows[q.head:] {
		if link := q.row(slot).link; link < 0 || int(link) >= len(q.routes) {
			t.Fatalf("row %d holds route %d of %d", slot, link, len(q.routes))
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
		for i := q.head + 1; i < len(q.times); i++ {
			if q.less(i, i-1) {
				t.Fatalf("run out of order at position %d (head %d)", i, q.head)
			}
		}
		return
	}
	if q.head != 0 {
		t.Fatalf("heap with head %d", q.head)
	}
	for i := 1; i < len(q.times); i++ {
		if q.less(i, (i-1)/2) {
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
	phases := [][nOps]int{
		// An in-order burst.
		{opPushNext: 10},
		// A run that never empties.
		{opPushNext: 10, opPop: 9, opPopMatching: 3, opSnapshot: 1},
		// A drain.
		{opPop: 10, opPopMatching: 2, opPopBatch: 1},
		// Speculate and roll back.
		{opPushNext: 6, opPop: 4, opRepush: 1},
		// Interleaved sources.
		{opPushAny: 6, opPop: 5, opPopMatching: 2, opPopBatch: 1},
		// Everything.
		{opPushNext: 4, opPushAny: 1, opRepush: 1, opPop: 4, opPopMatching: 2, opPopBatch: 1, opSnapshot: 1, opReset: 1},
	}
	var seen struct {
		lateWithPrefix int // out-of-order push into a run whose head had advanced
		midRun         int // PopMatching took an event from inside a run
		repushOlder    int // rollback re-push of keys older than the run's tail
		reclaimed      int // a pop copied the live run down over its popped prefix
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
		for step := 0; step < 6000; step++ {
			if step%150 == 0 {
				weights = phases[m.rng.Intn(len(phases))]
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
					if !wasHeap && head > 0 && q.head == 0 && q.Len() > 0 {
						seen.reclaimed++
					}
				}
			case opPopMatching:
				filter := acrossPorts[m.rng.Intn(len(acrossPorts)):][:1]
				want, any := m.minMatching(filter)
				if at := q.minMatching(filter); !q.heap && at > q.head {
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
	if seen.lateWithPrefix == 0 || seen.midRun == 0 || seen.repushOlder == 0 || seen.reclaimed == 0 || seen.heapEmptied == 0 {
		t.Fatalf("a transition was never reached: %+v", seen)
	}
	if r := m.routes; r.lastHit == 0 || r.tableHit == 0 || r.miss == 0 || r.rebuilt == 0 || r.reset == 0 {
		t.Fatalf("the route table never served a push one way: %+v", r)
	}
	t.Logf("transitions reached: %+v; route table: %+v", seen, m.routes)
}

// TestRunNeverEmptiesStaysSmall: a queue that is pushed and popped in
// order for ever without emptying — a component that always has its
// next timer pending — stays a run, and reclaiming the popped prefix
// keeps its columns and its row store proportional to its depth, not
// to its history.
func TestRunNeverEmptiesStaysSmall(t *testing.T) {
	const depth = 100
	var q Queue
	for i := 0; i < 200_000; i++ {
		q.Push(Event{Time: vtime.Time(i)})
		if q.Len() > depth {
			if e := mustPop(t, &q); e.Time != vtime.Time(i-depth) {
				t.Fatalf("popped time %v at push %d", e.Time, i)
			}
		}
		if q.heap {
			t.Fatalf("in-order traffic entered the heap at push %d", i)
		}
	}
	// A prefix is reclaimed once it passes the live run, so at most
	// 2*depth+1 positions are ever in use; append may have doubled past
	// that once.
	if c := cap(q.times); c > 8*depth {
		t.Fatalf("columns grew to %d positions for a depth of %d", c, depth)
	}
	if q.next > depth+1 || len(q.rest) != 0 {
		t.Fatalf("row store grew to %d slots, %d extra chunks for a depth of %d", q.next, len(q.rest), depth)
	}
}

// TestInOrderBurstNeverHeaps: one page load into an inbox — pushes in
// (Time, Seq) order with ties, then a drain — is served by the run from
// its first push to its last pop.
func TestInOrderBurstNeverHeaps(t *testing.T) {
	const n = 16_384
	var q Queue
	for i := 0; i < n; i++ {
		q.Push(Event{Time: vtime.Time(i / 4), Kind: KindNet, Port: "dma"})
		if q.heap {
			t.Fatalf("push %d entered the heap", i)
		}
	}
	for i := 0; i < n; i++ {
		if q.heap {
			t.Fatalf("pop %d found a heap", i)
		}
		if e := mustPop(t, &q); e.Time != vtime.Time(i/4) || e.Seq != uint64(i+1) {
			t.Fatalf("pop %d returned time %v seq %d", i, e.Time, e.Seq)
		}
	}
	checkShape(t, &q)
}
