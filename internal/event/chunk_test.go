package event

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/vtime"
)

// The testing/quick properties in event_test.go generate at most 50
// elements, so none of them ever leaves the first row-store chunk.
// These are their explicit large-n versions: about a thousand live
// rows (four chunks), random times, and pops interleaved with the
// pushes so recycled slots are scattered over every chunk.

const (
	acrossRows  = 1000
	acrossTimes = 64 // few distinct times: most orderings are Seq ties
)

var acrossPorts = []string{"a", "b", "c"}

// model is the reference the queue is checked against: the live events
// in push order, each tagged (Component) with a unique id so a row
// handed back with the wrong payload is caught.
type model struct {
	t    *testing.T
	rng  *rand.Rand
	live []Event
	id   int
}

func (m *model) push(q *Queue) {
	m.pushAt(q, vtime.Time(m.rng.Intn(acrossTimes)))
}

// pushAt pushes an event at time at on a random port.
func (m *model) pushAt(q *Queue, at vtime.Time) {
	e := Event{
		Time:      at,
		Kind:      KindNet,
		Component: strconv.Itoa(m.id),
		Port:      acrossPorts[m.rng.Intn(len(acrossPorts))],
	}
	m.id++
	e.Seq = q.Push(e)
	m.live = append(m.live, e)
}

// sorted returns the live events in delivery order.
func (m *model) sorted() []Event {
	out := slices.Clone(m.live)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// same compares the fields the model sets (Event holds a func, so ==
// is not available).
func same(a, b Event) bool {
	return a.Time == b.Time && a.Seq == b.Seq && a.Kind == b.Kind &&
		a.Component == b.Component && a.Port == b.Port
}

// removed records that the queue handed back got, which must be want.
func (m *model) removed(got, want Event) {
	m.t.Helper()
	if !same(got, want) {
		m.t.Fatalf("queue returned %+v, reference says %+v", got, want)
	}
	i := slices.IndexFunc(m.live, func(e Event) bool { return e.Seq == want.Seq })
	m.live = slices.Delete(m.live, i, i+1)
}

// popAll pops the queue empty, checking every event against the
// reference order.
func (m *model) popAll(q *Queue) {
	m.t.Helper()
	for _, want := range m.sorted() {
		got, ok := q.Pop()
		if !ok {
			m.t.Fatalf("queue empty with %d events still expected", len(m.live))
		}
		m.removed(got, want)
	}
	if q.Len() != 0 {
		m.t.Fatalf("queue holds %d events the reference does not", q.Len())
	}
}

// fill grows the queue to n live events, popping one for every three
// pushes (alternately the head and the earliest "b") so the free list
// threads through all chunks.
func (m *model) fill(q *Queue, n int) {
	m.t.Helper()
	for step := 0; len(m.live) < n; step++ {
		m.push(q)
		switch step % 6 {
		case 2:
			want, _ := m.minMatching(acrossPorts)
			got, _ := q.Pop()
			m.removed(got, want)
		case 5:
			if want, ok := m.minMatching([]string{"b"}); ok {
				got, _ := q.PopMatching([]string{"b"})
				m.removed(got, want)
			}
		}
	}
	if q.Len() != n {
		m.t.Fatalf("after fill: Len %d, want %d", q.Len(), n)
	}
}

// minMatching is the reference for Queue.MinMatching: a linear scan
// for the (Time, Seq)-minimal live event on one of ports.
func (m *model) minMatching(ports []string) (min Event, ok bool) {
	for _, e := range m.live {
		if slices.Contains(ports, e.Port) && (!ok || e.Before(min)) {
			min, ok = e, true
		}
	}
	return min, ok
}

// filled returns a queue holding acrossRows events spread over at
// least three chunks, with its model.
func filled(t *testing.T, seed int64) (*Queue, *model) {
	t.Helper()
	q, m := new(Queue), &model{t: t, rng: rand.New(rand.NewSource(seed))}
	m.fill(q, acrossRows)
	if len(q.rest) < 2 {
		t.Fatalf("%d rows occupy %d chunks, want >= 3", acrossRows, 1+len(q.rest))
	}
	return q, m
}

func TestQueueSortedAcrossChunks(t *testing.T) {
	q, _ := filled(t, 1)
	prev := Event{Time: -1}
	for q.Len() > 0 {
		e, _ := q.Pop()
		if e.Before(prev) {
			t.Fatalf("popped %+v after %+v", e, prev)
		}
		prev = e
	}
}

func TestStableAgainstSortAcrossChunks(t *testing.T) {
	q, m := filled(t, 2)
	m.popAll(q)
}

func TestMinMatchingAcrossChunks(t *testing.T) {
	q, m := filled(t, 3)
	filter := []string{"a", "c"}
	for {
		want, any := m.minMatching(filter)
		got, ok := q.MinMatching(filter)
		if ok != any || !same(got, want) {
			t.Fatalf("MinMatching = %+v %v, reference %+v %v", got, ok, want, any)
		}
		if !ok {
			break
		}
		popped, _ := q.PopMatching(filter)
		m.removed(popped, want)
	}
	if _, ok := q.PopMatching(filter); ok {
		t.Fatal("PopMatching matched after MinMatching reported none")
	}
	for _, e := range m.live {
		if e.Port != "b" {
			t.Fatalf("reference kept %+v", e)
		}
	}
	m.popAll(q)
}

func TestDrainPartitionAcrossChunks(t *testing.T) {
	q, m := filled(t, 4)
	const cut = acrossTimes / 2
	got := q.DrainInto(cut, nil)
	ref := m.sorted()
	n := sort.Search(len(ref), func(i int) bool { return ref[i].Time > cut })
	if !slices.EqualFunc(got, ref[:n], same) {
		t.Fatalf("DrainInto(%d) returned %d events, reference has %d (or they differ)", cut, len(got), n)
	}
	m.live = slices.Clone(ref[n:])
	if t0 := q.NextTime(); t0 <= cut {
		t.Fatalf("head at %v left behind by DrainInto(%d)", t0, cut)
	}
	m.popAll(q)
}

func TestSnapshotAcrossChunks(t *testing.T) {
	q, m := filled(t, 5)
	if snap := q.Snapshot(); !slices.EqualFunc(snap, m.sorted(), same) {
		t.Fatalf("snapshot of %d events differs from the reference", len(snap))
	}
	// The queue is undisturbed: it still accepts pushes and pops in
	// reference order.
	m.push(q)
	m.popAll(q)
}

func TestDiscardAfterAcrossChunks(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  vtime.Time
	}{
		{"none", acrossTimes},
		{"mixed", acrossTimes / 2},
		{"all", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, m := filled(t, 6)
			ref := m.sorted()
			n := sort.Search(len(ref), func(i int) bool { return ref[i].Time > tc.cut })
			if got := q.DiscardAfter(tc.cut); got != len(ref)-n {
				t.Fatalf("DiscardAfter(%v) removed %d, want %d", tc.cut, got, len(ref)-n)
			}
			m.live = slices.Clone(ref[:n])
			// Discarded rows are reusable, and survivors still order
			// against events pushed afterwards.
			for i := 0; i < 2*chunkRows; i++ {
				m.push(q)
			}
			m.popAll(q)
		})
	}
}

// TestEmptyingPathsReleaseAlike: whichever call takes the last event
// out leaves the queue in the same state — one chunk, row allocation
// restarted, no burst-sized column kept, the sequence counter still
// monotone — and a refill after it orders correctly.
func TestEmptyingPathsReleaseAlike(t *testing.T) {
	paths := []struct {
		name  string
		empty func(q *Queue)
	}{
		{"Pop", func(q *Queue) {
			for q.Len() > 0 {
				q.Pop()
			}
		}},
		{"PopMatching", func(q *Queue) {
			for q.Len() > 0 {
				q.PopMatching(acrossPorts)
			}
		}},
		{"PopBatch", func(q *Queue) {
			var buf []Event
			for q.Len() > 0 {
				buf = q.PopBatch(vtime.Infinity, 100, buf)
			}
		}},
		{"DrainInto", func(q *Queue) { q.DrainInto(vtime.Infinity, nil) }},
		{"DiscardAfter", func(q *Queue) { q.DiscardAfter(-1) }},
		{"Reset", func(q *Queue) { q.Reset() }},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			q, m := filled(t, 7)
			lastSeq := m.live[len(m.live)-1].Seq
			p.empty(q)
			if q.Len() != 0 || q.NextTime() != vtime.Infinity {
				t.Fatalf("not empty: Len %d", q.Len())
			}
			if len(q.rest) != 0 || q.next != 0 || q.free != 0 {
				t.Fatalf("rows not released: %d extra chunks, next %d, free %d", len(q.rest), q.next, q.free)
			}
			if len(q.first) > chunkRows || cap(q.times) > chunkRows || cap(q.seqs) > chunkRows || cap(q.rows) > chunkRows {
				t.Fatalf("burst-sized storage kept: first %d, columns %d/%d/%d", len(q.first), cap(q.times), cap(q.seqs), cap(q.rows))
			}
			for i, r := range q.first {
				if r.component != "" || r.port != "" || r.value != nil || r.exec != nil {
					t.Fatalf("row %d of the kept chunk still holds %+v", i, r)
				}
			}
			m.live = nil
			m.push(q)
			if got := m.live[0].Seq; got <= lastSeq {
				t.Fatalf("sequence counter went back: %d after %d", got, lastSeq)
			}
			m.fill(q, 600)
			m.popAll(q)
		})
	}
}

// TestQueueBurstAllocs is the guard behind BenchmarkQueueBurst: one
// page load into a zero Queue costs one allocation per 256-row chunk
// plus the logarithmic growth of the three heap columns, the chunk
// table and the first chunk — never a re-copy of the rows — and once
// drained the queue keeps at most one chunk.
func TestQueueBurstAllocs(t *testing.T) {
	const (
		chunks = (burstLen + chunkRows - 1) / chunkRows
		slack  = 96 // ~20 growths per column x 3, ~8 each for first and rest
	)
	var q *Queue
	allocs := testing.AllocsPerRun(5, func() {
		q = new(Queue)
		burst(q, burstLen)
	})
	if allocs > chunks+slack {
		t.Fatalf("burst of %d costs %.0f allocations, want <= %d chunks + %d", burstLen, allocs, chunks, slack)
	}
	if len(q.rest) != 0 || len(q.first) > chunkRows || cap(q.times) > chunkRows {
		t.Fatalf("drained queue keeps %d extra chunks, %d first-chunk rows, %d column slots",
			len(q.rest), len(q.first), cap(q.times))
	}
}
