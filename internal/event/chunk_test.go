package event

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/vtime"
)

// The testing/quick properties in event_test.go generate at most 50
// elements, so none of them ever leaves the first row-store chunk.
// These are their explicit large-n versions: two thousand live rows
// (four chunks), random times, and pops interleaved with the
// pushes so recycled slots are scattered over every chunk.

const (
	acrossRows  = 2000
	acrossTimes = 64 // few distinct times: most orderings are Seq ties
)

var acrossPorts = []string{"a", "b", "c"}

// routePool is the routing tuples the model draws from: every port of
// acrossPorts from each of 40 sources, several times what a push
// searches (MaxLinks), so a walk that draws from all of it outruns the
// route table's search and, at a shallow depth, its rebuild threshold.
var routePool = func() (pool []route) {
	for src := 0; src < 40; src++ {
		for _, port := range acrossPorts {
			pool = append(pool, route{component: "comp", port: port, net: "net-" + port, source: "src" + strconv.Itoa(src)})
		}
	}
	return pool
}()

// model is the reference the queue is checked against: the live events
// in push order, each tagged (Value) with a unique id so a row handed
// back with the wrong payload is caught, and each on a routing tuple
// drawn from routePool so a row handed back with the wrong route is.
type model struct {
	t    *testing.T
	rng  *rand.Rand
	live []Event
	id   int

	// cold is the share of pushes (percent) that draw their route from
	// the whole pool; of the rest half repeat the previous push's route
	// and half draw from the first four.
	cold int
	prev route
	kind Kind // of every push

	// How the route table served the pushes, read off the queue's state
	// around each one.
	routes struct{ lastHit, tableHit, miss, rebuilt, reset int }
}

func (m *model) push(q *Queue) {
	m.pushAt(q, vtime.Time(m.rng.Intn(acrossTimes)))
}

// pushAt pushes an event at time at on a drawn route.
func (m *model) pushAt(q *Queue, at vtime.Time) {
	switch pick := m.rng.Intn(100); {
	case pick < m.cold || m.id == 0:
		m.prev = routePool[m.rng.Intn(len(routePool))]
	case (pick-m.cold)%2 == 0:
		m.prev = routePool[m.rng.Intn(4)]
	}
	m.pushOn(q, at, m.prev)
}

// pushOn pushes an event of the model's kind at time at on route r.
func (m *model) pushOn(q *Queue, at vtime.Time, r route) {
	m.prev = r
	r.kind = m.kind
	e := Event{
		Time: at, Kind: m.kind,
		Component: r.component, Port: r.port, Net: r.net, Source: r.source,
		Value: m.id,
	}
	m.id++
	m.pushed(q, r, func() { e.Seq = q.Push(e) })
	m.live = append(m.live, e)
}

// pushed runs one push of an event routed r and counts how the route
// table served it: a push into an empty queue starts the table over.
func (m *model) pushed(q *Queue, r route, push func()) {
	n, empty := len(q.routes.keys), q.Len() == 0
	wasLast := n > 0 && q.routes.keys[q.routes.last] == r
	push()
	switch after := len(q.routes.keys); {
	case empty:
		if after != 1 {
			m.t.Fatalf("a push into an empty queue left %d routes", after)
		}
		if n > 0 {
			m.routes.reset++
		}
	case wasLast:
		m.routes.lastHit++
	case after == n:
		m.routes.tableHit++
	default:
		m.routes.miss++
		if after < n {
			// A rebuild leaves at most one route per live row, under
			// half of what it had.
			m.routes.rebuilt++
		}
	}
	if got := q.routes.Key(q.routes.last); got != r {
		m.t.Fatalf("push routed %+v left %+v as the last route", r, got)
	}
}

// sorted returns the live events in delivery order.
func (m *model) sorted() []Event {
	out := slices.Clone(m.live)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// removed records that the queue handed back got, which must be want
// in every field (the model's values are ints, so Event's == is
// defined).
func (m *model) removed(got, want Event) {
	m.t.Helper()
	if got != want {
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
				var got Event
				q.popMatching([]string{"b"}, &got)
				m.removed(got, want)
			}
		}
	}
	if q.Len() != n {
		m.t.Fatalf("after fill: Len %d, want %d", q.Len(), n)
	}
}

// minMatching is the reference for a filtered pop: a linear scan
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
		at, tm := q.MinMatching(q.onPorts(filter))
		if (at >= 0) != any || (any && tm != want.Time) {
			t.Fatalf("MinMatching = position %d @%v, reference %+v %v", at, tm, want, any)
		}
		if !any {
			break
		}
		var popped Event
		q.popAt(at, &popped)
		m.removed(popped, want)
	}
	if q.popMatching(filter, new(Event)) {
		t.Fatal("popMatching matched after MinMatching reported none")
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
	got := q.PopBatch(cut, 0, nil)
	ref := m.sorted()
	n := sort.Search(len(ref), func(i int) bool { return ref[i].Time > cut })
	if !slices.Equal(got, ref[:n]) {
		t.Fatalf("PopBatch(%d) returned %d events, reference has %d (or they differ)", cut, len(got), n)
	}
	m.live = slices.Clone(ref[n:])
	if t0 := q.NextTime(); t0 <= cut {
		t.Fatalf("head at %v left behind by PopBatch(%d)", t0, cut)
	}
	m.popAll(q)
}

func TestSnapshotAcrossChunks(t *testing.T) {
	q, m := filled(t, 5)
	if snap := q.snapshot(); !slices.Equal(snap, m.sorted()) {
		t.Fatalf("snapshot of %d events differs from the reference", len(snap))
	}
	// The queue is undisturbed: it still accepts pushes and pops in
	// reference order.
	m.push(q)
	m.popAll(q)
}

// TestEmptyingPathsReleaseAlike: whichever call takes the last event
// out leaves the queue in the same state — one chunk, row allocation
// restarted, no burst-sized column kept, the sequence counter still
// monotone — and the next push starts the route table over, keeping
// nothing of what it held: a refill after it orders correctly.
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
				q.popMatching(acrossPorts, new(Event))
			}
		}},
		{"PopBatch", func(q *Queue) {
			var buf []Event
			for q.Len() > 0 {
				buf = q.PopBatch(vtime.Infinity, 100, buf)
			}
		}},
		{"PopBatchAll", func(q *Queue) { q.PopBatch(vtime.Infinity, 0, nil) }},
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
			if q.heap || q.head != 0 {
				t.Fatalf("not an empty run: heap %v, head %d", q.heap, q.head)
			}
			if len(q.first) > chunkRows {
				t.Fatalf("burst-sized first chunk kept: %d rows", len(q.first))
			}
			if len(q.spans) != 0 || q.spanHead != 0 || cap(q.spans) > chunkRows {
				t.Fatalf("run keys kept: spans %d..%d, room for %d", q.spanHead, len(q.spans), cap(q.spans))
			}
			if c := q.cols; c != nil && (len(c.times) != 0 || len(c.links) != 0 ||
				cap(c.times) > chunkRows || cap(c.seqs) > chunkRows || cap(c.rows) > chunkRows || cap(c.links) > chunkRows) {
				t.Fatalf("heap columns kept: %d positions, %d links, room for %d/%d/%d/%d",
					len(c.times), len(c.links), cap(c.times), cap(c.seqs), cap(c.rows), cap(c.links))
			}
			for i, r := range q.first {
				if r != nil {
					t.Fatalf("row %d of the kept chunk still holds %+v", i, r)
				}
			}
			m.live = nil
			m.push(q)
			if got := m.live[0].Seq; got <= lastSeq {
				t.Fatalf("sequence counter went back: %d after %d", got, lastSeq)
			}
			if len(q.routes.keys) != 1 || cap(q.routes.keys) > chunkRows {
				t.Fatalf("route table kept: %d routes, room for %d", len(q.routes.keys), cap(q.routes.keys))
			}
			for i, r := range q.routes.keys[1:cap(q.routes.keys)] {
				if r != (route{}) {
					t.Fatalf("route %d of the restarted table still holds %+v", i+1, r)
				}
			}
			m.fill(q, 600)
			m.popAll(q)
		})
	}
}

// TestQueueBurstAllocs is the guard behind BenchmarkQueueBurst: one
// page load into a zero Queue costs one allocation per chunk plus the
// logarithmic growth of the chunk table and of the first chunk's rows —
// no ordering column, no key per event, never a re-copy of the rows —
// and once drained the queue keeps at most one chunk. The burst is
// evenly spaced on one route, so its keys are one span: at its peak it
// holds its rows, at most one chunk more and that span, and in all it
// allocates 16 bytes an event and the first chunk's growth, which is
// under three chunks' worth.
func TestQueueBurstAllocs(t *testing.T) {
	const (
		chunks = (burstLen + chunkRows - 1) / chunkRows
		slack  = 24 // ~10 growths of the first chunk's rows, ~5 of the chunk table, the route table, the span
	)
	if size := unsafe.Sizeof(*new(Queue).at(0)); size != 16 {
		t.Fatalf("a row is %d bytes, want 16", size)
	}
	var q *Queue
	allocs := testing.AllocsPerRun(5, func() {
		q = new(Queue)
		burst(q, burstLen)
	})
	if allocs > chunks+slack {
		t.Fatalf("burst of %d costs %.0f allocations, want <= %d chunks + %d", burstLen, allocs, chunks, slack)
	}
	if len(q.rest) != 0 || len(q.first) > chunkRows || q.cols != nil {
		t.Fatalf("drained queue keeps %d extra chunks, %d first-chunk rows, heap columns %v",
			len(q.rest), len(q.first), q.cols != nil)
	}

	// At the peak: every event pushed, none popped.
	const cold = 16_384
	q = new(Queue)
	for i := 0; i < cold; i++ {
		q.Push(Event{Time: vtime.Time(i), Kind: KindNet, Port: "dma", Net: "dma"})
	}
	row := unsafe.Sizeof(any(nil))
	held := uintptr(cap(q.first)) * row
	for _, c := range q.rest {
		if c != nil {
			held += unsafe.Sizeof(*c)
		}
	}
	if live := cold * row; held > live+unsafe.Sizeof(chunk{}) || len(q.spans) != 1 || q.heap || q.cols != nil {
		t.Fatalf("a cold burst of %d holds %d bytes of rows and %d spans (heap %v), want <= %d live and one chunk, one span",
			cold, held, len(q.spans), q.heap, live)
	}

	if raceBuild {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst(new(Queue), cold)
	runtime.ReadMemStats(&after)
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(cold*row+3*unsafe.Sizeof(chunk{})); got > want {
		t.Fatalf("cold burst of %d allocates %d bytes, %.1f an event, want <= %d", cold, got, float64(got)/cold, want)
	}
}

// TestChunkFillsItsSizeClass: a chunk is a pointerful object past 512
// bytes, so the allocator puts an 8-byte header before it and rounds
// the sum up to a size class. chunkRows is the most rows whose chunk
// fits the 10 240-byte class: one more row and the chunk spills into
// the 10 880-byte class, 640 bytes of it never used.
func TestChunkFillsItsSizeClass(t *testing.T) {
	const class, header = 10240, 8
	size := unsafe.Sizeof(chunk{})
	if size+header > class || size+header+unsafe.Sizeof(any(nil)) <= class {
		t.Fatalf("a %d-row chunk is %d bytes: it does not fill the %d-byte class", chunkRows, size, class)
	}
	if raceBuild {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sink = new(chunk)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != class {
		t.Fatalf("a chunk allocates %d bytes, want the %d-byte class", got, class)
	}
	sink = nil
}

var sink *chunk
