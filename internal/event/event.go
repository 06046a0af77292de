// Package event provides timestamped simulation events and the
// deterministic priority queue the Pia subsystem scheduler is built
// on.
//
// Every observable action in a Pia simulation — a net changing value,
// a timer firing, a message crossing a channel — is an Event. Events
// are ordered by (Time, Seq): the sequence number is assigned at
// enqueue time, so two events scheduled for the same instant are
// delivered in the order they were produced. That tie-break is what
// makes whole-simulation runs reproducible bit-for-bit.
//
// An event is stored as a row and a key. A row is the value alone, 16
// bytes: it stays an `any` because Event, core.Msg and the drive hooks
// are `any` on the public surface, and it is the only pointer pair the
// collector walks in the row store. The rest of an event is its key:
// the (Time, Seq) pair, the kind and an index into the queue's route
// table, all pointer-free. The routing tuple (Component, Port, Net,
// Source) is topology, not data — an inbox sees a handful of distinct
// ones for the life of a design — so each distinct tuple is stored once
// and a push that repeats the previous push's tuple, the shape of every
// burst, finds it without a search. The table is bounded whatever a
// peer sends (see maxRoutes).
//
// The queue is read in one of two ways. It starts as a sorted run:
// while every push orders at or after the one before it — a page
// arriving over a channel, a burst toward one inbox, a timer chain —
// the live events are the row-store slots head..next, a push writes
// slot next and a pop reads slot head and steps past it. A run keeps
// its keys as spans, not one per slot: a span is a stretch of events on
// one route and of one kind, with consecutive sequence numbers and
// evenly spaced times, held as its first event's key, a stride and a
// count. A push that continues the tail span counts itself into it, so
// a burst of drives paced one word time apart is one 32-byte span
// however long it is, and a queued word costs its row and nothing else.
// The first push that orders before the tail, or a pop from inside the
// run (a filtered receive whose earliest match is not the head), turns
// the live range into a binary heap over three contiguous columns —
// times, seqs and slots — with no heapify: a sorted array is a heap,
// because every position's parent sits at a smaller index and so holds a
// smaller key. Each live slot's kind and route move to a column indexed
// by slot, which the sifts never touch. From then until something
// empties the queue the heap's sifts compare and move the three columns
// only (20 bytes a position) and freed slots are recycled through a free
// list; an empty queue is an empty run again.
//
// The row store is chunked, and a row never moves. The first chunk
// grows by append, so a queue that only ever holds a few events pays
// for a few rows; every later chunk is one fixed block of rows, sized to
// its allocator class. A run drops each chunk its head has passed and
// rebases the chunk table once the dropped prefix outweighs the live
// part, so a run that never empties keeps storage proportional to its
// depth; whatever empties the queue releases every chunk but the first.
// Events are copied field by field between the caller's Event and a row
// and its key — there is no per-event heap object to pool or leak.
package event

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/vtime"
)

// Kind classifies an event for dispatch.
type Kind uint8

const (
	// KindNet is a value change on a net, destined for every port
	// connected to the net other than the driver.
	KindNet Kind = iota
	// KindTimer is a component-requested wakeup.
	KindTimer
	// KindControl is a scheduler-internal control action (runlevel
	// switch, checkpoint request, ...) executed at a point in virtual
	// time.
	KindControl
)

func (k Kind) String() string {
	switch k {
	case KindNet:
		return "net"
	case KindTimer:
		return "timer"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is a single scheduled occurrence. Events are plain values:
// they are copied into the queue on Push and copied back out on Pop.
type Event struct {
	Time vtime.Time // when the event takes effect
	Seq  uint64     // enqueue order, breaks Time ties
	Kind Kind

	// Target routing. For KindNet events, Net names the net whose
	// value changed and Component/Port name one receiving port (the
	// scheduler fans a net change out to one Event per listener).
	// For KindTimer, Component names the sleeper.
	Component string
	Port      string
	Net       string

	// Value is the payload (a signal value for net events, nil for
	// timers).
	Value any

	// Source identifies the component that produced the event;
	// empty for external injections.
	Source string
}

// Before reports whether e is ordered strictly before f.
func (e Event) Before(f Event) bool {
	if e.Time != f.Time {
		return e.Time < f.Time
	}
	return e.Seq < f.Seq
}

// String renders a compact description for traces.
func (e Event) String() string {
	switch e.Kind {
	case KindNet:
		return fmt.Sprintf("@%v net %s -> %s.%s = %v", e.Time, e.Net, e.Component, e.Port, e.Value)
	case KindTimer:
		return fmt.Sprintf("@%v timer %s", e.Time, e.Component)
	default:
		return fmt.Sprintf("@%v %s", e.Time, e.Kind)
	}
}

// tag is the part of an event's key that says what and where: its kind
// and the index of its route in the route table.
type tag struct {
	link int32
	kind Kind
}

// key is an event's ordering key.
type key struct {
	time vtime.Time
	seq  uint64
}

// after reports whether k orders strictly after (t, seq).
func (k key) after(t vtime.Time, seq uint64) bool {
	if k.time != t {
		return k.time > t
	}
	return k.seq > seq
}

// span is a run's key for n consecutive slots: events sharing a tag,
// with consecutive sequence numbers and times stride apart. time and seq
// are the first live event's; a pop from the head steps them to the
// next one. While a span keys one event its stride means nothing: the
// next event to join it sets the stride.
type span struct {
	time   vtime.Time
	seq    uint64
	n      int32
	stride int32
	tag
}

// at returns the key of the span's i-th live event.
func (s *span) at(i int32) key {
	return key{s.time + vtime.Time(i)*vtime.Time(s.stride), s.seq + uint64(i)}
}

// extend counts an event keyed (t, seq) with tag g into s when it
// continues it: the same tag, the next sequence number, and — while s
// keys two events or more — the same time step; joining a span of one
// sets the step, if it fits. The caller has checked that (t, seq) does
// not order before s's last event.
func (s *span) extend(t vtime.Time, seq uint64, g tag) bool {
	last := s.at(s.n - 1)
	if s.tag != g || seq != last.seq+1 || s.n == math.MaxInt32 {
		return false
	}
	// t >= last.time, so the unsigned difference is exact.
	switch d := uint64(t) - uint64(last.time); {
	case s.n == 1 && d <= math.MaxInt32:
		s.stride = int32(d)
	case d != uint64(s.stride):
		return false
	}
	s.n++
	return true
}

// route is the topology half of an event, stored once per distinct
// tuple in Queue.routes.
type route struct {
	component, port, net, source string
}

func (r *route) is(component, port, net, source string) bool {
	// Rows of one inbox share the component and mostly the net; the
	// source and the port tell them apart.
	return r.source == source && r.port == port && r.net == net && r.component == component
}

// maxRoutes bounds the route table against traffic it cannot intern:
// Source arrives from a peer's socket. A push looks no further back
// than the maxRoutes most recent routes, so it costs the same however
// many distinct tuples a peer invents, and a table that has reached
// maxRoutes is rebuilt from the live events once it is also more than
// twice their number (it cannot be smaller than the distinct routes
// they hold). A table of up to maxRoutes routes is searched whole and
// so never holds a tuple twice.
const maxRoutes = 32

// chunkRows is the number of slots in a chunk, and what the first
// chunk grows to: slot s lives in the first chunk when s < chunkRows
// and in chunk s/chunkRows of the store, rest[s/chunkRows-1], at
// s%chunkRows otherwise.
const chunkRows = 639

// chunk is one fixed block of the row store. 639 rows of 16 bytes, with
// the 8-byte header the allocator puts before a pointerful object this
// large, fill the 10 240-byte size class (TestChunkFillsItsSizeClass);
// 640 would spill into the 10 880-byte one.
type chunk [chunkRows]any

// columns is the heap: three parallel columns, a binary heap by
// position ordered by (times, seqs), rows naming each position's slot.
// tags is indexed by slot, not position: a live slot's tag, and a free
// slot's link in the free list (1 + the next free slot, 0 at the end).
type columns struct {
	times []vtime.Time
	seqs  []uint64
	rows  []int32
	tags  []tag
}

// Queue is a priority queue of events ordered by (Time, Seq).
// The zero value is ready to use. Queue is not safe for concurrent
// use; the subsystem scheduler owns it.
type Queue struct {
	// Row store, chunked so rows never move: the first chunk (first,
	// grown by append up to chunkRows) and then fixed chunks, nil once a
	// run's head has passed them. next is the first slot never handed
	// out since the queue was last empty. While the queue is a run (heap
	// false) its live events are the slots head..next in order, keyed by
	// spans[spanHead:] in the same order. Once it is a heap, cols holds
	// their keys and free heads the list of recycled slots (1 + slot, 0
	// when there is none). A queue that becomes empty restarts at slot 0
	// as an empty run and keeps only the first chunk (see release).
	first    []any
	rest     []*chunk
	spans    []span
	head     int32
	next     int32
	free     int32
	spanHead int32

	// lastRoute is the route the most recent push used; routes is the
	// table it indexes. The table is emptied with the queue (release)
	// and rebuilt from the live events when it outgrows them (maxRoutes).
	lastRoute int32
	heap      bool
	routes    []route

	// cols is the heap while heap is true, and empty otherwise. It is
	// a pointer, nil until the queue first becomes a heap: most inboxes
	// never do, and every component embeds one.
	cols *columns

	seq uint64
}

// at returns the row at slot.
func (q *Queue) at(slot int32) *any {
	if slot < chunkRows {
		return &q.first[slot]
	}
	s := uint32(slot)
	return &q.rest[s/chunkRows-1][s%chunkRows]
}

// Len returns the number of pending events.
func (q *Queue) Len() int {
	if q.heap {
		return len(q.cols.times)
	}
	return int(q.next - q.head)
}

func (c *columns) less(i, j int) bool {
	if c.times[i] != c.times[j] {
		return c.times[i] < c.times[j]
	}
	return c.seqs[i] < c.seqs[j]
}

func (c *columns) swap(i, j int) {
	c.times[i], c.times[j] = c.times[j], c.times[i]
	c.seqs[i], c.seqs[j] = c.seqs[j], c.seqs[i]
	c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
}

func (c *columns) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *columns) down(i int) {
	n := len(c.times)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && c.less(r, l) {
			m = r
		}
		if !c.less(m, i) {
			return
		}
		c.swap(i, m)
		i = m
	}
}

// grow doubles a full column that has reached one chunk's worth. Past
// 256 elements append grows by a quarter, which re-copies a deep column
// some twenty times; below that it already doubles.
func grow[T any](col []T) []T {
	if n := len(col); n == cap(col) && n >= chunkRows {
		return slices.Grow(col, n)
	}
	return col
}

func (c *columns) push(t vtime.Time, seq uint64, slot int32) {
	c.times = append(grow(c.times), t)
	c.seqs = append(grow(c.seqs), seq)
	c.rows = append(grow(c.rows), slot)
	c.up(len(c.times) - 1)
}

// remove drops position i: the last leaf takes its place and is sifted.
func (c *columns) remove(i int) {
	n := len(c.times) - 1
	c.swap(i, n)
	c.times, c.seqs, c.rows = c.times[:n], c.seqs[:n], c.rows[:n]
	if i < n {
		c.down(i)
		c.up(i)
	}
}

// claim hands out slot next, adding the storage it lives in.
func (q *Queue) claim() int32 {
	slot := q.next
	q.next++
	switch {
	case slot < chunkRows:
		// The first chunk keeps its rows across a release; grow it only
		// when this queue has never been this deep.
		if int(slot) == len(q.first) {
			q.first = extend(q.first)
		}
	case slot%chunkRows == 0:
		q.rest = append(q.rest, new(chunk))
	}
	return slot
}

// extend appends one zero element to the first chunk: by append's own
// growth while that stays within one chunk, and to exactly chunkRows on
// the growth that would pass it.
func extend(s []any) []any {
	if n := len(s); n == cap(s) && 2*n > chunkRows {
		s = append(make([]any, 0, chunkRows), s...)
	}
	return append(s, nil)
}

// intern returns the route table's index for the tuple, adding it when
// the search (see maxRoutes) does not find it.
func (q *Queue) intern(component, port, net, source string) int32 {
	n := len(q.routes)
	if n > 0 && q.routes[q.lastRoute].is(component, port, net, source) {
		return q.lastRoute
	}
	for i := n - 1; i >= max(0, n-maxRoutes); i-- {
		if q.routes[i].is(component, port, net, source) {
			q.lastRoute = int32(i)
			return q.lastRoute
		}
	}
	if n >= maxRoutes && n > 2*q.Len() {
		// A live event may hold the tuple at an index the bounded search
		// above did not reach; the rebuilt table is searched whole.
		q.rebuildRoutes()
		return q.intern(component, port, net, source)
	}
	q.lastRoute = int32(len(q.routes))
	q.routes = append(q.routes, route{component, port, net, source})
	return q.lastRoute
}

// rebuildRoutes re-interns the live tags — a run's spans, a heap's live
// slots — into an empty table, dropping every route none of them holds
// any more. The new table has at most one route per live event, which
// is below the size that asks for a rebuild, so the interning does not
// re-enter.
func (q *Queue) rebuildRoutes() {
	old := q.routes
	q.routes = nil
	relink := func(g *tag) {
		r := &old[g.link]
		g.link = q.intern(r.component, r.port, r.net, r.source)
	}
	if q.heap {
		for _, slot := range q.cols.rows {
			relink(&q.cols.tags[slot])
		}
		return
	}
	for i := range q.spans[q.spanHead:] {
		relink(&q.spans[int(q.spanHead)+i].tag)
	}
}

// push stores an event keyed (t, seq): at the tail of a run when it
// orders there — in the tail span when it continues it — and into the
// heap otherwise. The route is interned before a slot is claimed, so a
// rebuild it triggers sees only live events.
func (q *Queue) push(t vtime.Time, seq uint64, e *Event) {
	g := tag{q.intern(e.Component, e.Port, e.Net, e.Source), e.Kind}
	if !q.heap && q.head != q.next {
		if tail := &q.spans[len(q.spans)-1]; tail.at(tail.n-1).after(t, seq) {
			// The first push that orders before the tail: from here
			// until the queue empties it is a heap.
			q.toHeap()
		} else if tail.extend(t, seq, g) {
			*q.at(q.claim()) = e.Value
			return
		}
	}
	if !q.heap {
		q.open(span{time: t, seq: seq, n: 1, tag: g})
		*q.at(q.claim()) = e.Value
		return
	}
	c := q.cols
	var slot int32
	if q.free != 0 {
		slot = q.free - 1
		q.free = c.tags[slot].link
		c.tags[slot] = g
	} else {
		slot = q.claim()
		c.tags = append(c.tags, g) // tags is slot-indexed up to next
	}
	*q.at(slot) = e.Value
	c.push(t, seq, slot)
}

// open appends a span to the run's keys. A full key slice whose dead
// prefix — the spans the head has passed — is at least as long as its
// live part moves the live part down instead of growing: each move
// copies no more spans than were popped since the last, so a run that
// never empties keeps keys proportional to its depth.
func (q *Queue) open(s span) {
	if n := len(q.spans); n == cap(q.spans) && q.spanHead > 0 && 2*int(q.spanHead) >= n {
		q.spans = q.spans[:copy(q.spans, q.spans[q.spanHead:])]
		q.spanHead = 0
	}
	q.spans = append(grow(q.spans), s)
}

// toHeap turns the run into the heap: the run's i-th event becomes
// column position i, which in a sorted range already satisfies the
// heap order, and each span's tag is written to its slots.
func (q *Queue) toHeap() {
	c := q.cols
	if c == nil {
		c = new(columns)
		q.cols = c
	}
	n := q.Len()
	c.times = slices.Grow(c.times[:0], n)
	c.seqs = slices.Grow(c.seqs[:0], n)
	c.rows = slices.Grow(c.rows[:0], n)
	c.tags = slices.Grow(c.tags[:0], int(q.next))[:q.next]
	slot := q.head
	for _, s := range q.spans[q.spanHead:] {
		for i := int32(0); i < s.n; i++ {
			k := s.at(i)
			c.times = append(c.times, k.time)
			c.seqs = append(c.seqs, k.seq)
			c.rows = append(c.rows, slot)
			c.tags[slot] = s.tag
			slot++
		}
	}
	q.spans, q.spanHead = q.spans[:0], 0
	q.heap = true
}

// Push schedules an event, stamping it with the next sequence number,
// which it returns.
func (q *Queue) Push(e Event) uint64 { return q.PushFrom(&e) }

// PushFrom is Push reading the event through a pointer, for a caller
// that pushes one event to many queues; e.Seq is ignored and *e is not
// written.
func (q *Queue) PushFrom(e *Event) uint64 {
	q.seq++
	q.push(e.Time, q.seq, e)
	return q.seq
}

// PushStamped schedules an event that already carries a sequence
// number (used when replaying events captured in a snapshot, so the
// original ordering is preserved).
func (q *Queue) PushStamped(e Event) {
	if e.Seq > q.seq {
		q.seq = e.Seq
	}
	q.push(e.Time, e.Seq, &e)
}

// fill materializes an event from its row and key into e. It fills e
// in place: an Event is 104 bytes against a row's 16, and the drains
// move tens of thousands of them per page load, so the removal paths
// write each one once, straight into its destination.
func (q *Queue) fill(e *Event, value any, k key, g tag) {
	r := &q.routes[g.link]
	e.Time = k.time
	e.Seq = k.seq
	e.Kind = g.kind
	e.Component = r.component
	e.Port = r.port
	e.Net = r.net
	e.Source = r.source
	e.Value = value
}

// popHead removes the run's head into e: a load, a cleared value and a
// step of the head and of its span. A chunk the head leaves, other than
// the first, is dropped (see passed).
func (q *Queue) popHead(e *Event) {
	s, row := &q.spans[q.spanHead], q.at(q.head)
	q.fill(e, *row, s.at(0), s.tag)
	*row = nil
	if s.n--; s.n > 0 {
		s.time += vtime.Time(s.stride)
		s.seq++
	} else {
		q.spanHead++
	}
	q.head++
	switch {
	case q.head == q.next:
		q.release()
	case q.head%chunkRows == 0 && q.head > chunkRows:
		q.passed()
	}
}

// passed drops the chunk the run's head has just left — chunk d of
// the store, rest[d-1], with every chunk before it already dropped —
// and rebases the chunk table once those d dead entries outnumber the
// live ones: the live chunks move to the front and the cursors down by
// d chunks. Each rebase moves fewer entries than it drops, so a run
// that never empties keeps a table proportional to its depth.
func (q *Queue) passed() {
	d := int(q.head/chunkRows) - 1
	q.rest[d-1] = nil
	if live := len(q.rest) - d; d > live {
		n := copy(q.rest, q.rest[d:])
		clear(q.rest[n:])
		q.rest = q.rest[:n]
		q.head -= int32(d * chunkRows)
		q.next -= int32(d * chunkRows)
	}
}

// removeAt extracts the event at heap position i into e, restores the
// heap order and recycles its row slot, clearing the row so it drops
// its reference to the value.
func (q *Queue) removeAt(i int, e *Event) {
	c := q.cols
	slot := c.rows[i]
	row := q.at(slot)
	q.fill(e, *row, key{c.times[i], c.seqs[i]}, c.tags[slot])
	*row = nil
	c.tags[slot].link = q.free
	q.free = slot + 1
	c.remove(i)
	if len(c.times) == 0 {
		q.release()
	}
}

// release is what every path that empties the queue ends in: it is an
// empty run again, row allocation restarts at slot 0, the route table
// is empty, and the chunks past the first — with run keys, heap columns
// and a route table that grew past one chunk's worth — are dropped, so
// a drained burst is not held for the life of the queue while a queue
// that stays small keeps everything it has warmed. The caller has
// already cleared every row of the first chunk it used.
func (q *Queue) release() {
	q.rest = nil
	q.head, q.next, q.free, q.spanHead = 0, 0, 0, 0
	q.heap = false
	if cap(q.spans) > chunkRows {
		q.spans = nil
	} else {
		q.spans = q.spans[:0]
	}
	if cap(q.routes) > chunkRows {
		q.routes = nil
	} else {
		clear(q.routes)
		q.routes = q.routes[:0]
	}
	if c := q.cols; c != nil {
		if cap(c.times) > chunkRows || cap(c.tags) > chunkRows {
			q.cols = nil
		} else {
			c.times, c.seqs, c.rows, c.tags = c.times[:0], c.seqs[:0], c.rows[:0], c.tags[:0]
		}
	}
}

// Pop removes and returns the earliest event; ok is false when empty.
func (q *Queue) Pop() (e Event, ok bool) {
	ok = q.PopInto(&e)
	return e, ok
}

// PopInto is Pop writing the event through a pointer; it reports false,
// leaving *e alone, when the queue is empty.
func (q *Queue) PopInto(e *Event) bool {
	switch {
	case q.heap:
		q.removeAt(0, e)
	case q.head == q.next:
		return false
	default:
		q.popHead(e)
	}
	return true
}

// NextTime returns the time of the earliest pending event, or
// vtime.Infinity when the queue is empty. It reads one key — the
// safe-horizon scan's fast path.
func (q *Queue) NextTime() vtime.Time {
	switch {
	case q.heap:
		return q.cols.times[0]
	case q.head == q.next:
		return vtime.Infinity
	default:
		return q.spans[q.spanHead].time
	}
}

// minMatching returns the position (slot in a run, column in a heap)
// and the key of the earliest event whose Port is in ports; the
// position is -1 when none match. A run is in order and a span has one
// route, so the run's answer is the first event of its first matching
// span; a heap is scanned whole for the (Time, Seq)-minimal match,
// unless its root matches. ports is a receive filter — a handful of
// names — so membership is a linear match too.
func (q *Queue) minMatching(ports []string) (int, key) {
	if !q.heap {
		slot := q.head
		for i := range q.spans[q.spanHead:] {
			s := &q.spans[int(q.spanHead)+i]
			if slices.Contains(ports, q.routes[s.link].port) {
				return int(slot), s.at(0)
			}
			slot += s.n
		}
		return -1, key{}
	}
	c := q.cols
	best := -1
	for i, slot := range c.rows {
		if !slices.Contains(ports, q.routes[c.tags[slot].link].port) {
			continue
		}
		if i == 0 {
			best = 0
			break
		}
		if best < 0 || c.less(i, best) {
			best = i
		}
	}
	if best < 0 {
		return -1, key{}
	}
	return best, key{c.times[best], c.seqs[best]}
}

// MinMatching returns the (Time, Seq) key of the earliest event whose
// Port is in ports, without removing or materializing it; ok is false
// when none match. It is what a filtered receive needs to decide when
// its next delivery is due.
func (q *Queue) MinMatching(ports []string) (t vtime.Time, seq uint64, ok bool) {
	at, k := q.minMatching(ports)
	if at < 0 {
		return vtime.Infinity, 0, false
	}
	return k.time, k.seq, true
}

// PopMatching removes the earliest event whose Port is in ports into
// *e; it reports false, leaving *e alone, when none match.
func (q *Queue) PopMatching(ports []string, e *Event) bool {
	at, _ := q.minMatching(ports)
	if at < 0 {
		return false
	}
	if !q.heap {
		if at == int(q.head) {
			q.popHead(e)
			return true
		}
		// A pop from inside the run: from here until the queue empties
		// it is a heap, in which the run's slot at is position at-head.
		at -= int(q.head)
		q.toHeap()
	}
	q.removeAt(at, e)
	return true
}

// PopBatch removes up to max events (all of them when max <= 0) with
// Time <= t, in order, appending them to buf[:0] and returning it
// (grown as needed). Passing the returned slice back in on the next
// call makes a drain allocation-free in steady state.
func (q *Queue) PopBatch(t vtime.Time, max int, buf []Event) []Event {
	buf = buf[:0]
	for q.Len() > 0 && q.NextTime() <= t {
		if max > 0 && len(buf) >= max {
			break
		}
		buf = append(buf, Event{})
		q.PopInto(&buf[len(buf)-1])
	}
	return buf
}

// Snapshot returns the pending events in delivery order without
// disturbing the queue. Used by the checkpoint machinery.
func (q *Queue) Snapshot() []Event {
	n := q.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	if !q.heap {
		slot := q.head
		for _, s := range q.spans[q.spanHead:] {
			for i := int32(0); i < s.n; i++ {
				out = append(out, Event{})
				q.fill(&out[len(out)-1], *q.at(slot), s.at(i), s.tag)
				slot++
			}
		}
		return out
	}
	// Pop a copy of the heap columns down; the row store is only read.
	c := q.cols
	tmp := columns{times: slices.Clone(c.times), seqs: slices.Clone(c.seqs), rows: slices.Clone(c.rows)}
	for range n {
		slot := tmp.rows[0]
		out = append(out, Event{})
		q.fill(&out[len(out)-1], *q.at(slot), key{tmp.times[0], tmp.seqs[0]}, c.tags[slot])
		tmp.remove(0)
	}
	return out
}

// Reset empties the queue but keeps the sequence counter monotone, so
// new events still order after everything ever scheduled. Every row of
// the first chunk that is not live is already clear, so clearing the
// slots handed out clears exactly the live ones.
func (q *Queue) Reset() {
	clear(q.first[:min(len(q.first), int(q.next))])
	q.release()
}
