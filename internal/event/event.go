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
// The queue is laid out struct-of-arrays: the ordering is three
// parallel columns — times, seqs and row indices — while the value
// lives in a separate row store addressed by the index column.
// Ordering operations (NextTime, the scheduler's safe-horizon key
// scan, drains) touch only the contiguous time/seq columns; heap swaps
// move 20 bytes instead of whole events; and the row store recycles
// slots through a free list, so a warm queue's steady-state traffic
// allocates nothing.
//
// A row is 24 bytes: the value, the kind and an index into the queue's
// route table. The routing tuple (Component, Port, Net, Source) is
// topology, not data — an inbox sees a handful of distinct ones for
// the life of a design — so each distinct tuple is stored once and a
// push that repeats the previous push's tuple, the shape of every
// burst, finds it without a search. The table is bounded whatever a
// peer sends (see maxRoutes). The value stays an `any` because Event,
// core.Msg and the drive hooks are `any` on the public surface; it is
// the only pointer pair the collector still walks in a row.
//
// The columns are read in one of two ways. A queue starts as a sorted
// run: while every push orders at or after the one before it — a page
// arriving over a channel, a burst toward one inbox, a timer chain —
// a push is an append, the head is a cursor into the run and a pop is
// a load plus cursor++, with no sift. The popped prefix is reclaimed
// (the run copied down to position 0) whenever it outweighs the live
// run, so each reclamation moves fewer positions than were popped
// since the last one and a queue that never empties keeps columns
// proportional to its depth. The first push that orders before its
// predecessor — a rollback re-pushing popped events, two sources
// interleaving — moves the run to position 0 and from then on the same
// columns are a binary heap. No heapify is needed: in a sorted array
// every position's parent sits at a smaller index and so holds a
// smaller key, which is the heap invariant. The queue is a heap until
// something empties it, and an empty queue is an empty run again.
//
// The row store is chunked: rows never move once a queue holds more
// than one chunk, so a cold burst of n events costs about n/256 block
// allocations and no re-copying, and whatever empties the queue
// releases every chunk but the first. Events are copied field by field
// between the caller's Event and a row — there is no per-event heap
// object to pool or leak.
package event

import (
	"fmt"
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

// payload is the row-store half of an event: the value, the kind and
// the route. The (Time, Seq) ordering key lives in the ordering columns
// and the routing strings in the route table.
type payload struct {
	value any
	// link is the row's index in the route table while the row is live.
	// While it is free, link threads the free list through the recycled
	// rows themselves: 1 + the next free slot, 0 at the end.
	link int32
	kind Kind
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
// maxRoutes is rebuilt from the live rows once it is also more than
// twice their number (it cannot be smaller than the distinct routes
// its rows hold). A table of up to maxRoutes routes is searched whole
// and so never holds a tuple twice.
const maxRoutes = 32

// chunkRows is the row-store block size: slot s lives in chunk
// s>>chunkShift at offset s&(chunkRows-1).
const (
	chunkShift = 8
	chunkRows  = 1 << chunkShift
)

// Queue is a priority queue of events ordered by (Time, Seq).
// The zero value is ready to use. Queue is not safe for concurrent
// use; the subsystem scheduler owns it.
type Queue struct {
	// Ordering columns, parallel by position; positions head.. are
	// live. While heap is false they are a sorted run and head is its
	// cursor; once heap is true they are a binary heap and head is 0
	// (see the package comment).
	times []vtime.Time
	seqs  []uint64
	rows  []int32 // row-store slot
	head  int
	heap  bool

	// lastRoute is the route the most recent push used; routes is the
	// table it indexes. The table is emptied with the queue (release)
	// and rebuilt from the live rows when it outgrows them (maxRoutes).
	lastRoute int32
	routes    []route

	// Row store, chunked so rows never move. The first chunk grows by
	// append up to chunkRows, so a queue that only ever holds a few
	// events pays for a few rows; every later chunk is one fixed
	// block. next is the first slot never handed out since the queue
	// was last empty; free heads the list of recycled slots below it
	// (1 + slot, 0 when there is none; see payload.link). A queue that
	// becomes empty restarts at slot 0 and keeps only the first chunk
	// (see release).
	first []payload
	rest  []*[chunkRows]payload
	next  int32
	free  int32

	seq uint64
}

// row returns the row at slot.
func (q *Queue) row(slot int32) *payload {
	if slot < chunkRows {
		return &q.first[slot]
	}
	return &q.rest[slot>>chunkShift-1][slot&(chunkRows-1)]
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.times) - q.head }

func (q *Queue) less(i, j int) bool {
	if q.times[i] != q.times[j] {
		return q.times[i] < q.times[j]
	}
	return q.seqs[i] < q.seqs[j]
}

func (q *Queue) swap(i, j int) {
	q.times[i], q.times[j] = q.times[j], q.times[i]
	q.seqs[i], q.seqs[j] = q.seqs[j], q.seqs[i]
	q.rows[i], q.rows[j] = q.rows[j], q.rows[i]
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.times)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

// alloc claims a row slot and fills it from e.
func (q *Queue) alloc(e *Event) int32 {
	var slot int32
	if q.free != 0 {
		slot = q.free - 1
		q.free = q.row(slot).link
	} else {
		slot = q.next
		q.next++
		switch {
		case slot < chunkRows:
			// The first chunk keeps its rows across a release; grow
			// it only when this queue has never been this deep.
			if int(slot) == len(q.first) {
				q.first = append(q.first, payload{})
			}
		case slot&(chunkRows-1) == 0:
			q.rest = append(q.rest, new([chunkRows]payload))
		}
	}
	p := q.row(slot)
	p.value = e.Value
	p.link = q.intern(e.Component, e.Port, e.Net, e.Source)
	p.kind = e.Kind
	return slot
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
		// A live row may hold the tuple at an index the bounded search
		// above did not reach; the rebuilt table is searched whole.
		q.rebuildRoutes()
		return q.intern(component, port, net, source)
	}
	q.lastRoute = int32(len(q.routes))
	q.routes = append(q.routes, route{component, port, net, source})
	return q.lastRoute
}

// rebuildRoutes re-interns the live rows into an empty table, dropping
// every route no row holds any more. The new table has at most one
// route per live row, which is below the size that asks for a rebuild,
// so the interning does not re-enter.
func (q *Queue) rebuildRoutes() {
	old := q.routes
	q.routes = nil
	for _, slot := range q.rows[q.head:] {
		p := q.row(slot)
		r := &old[p.link]
		p.link = q.intern(r.component, r.port, r.net, r.source)
	}
}

// grow doubles a full ordering column that has reached one chunk's
// worth. Past 256 elements append grows by a quarter, which re-copies a
// cold 16 k burst some twenty times a column; below that it already
// doubles.
func grow[T any](col []T) []T {
	if n := len(col); n == cap(col) && n >= chunkRows {
		return slices.Grow(col, n)
	}
	return col
}

func (q *Queue) pushCols(t vtime.Time, seq uint64, slot int32) {
	n := len(q.times)
	q.times = append(grow(q.times), t)
	q.seqs = append(grow(q.seqs), seq)
	q.rows = append(grow(q.rows), slot)
	switch {
	case q.heap:
		q.up(n)
	case n > q.head && q.less(n, n-1):
		// The first push that does not extend the run: from here until
		// the queue empties the columns are a heap.
		q.compact()
		q.heap = true
		q.up(len(q.times) - 1)
	}
}

// compact moves the live run down to position 0, dropping the popped
// prefix.
func (q *Queue) compact() {
	if q.head == 0 {
		return
	}
	n := copy(q.times, q.times[q.head:])
	copy(q.seqs, q.seqs[q.head:])
	copy(q.rows, q.rows[q.head:])
	q.times, q.seqs, q.rows = q.times[:n], q.seqs[:n], q.rows[:n]
	q.head = 0
}

// Push schedules an event, stamping it with the next sequence number,
// which it returns.
func (q *Queue) Push(e Event) uint64 { return q.PushFrom(&e) }

// PushFrom is Push reading the event through a pointer, for a caller
// that pushes one event to many queues; e.Seq is ignored and *e is not
// written.
func (q *Queue) PushFrom(e *Event) uint64 {
	q.seq++
	q.pushCols(e.Time, q.seq, q.alloc(e))
	return q.seq
}

// PushStamped schedules an event that already carries a sequence
// number (used when replaying events captured in a snapshot, so the
// original ordering is preserved).
func (q *Queue) PushStamped(e Event) {
	if e.Seq > q.seq {
		q.seq = e.Seq
	}
	q.pushCols(e.Time, e.Seq, q.alloc(&e))
}

// load materializes the event at position i into e without
// removing it. It fills e in place: an Event is 104 bytes against a
// row's 24, and the drains move tens of thousands of them per page
// load, so the removal paths write each one once, straight into its
// destination.
func (q *Queue) load(i int, e *Event) {
	p := q.row(q.rows[i])
	r := &q.routes[p.link]
	e.Time = q.times[i]
	e.Seq = q.seqs[i]
	e.Kind = p.kind
	e.Component = r.component
	e.Port = r.port
	e.Net = r.net
	e.Source = r.source
	e.Value = p.value
}

// removeAt extracts the event at position i into e, restores the
// columns' order and recycles its row slot. Off a run the head leaves
// by advancing the cursor, and an event further in by closing the gap
// from the front, which the scan that found it already walked; off a
// heap the last leaf takes its place and is sifted.
func (q *Queue) removeAt(i int, e *Event) {
	q.load(i, e)
	q.recycle(q.rows[i])
	if q.heap {
		n := len(q.times) - 1
		q.swap(i, n)
		q.times, q.seqs, q.rows = q.times[:n], q.seqs[:n], q.rows[:n]
		if i < n {
			q.down(i)
			q.up(i)
		}
	} else {
		if i > q.head {
			copy(q.times[q.head+1:i+1], q.times[q.head:i])
			copy(q.seqs[q.head+1:i+1], q.seqs[q.head:i])
			copy(q.rows[q.head+1:i+1], q.rows[q.head:i])
		}
		q.head++
	}
	switch live := q.Len(); {
	case live == 0:
		q.release()
	case q.head > live:
		// Each compaction copies fewer positions than were popped
		// since the last one, so a queue that never empties keeps
		// columns proportional to its depth for O(1) a pop.
		q.compact()
	}
}

// recycle clears the row at slot, dropping its reference to the value,
// and puts it at the head of the free list.
func (q *Queue) recycle(slot int32) {
	p := q.row(slot)
	p.value = nil
	p.link = q.free
	q.free = slot + 1
}

// release is what every path that empties the queue ends in: the
// columns are an empty run again, row allocation restarts at slot 0,
// the route table is empty, and the chunks past the first — with
// columns and a route table that grew past one chunk's worth — are
// dropped, so a drained burst is not held for the life of the queue
// while a queue that stays small keeps everything it has warmed. The
// caller has already cleared every row of the first chunk it used.
func (q *Queue) release() {
	q.rest = nil
	q.next, q.free = 0, 0
	q.head, q.heap = 0, false
	if cap(q.routes) > chunkRows {
		q.routes = nil
	} else {
		clear(q.routes)
		q.routes = q.routes[:0]
	}
	if cap(q.times) > chunkRows {
		q.times, q.seqs, q.rows = nil, nil, nil
	} else {
		q.times, q.seqs, q.rows = q.times[:0], q.seqs[:0], q.rows[:0]
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
	if q.Len() == 0 {
		return false
	}
	q.removeAt(q.head, e)
	return true
}

// NextTime returns the time of the earliest pending event, or
// vtime.Infinity when the queue is empty. It reads only the head of
// the time column — the safe-horizon scan's fast path.
func (q *Queue) NextTime() vtime.Time {
	if q.Len() == 0 {
		return vtime.Infinity
	}
	return q.times[q.head]
}

// minMatching returns the position of the earliest event whose Port
// is in ports, or -1. It scans the columns linearly: the (Time, Seq)
// pair is a total order, so the minimum over matches is exactly the
// event a sorted walk would find first — and a run is that walk, so
// its first match ends the scan, as does a heap's root. ports is a
// receive filter — a handful of names — so membership is a linear match
// too.
func (q *Queue) minMatching(ports []string) int {
	best := -1
	for i := q.head; i < len(q.times); i++ {
		if !slices.Contains(ports, q.routes[q.row(q.rows[i]).link].port) {
			continue
		}
		if !q.heap || i == 0 {
			return i
		}
		if best < 0 || q.less(i, best) {
			best = i
		}
	}
	return best
}

// MinMatching returns the (Time, Seq) key of the earliest event whose
// Port is in ports, without removing or materializing it; ok is false
// when none match. It is what a filtered receive needs to decide when
// its next delivery is due.
func (q *Queue) MinMatching(ports []string) (t vtime.Time, seq uint64, ok bool) {
	best := q.minMatching(ports)
	if best < 0 {
		return vtime.Infinity, 0, false
	}
	return q.times[best], q.seqs[best], true
}

// PopMatching removes the earliest event whose Port is in ports into
// *e; it reports false, leaving *e alone, when none match.
func (q *Queue) PopMatching(ports []string, e *Event) bool {
	best := q.minMatching(ports)
	if best < 0 {
		return false
	}
	q.removeAt(best, e)
	return true
}

// PopBatch removes up to max events (all of them when max <= 0) with
// Time <= t, in order, appending them to buf[:0] and returning it
// (grown as needed). Passing the returned slice back in on the next
// call makes a drain allocation-free in steady state.
func (q *Queue) PopBatch(t vtime.Time, max int, buf []Event) []Event {
	buf = buf[:0]
	for q.Len() > 0 && q.times[q.head] <= t {
		if max > 0 && len(buf) >= max {
			break
		}
		buf = append(buf, Event{})
		q.removeAt(q.head, &buf[len(buf)-1])
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
	out := make([]Event, n)
	if !q.heap {
		for i := range out {
			q.load(q.head+i, &out[i])
		}
		return out
	}
	// Copy the heap columns and pop the copy down; the row store is
	// only read.
	tmp := Queue{
		times:  append([]vtime.Time(nil), q.times...),
		seqs:   append([]uint64(nil), q.seqs...),
		rows:   append([]int32(nil), q.rows...),
		routes: q.routes,
		first:  q.first,
		rest:   q.rest,
	}
	for i := range out {
		tmp.load(0, &out[i])
		m := len(tmp.times) - 1
		tmp.swap(0, m)
		tmp.times, tmp.seqs, tmp.rows = tmp.times[:m], tmp.seqs[:m], tmp.rows[:m]
		tmp.down(0)
	}
	return out
}

// Reset empties the queue but keeps the sequence counter monotone, so
// new events still order after everything ever scheduled.
func (q *Queue) Reset() {
	for _, slot := range q.rows[q.head:] {
		if slot < chunkRows {
			q.first[slot] = payload{}
		}
	}
	q.release()
}
