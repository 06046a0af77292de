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
// A LinkQueue stores an event as a row and a key. A row is the value
// alone, 16 bytes: it stays an `any` because Event, core.Msg and the
// drive hooks are `any` on the public surface, and it is the only
// pointer pair the collector walks in the row store. The rest of an
// event is its key: the (Time, Seq) pair and a link, all pointer-free.
// A link is an int32 the queue's owner gives meaning to through a
// Table: the kernel's inbox links name a (receiving port, source) pair
// of its component, and Queue's name the kind and the four names of an
// Event. Routing is topology, not data — an inbox sees a handful of
// distinct links for the life of a design — so a Table stores each
// once, finds a burst's repeated one with one compare, and stays
// bounded whatever a peer sends (see MaxLinks).
//
// The queue is read in one of two ways. It starts as a sorted run:
// while every push orders at or after the one before it — a page
// arriving over a channel, a burst toward one inbox, a timer chain —
// the live events are the row-store slots head..next, a push writes
// slot next and a pop reads slot head and steps past it. A run keeps
// its keys as spans, not one per slot: a span is a stretch of events on
// one link, with consecutive sequence numbers and evenly spaced times,
// held as its first event's key, a stride and a count. A push that
// continues the tail span counts itself into it, so a burst of drives
// paced one word time apart is one 32-byte span however long it is, and
// a queued word costs its row and nothing else. The first push that
// orders before the tail, or a pop from inside the run (a filtered
// receive whose earliest match is not the head), turns the live range
// into a binary heap over three contiguous columns — times, seqs and
// slots — with no heapify: a sorted array is a heap, because every
// position's parent sits at a smaller index and so holds a smaller key.
// Each live slot's link moves to a column indexed by slot, which the
// sifts never touch. From then until something empties the queue the
// heap's sifts compare and move the three columns only (20 bytes a
// position) and freed slots are recycled through a free list; an empty
// queue is an empty run again.
//
// The row store is chunked, and a row never moves. Every chunk is one
// fixed block of rows, sized to its allocator class, and comes from a
// process-wide pool that every queue shares, with one exception: a
// queue that has never held more than inlineRows events keeps them in
// an inline head, a slice of its own grown by append, so that the
// eighteen idle inboxes of a design do not each hold a 10 KB chunk and
// a queue that stays shallow never touches the pool. The push that
// outgrows the head moves it into a pooled chunk, which is the queue's
// first chunk from then on: it is kept while the queue empties and
// fills again, and goes back to the pool once, when its owner discards
// the queue (Discard). A run returns each later chunk its head has
// passed and rebases the chunk table once the dead prefix outweighs the
// live part, so a run that never empties keeps storage proportional to
// its depth; whatever empties the queue by popping returns every chunk
// but the first. A chunk goes back only when every row in it has been
// popped or cleared, and a pop clears its row, so a pooled chunk is all
// nil: it pins no value and gives the collector no pointer to follow.
// Reset, which empties the queue without popping, drops its later
// chunks instead. A page-sized burst through a queue therefore
// allocates no row storage once a run before it has warmed the pool.
package event

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/vtime"
)

// Kind classifies an event for dispatch.
type Kind uint8

const (
	// KindNet is a value change on a net, destined for every port
	// connected to the net other than the driver.
	KindNet Kind = iota
	// kindTimer is a component-requested wakeup.
	kindTimer
	// KindControl is a scheduler-internal control action (runlevel
	// switch, checkpoint request, ...) executed at a point in virtual
	// time.
	KindControl
)

func (k Kind) String() string {
	switch k {
	case KindNet:
		return "net"
	case kindTimer:
		return "timer"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is a single scheduled occurrence, whole: what a checkpoint, a
// migration image and a rollback journal store of an inbox, and what
// Queue takes and hands back.
type Event struct {
	Time vtime.Time // when the event takes effect
	Seq  uint64     // enqueue order, breaks Time ties
	Kind Kind

	// Target routing. For KindNet events, Net names the net whose
	// value changed and Component/Port name one receiving port (the
	// scheduler fans a net change out to one Event per listener).
	// For kindTimer, Component names the sleeper.
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
	case kindTimer:
		return fmt.Sprintf("@%v timer %s", e.Time, e.Component)
	default:
		return fmt.Sprintf("@%v %s", e.Time, e.Kind)
	}
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

// span is a run's key for n consecutive slots: events sharing a link,
// with consecutive sequence numbers and times stride apart. time and seq
// are the first live event's; a pop from the head steps them to the
// next one. While a span keys one event its stride means nothing: the
// next event to join it sets the stride.
type span struct {
	time   vtime.Time
	seq    uint64
	n      int32
	stride int32
	link   int32
}

// at returns the key of the span's i-th live event.
func (s *span) at(i int32) key {
	return key{s.time + vtime.Time(i)*vtime.Time(s.stride), s.seq + uint64(i)}
}

// extend counts an event keyed (t, seq) on link into s when it
// continues it: the same link, the next sequence number, and — while s
// keys two events or more — the same time step; joining a span of one
// sets the step, if it fits. The caller has checked that (t, seq) does
// not order before s's last event.
func (s *span) extend(t vtime.Time, seq uint64, link int32) bool {
	last := s.at(s.n - 1)
	if s.link != link || seq != last.seq+1 || s.n == math.MaxInt32 {
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

// chunkRows is the number of slots in a chunk: slot s lives in the
// first chunk when s < chunkRows and in chunk s/chunkRows of the store,
// rest[s/chunkRows-1], at s%chunkRows otherwise.
const chunkRows = 639

// inlineRows is the depth of a queue's inline head: the first chunk of
// a queue that never holds more events than this is a slice grown by
// append, 1 KB at most, and not a pooled 10 KB chunk.
const inlineRows = 64

// chunk is one fixed block of the row store. 639 rows of 16 bytes, with
// the 8-byte header the allocator puts before a pointerful object this
// large, fill the 10 240-byte size class (TestChunkFillsItsSizeClass);
// 640 would spill into the 10 880-byte one.
type chunk [chunkRows]any

// chunks carries the row chunks from the queue that let them go to the
// next one that needs one, across queues and across simulations: a
// process serving many runs would otherwise allocate and collect a
// burst's chunks for every run. A chunk goes in only once every one of
// its rows has been popped or cleared, so every chunk in the pool is
// all nil. It is held by its two methods so that a test can watch every
// chunk go back.
var chunks interface {
	Get() any
	Put(any)
} = &sync.Pool{New: func() any { return new(chunk) }}

// columns is the heap: three parallel columns, a binary heap by
// position ordered by (times, seqs), rows naming each position's slot.
// links is indexed by slot, not position: a live slot's link, and a free
// slot's place in the free list (1 + the next free slot, 0 at the end).
type columns struct {
	times []vtime.Time
	seqs  []uint64
	rows  []int32
	links []int32
}

// LinkQueue is a priority queue of events ordered by (Time, Seq), each
// a value on a link. The zero value is ready to use. LinkQueue is not
// safe for concurrent use; the subsystem scheduler owns it.
type LinkQueue struct {
	// Row store, chunked so rows never move: the first chunk (first,
	// the inline head grown by append up to inlineRows rows, or a pooled
	// chunk of chunkRows rows once the queue has outgrown it) and then
	// pooled chunks, nil once a run's head has passed them. next is the
	// first slot never handed out since the queue was last empty. While
	// the queue is a run (heap false) its live events are the slots
	// head..next in order, keyed by spans[spanHead:] in the same order.
	// Once it is a heap, cols holds their keys and free heads the list
	// of recycled slots (1 + slot, 0 when there is none). A queue that
	// becomes empty restarts at slot 0 as an empty run and keeps only
	// the first chunk (see release).
	first    []any
	rest     []*chunk
	spans    []span
	head     int32
	next     int32
	free     int32
	spanHead int32
	heap     bool

	// cols is the heap while heap is true, and empty otherwise. It is
	// a pointer, nil until the queue first becomes a heap: most inboxes
	// never do, and every component embeds one.
	cols *columns

	seq uint64
}

// at returns the row at slot.
func (q *LinkQueue) at(slot int32) *any {
	if slot < chunkRows {
		return &q.first[slot]
	}
	s := uint32(slot)
	return &q.rest[s/chunkRows-1][s%chunkRows]
}

// Len returns the number of pending events.
func (q *LinkQueue) Len() int {
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
func (q *LinkQueue) claim() int32 {
	slot := q.next
	q.next++
	switch {
	case int(slot) < len(q.first):
		// The first chunk keeps its rows across a release.
	case slot < inlineRows:
		q.first = append(q.first, nil)
	case slot < chunkRows:
		// The queue outgrows its inline head: a pooled chunk takes the
		// head's rows and is the first chunk until Discard. The head is
		// dropped whole.
		c := chunks.Get().(*chunk)
		copy(c[:], q.first)
		q.first = c[:]
	case slot%chunkRows == 0:
		q.rest = append(q.rest, chunks.Get().(*chunk))
	}
	return slot
}

// push stores value v on link keyed (t, seq): at the tail of a run when
// it orders there — in the tail span when it continues it — and into
// the heap otherwise.
func (q *LinkQueue) push(t vtime.Time, seq uint64, link int32, v any) {
	if !q.heap && q.head != q.next {
		if tail := &q.spans[len(q.spans)-1]; tail.at(tail.n-1).after(t, seq) {
			// The first push that orders before the tail: from here
			// until the queue empties it is a heap.
			q.toHeap()
		} else if tail.extend(t, seq, link) {
			*q.at(q.claim()) = v
			return
		}
	}
	if !q.heap {
		q.open(span{time: t, seq: seq, n: 1, link: link})
		*q.at(q.claim()) = v
		return
	}
	c := q.cols
	var slot int32
	if q.free != 0 {
		slot = q.free - 1
		q.free = c.links[slot]
		c.links[slot] = link
	} else {
		slot = q.claim()
		c.links = append(c.links, link) // links is slot-indexed up to next
	}
	*q.at(slot) = v
	c.push(t, seq, slot)
}

// open appends a span to the run's keys. A full key slice whose dead
// prefix — the spans the head has passed — is at least as long as its
// live part moves the live part down instead of growing: each move
// copies no more spans than were popped since the last, so a run that
// never empties keeps keys proportional to its depth.
func (q *LinkQueue) open(s span) {
	if n := len(q.spans); n == cap(q.spans) && q.spanHead > 0 && 2*int(q.spanHead) >= n {
		q.spans = q.spans[:copy(q.spans, q.spans[q.spanHead:])]
		q.spanHead = 0
	}
	q.spans = append(grow(q.spans), s)
}

// toHeap turns the run into the heap: the run's i-th event becomes
// column position i, which in a sorted range already satisfies the
// heap order, and each span's link is written to its slots.
func (q *LinkQueue) toHeap() {
	c := q.cols
	if c == nil {
		c = new(columns)
		q.cols = c
	}
	n := q.Len()
	c.times = slices.Grow(c.times[:0], n)
	c.seqs = slices.Grow(c.seqs[:0], n)
	c.rows = slices.Grow(c.rows[:0], n)
	c.links = slices.Grow(c.links[:0], int(q.next))[:q.next]
	slot := q.head
	for _, s := range q.spans[q.spanHead:] {
		for i := int32(0); i < s.n; i++ {
			k := s.at(i)
			c.times = append(c.times, k.time)
			c.seqs = append(c.seqs, k.seq)
			c.rows = append(c.rows, slot)
			c.links[slot] = s.link
			slot++
		}
	}
	q.spans, q.spanHead = q.spans[:0], 0
	q.heap = true
}

// Push schedules value v on link at time t, stamping it with the next
// sequence number, which it returns.
func (q *LinkQueue) Push(t vtime.Time, link int32, v any) uint64 {
	q.seq++
	q.push(t, q.seq, link, v)
	return q.seq
}

// PushStamped schedules an event that already carries a sequence
// number (used when replaying events captured in a snapshot or a
// rollback journal, so the original ordering is preserved).
func (q *LinkQueue) PushStamped(t vtime.Time, seq uint64, link int32, v any) {
	if seq > q.seq {
		q.seq = seq
	}
	q.push(t, seq, link, v)
}

// popHead removes the run's head: a load, a cleared value and a step of
// the head and of its span. A chunk the head leaves, other than the
// first, goes back to the pool (see passed).
func (q *LinkQueue) popHead() (k key, link int32, v any) {
	s, row := &q.spans[q.spanHead], q.at(q.head)
	k, link, v = s.at(0), s.link, *row
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
	return k, link, v
}

// passed returns the chunk the run's head has just left — chunk d of
// the store, rest[d-1], every row of it popped and so cleared, with
// every chunk before it already gone — to the pool, and rebases the
// chunk table once those d dead entries outnumber the live ones: the
// live chunks move to the front and the cursors down by d chunks. Each rebase moves fewer entries than it drops, so a run
// that never empties keeps a table proportional to its depth.
func (q *LinkQueue) passed() {
	d := int(q.head/chunkRows) - 1
	chunks.Put(q.rest[d-1])
	q.rest[d-1] = nil
	if live := len(q.rest) - d; d > live {
		n := copy(q.rest, q.rest[d:])
		clear(q.rest[n:])
		q.rest = q.rest[:n]
		q.head -= int32(d * chunkRows)
		q.next -= int32(d * chunkRows)
	}
}

// removeAt extracts the event at heap position i, restores the heap
// order and recycles its row slot, clearing the row so it drops its
// reference to the value.
func (q *LinkQueue) removeAt(i int) (k key, link int32, v any) {
	c := q.cols
	slot := c.rows[i]
	row := q.at(slot)
	k, link, v = key{c.times[i], c.seqs[i]}, c.links[slot], *row
	*row = nil
	c.links[slot] = q.free
	q.free = slot + 1
	c.remove(i)
	if len(c.times) == 0 {
		q.release()
	}
	return k, link, v
}

// release is what every path that empties the queue ends in: it is an
// empty run again, row allocation restarts at slot 0, the chunks past
// the first go back to the pool, and run keys and heap columns that
// grew past one chunk's worth are dropped, so a drained burst is not
// held for the life of the queue while a queue that stays small keeps
// everything it has warmed. The caller has already cleared every row it
// used: the pool takes the chunks as they are.
func (q *LinkQueue) release() {
	for _, c := range q.rest {
		if c != nil {
			chunks.Put(c)
		}
	}
	q.rest = nil
	q.head, q.next, q.free, q.spanHead = 0, 0, 0, 0
	q.heap = false
	if cap(q.spans) > chunkRows {
		q.spans = nil
	} else {
		q.spans = q.spans[:0]
	}
	if c := q.cols; c != nil {
		if cap(c.times) > chunkRows || cap(c.links) > chunkRows {
			q.cols = nil
		} else {
			c.times, c.seqs, c.rows, c.links = c.times[:0], c.seqs[:0], c.rows[:0], c.links[:0]
		}
	}
}

// NextTime returns the time of the earliest pending event, or
// vtime.Infinity when the queue is empty. It reads one key — the
// safe-horizon scan's fast path.
func (q *LinkQueue) NextTime() vtime.Time {
	switch {
	case q.heap:
		return q.cols.times[0]
	case q.head == q.next:
		return vtime.Infinity
	default:
		return q.spans[q.spanHead].time
	}
}

// MinMatching returns the position and the time of the earliest event
// whose link match accepts — of the earliest event when match is nil —
// without removing it; the position is -1, and the time Infinity, when
// none is accepted. The position is what PopAt takes, and only until
// the queue next changes. A run is in order and a span has one link, so
// the run's answer is the first event of its first matching span; a
// heap is scanned whole for the (Time, Seq)-minimal match, unless its
// root matches.
func (q *LinkQueue) MinMatching(match func(link int32) bool) (at int, t vtime.Time) {
	switch {
	case q.heap:
	case q.head == q.next:
		return -1, vtime.Infinity
	default:
		slot := q.head
		for i := range q.spans[q.spanHead:] {
			s := &q.spans[int(q.spanHead)+i]
			if match == nil || match(s.link) {
				return int(slot), s.time
			}
			slot += s.n
		}
		return -1, vtime.Infinity
	}
	c := q.cols
	best := -1
	for i, slot := range c.rows {
		if match != nil && !match(c.links[slot]) {
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
		return -1, vtime.Infinity
	}
	return best, c.times[best]
}

// PopAt removes the event at position at, which MinMatching returned
// since the queue last changed.
func (q *LinkQueue) PopAt(at int) (t vtime.Time, seq uint64, link int32, v any) {
	var k key
	switch {
	case q.heap:
		k, link, v = q.removeAt(at)
	case at == int(q.head):
		k, link, v = q.popHead()
	default:
		// A pop from inside the run: from here until the queue empties
		// it is a heap, in which the run's slot at is position at-head.
		at -= int(q.head)
		q.toHeap()
		k, link, v = q.removeAt(at)
	}
	return k.time, k.seq, link, v
}

// Each calls f with every pending event in delivery order, without
// disturbing the queue; f must not change it. The checkpoint machinery
// images an inbox through it.
func (q *LinkQueue) Each(f func(t vtime.Time, seq uint64, link int32, v any)) {
	if !q.heap {
		slot := q.head
		for _, s := range q.spans[q.spanHead:] {
			for i := int32(0); i < s.n; i++ {
				k := s.at(i)
				f(k.time, k.seq, s.link, *q.at(slot))
				slot++
			}
		}
		return
	}
	// Pop a copy of the heap columns down; the row store is only read.
	c := q.cols
	tmp := columns{times: slices.Clone(c.times), seqs: slices.Clone(c.seqs), rows: slices.Clone(c.rows)}
	for len(tmp.times) > 0 {
		slot := tmp.rows[0]
		f(tmp.times[0], tmp.seqs[0], c.links[slot], *q.at(slot))
		tmp.remove(0)
	}
}

// relink replaces every live event's link l with f(l).
func (q *LinkQueue) relink(f func(int32) int32) {
	if q.heap {
		for _, slot := range q.cols.rows {
			q.cols.links[slot] = f(q.cols.links[slot])
		}
		return
	}
	for i := range q.spans[q.spanHead:] {
		s := &q.spans[int(q.spanHead)+i]
		s.link = f(s.link)
	}
}

// Reset empties the queue but keeps the sequence counter monotone, so
// new events still order after everything ever scheduled. Every row of
// the first chunk that is not live is already clear, so clearing the
// slots handed out clears exactly the live ones. The later chunks may
// hold live rows: they are dropped, not pooled.
func (q *LinkQueue) Reset() {
	clear(q.first[:min(len(q.first), int(q.next))])
	q.rest = nil
	q.release()
}

// Discard empties the queue as Reset does and hands a pooled first
// chunk back to the pool, every row of it clear: the owner's last call,
// when it is done with the queue. No row the queue handed out is a
// view: a popped value, an image and a journal entry are copies. A
// queue used after Discard starts over from an empty inline head.
func (q *LinkQueue) Discard() {
	q.Reset()
	if len(q.first) == chunkRows {
		chunks.Put((*chunk)(q.first))
	}
	q.first = nil
}

// MaxLinks bounds a Table against keys it cannot intern: the kernel's
// inbox keys hold a Source that arrives from a peer's socket. A push
// looks no further back than the MaxLinks most recent keys, so it costs
// the same however many distinct keys a peer invents, and a table that
// has reached MaxLinks is rebuilt from the live events once it is also
// more than twice their number (it cannot be smaller than the distinct
// keys they hold). A table of up to MaxLinks keys is searched whole and
// so never holds a key twice.
const MaxLinks = 32

// Table gives the links of one LinkQueue their meaning: Link interns a
// key as the link an event is pushed on, and Key reads it back. A push
// that repeats the previous push's key — the shape of every burst —
// finds it with one compare. A push into an empty queue starts the
// table over, letting go of one that grew past a chunk's worth, so with
// the rules of MaxLinks it never holds more than max(MaxLinks, 2 × live
// events + 1) keys.
type Table[K comparable] struct {
	keys []K
	last int32
}

// Link returns the link for k, to push on q now.
func (t *Table[K]) Link(q *LinkQueue, k K) int32 {
	if q.Len() == 0 {
		if cap(t.keys) > chunkRows {
			t.keys = nil
		}
		clear(t.keys)
		t.keys = t.keys[:0]
	}
	n := len(t.keys)
	if n > 0 && t.keys[t.last] == k {
		return t.last
	}
	for i := n - 1; i >= max(0, n-MaxLinks); i-- {
		if t.keys[i] == k {
			t.last = int32(i)
			return t.last
		}
	}
	if n >= MaxLinks && n > 2*q.Len() {
		// A live event may hold k at a link the bounded search above did
		// not reach; the rebuilt table holds at most one key per live
		// event, below the size that asks for a rebuild, and is searched
		// whole.
		old := t.keys
		t.keys = nil
		q.relink(func(l int32) int32 { return t.Link(q, old[l]) })
		return t.Link(q, k)
	}
	t.last = int32(n)
	t.keys = append(t.keys, k)
	return t.last
}

// Key returns the key of link, which an event of the table's queue
// holds or has just been popped with.
func (t *Table[K]) Key(link int32) K { return t.keys[link] }

// Len returns the number of keys the table holds.
func (t *Table[K]) Len() int { return len(t.keys) }

// route is what a Queue's link stands for: an Event but its key and
// value.
type route struct {
	kind                         Kind
	component, port, net, source string
}

// Queue is a LinkQueue of whole Events: each goes in and comes out with
// its kind and names, held once per distinct tuple in the queue's
// Table. The kernel's inboxes key their events by their component's own
// links instead; Queue is the form a caller outside the kernel measures
// the queue through.
type Queue struct {
	LinkQueue
	routes Table[route]
}

// Push schedules an event, stamping it with the next sequence number,
// which it returns.
func (q *Queue) Push(e Event) uint64 {
	r := route{e.Kind, e.Component, e.Port, e.Net, e.Source}
	return q.LinkQueue.Push(e.Time, q.routes.Link(&q.LinkQueue, r), e.Value)
}

// popAt removes the event at position at (see MinMatching) into e, in
// place: an Event is 104 bytes against a row's 16, and a drain moves
// tens of thousands of them, so each is written once, straight into its
// destination.
func (q *Queue) popAt(at int, e *Event) {
	var l int32
	e.Time, e.Seq, l, e.Value = q.PopAt(at)
	r := q.routes.Key(l)
	e.Kind, e.Component, e.Port, e.Net, e.Source = r.kind, r.component, r.port, r.net, r.source
}

// Pop removes and returns the earliest event; ok is false when empty.
func (q *Queue) Pop() (e Event, ok bool) {
	at, _ := q.MinMatching(nil)
	if at < 0 {
		return e, false
	}
	q.popAt(at, &e)
	return e, true
}

// PopBatch removes up to max events (all of them when max <= 0) with
// Time <= t, in order, appending them to buf[:0] and returning it
// (grown as needed). Passing the returned slice back in on the next
// call makes a drain allocation-free in steady state.
func (q *Queue) PopBatch(t vtime.Time, max int, buf []Event) []Event {
	buf = buf[:0]
	for q.Len() > 0 && q.NextTime() <= t && (max <= 0 || len(buf) < max) {
		at, _ := q.MinMatching(nil)
		buf = append(buf, Event{})
		q.popAt(at, &buf[len(buf)-1])
	}
	return buf
}
