// Package timeline records causally-linked lifecycle events keyed by
// virtual time: component drives, channel send/delivery pairs,
// checkpoint/restore/rewind markers, runlevel switches, conservative
// protocol chatter, WAN fault injections, and transport lifecycle
// (channels opened, accepted, lost and rewound; resilient-session
// epochs, resumes and refusals). It is the repository's one
// rewind-aware event store: "what happened, in what order, and what
// caused it" (Perfetto) and "what value was on this net when" (VCD,
// text log, drive digest) are exporters over the same []Event.
//
// It is also the one emission: a layer says what happened by recording
// an event here, not by printing a line, and the recorder's one
// subscriber (Subscribe) is how a live reader, such as a log, sees it.
//
// Events fall into two classes. Canonical kinds (drive, send, deliver,
// checkpoint, restore, rewind, runlevel) describe the committed
// virtual-time history of a run: on a conservative configuration they
// are bit-reproducible across same-seed reruns once rolled-back spans
// are dropped. Transient kinds (stall, ask, grant, straggler, fault,
// session) describe wall-clock-dependent mechanics — how the run got
// there — and are excluded from the canonical merged export so that it
// stays byte-identical run to run.
//
// The recorder is rewind-aware: when a subsystem restores a
// checkpoint, every recorded event of that subsystem past the restore
// point is dropped from the committed view and a single rewind marker
// spanning the discarded-future window is recorded in its place.
package timeline

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/vtime"
)

// eventKind classifies a timeline event.
type eventKind uint8

const (
	// Canonical kinds: deterministic in the committed view of a
	// conservative run. Keep kindMigrate last in this block —
	// Canonical() tests k <= kindMigrate.
	KindDrive      eventKind = iota // a component drove a net
	KindSend                        // committed cross-subsystem data send
	KindDeliver                     // committed cross-subsystem data delivery
	kindCheckpoint                  // checkpoint captured (auto or tagged)
	kindRestore                     // checkpoint restored
	KindRewind                      // discarded-future window after a restore
	kindRunlevel                    // detail-level switch on a component
	kindMigrate                     // live migration phase (quiesce … resume)

	// Transient kinds: wall-clock-timing-dependent mechanics,
	// excluded from canonical exports.
	kindStall     // scheduler stalled waiting for a safe-time grant
	kindResume    // stall ended
	KindAsk       // safe-time request sent to a peer
	kindGrant     // safe-time grant sent to a peer
	kindStraggler // data arrived behind the local clock
	KindFault     // faultnet injected a fault on a link
	KindSession   // transport lifecycle (channel opened/lost, epoch death, resume, ...)
)

var kindNames = [...]string{
	"drive", "send", "deliver", "checkpoint", "restore", "rewind",
	"runlevel", "migrate", "stall", "resume", "ask", "grant",
	"straggler", "fault", "session",
}

func (k eventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Canonical reports whether events of this kind belong to the
// committed, reproducible history of a run.
func (k eventKind) Canonical() bool { return k <= kindMigrate }

// Event is one timeline record. VT is the primary clock; Wall is
// advisory (it never participates in canonical ordering or canonical
// export bytes). Seq is a per-stream sequence number: each
// subsystem's scheduler, and each directed channel (from→to, per
// direction and kind class), counts its own events, so ordering
// within a stream is deterministic even though streams interleave at
// wall-clock-dependent points.
type Event struct {
	Kind eventKind `json:"k"`
	Node string    `json:"node,omitempty"`
	Sub  string    `json:"sub,omitempty"`  // owning actor (subsystem, link, or session)
	Comp string    `json:"comp,omitempty"` // component, for drive/runlevel
	Net  string    `json:"net,omitempty"`  // net name, for drive/send/deliver
	From string    `json:"from,omitempty"` // source subsystem, for channel events
	To   string    `json:"to,omitempty"`   // destination subsystem, for channel events

	VT  vtime.Time `json:"vt"`            // primary clock
	VT2 vtime.Time `json:"vt2,omitempty"` // span end (rewind high-water, stall need)

	Wall   int64  `json:"wall,omitempty"` // wall clock, ns since epoch (advisory)
	Seq    uint64 `json:"seq"`            // per-stream sequence
	Detail string `json:"d,omitempty"`    // value / tag / level / fault verb

	// Value is the driven value of a drive event as the component sent
	// it, for the waveform exporter (WriteVCD). It is not serialized:
	// Detail carries its printed form.
	Value any `json:"-"`
}

// streamKey identifies the deterministic sub-stream an event's Seq is
// drawn from. Canonical scheduler events share one stream per
// subsystem; channel sends and deliveries get one stream per directed
// pair; transient events use separate streams so their wall-dependent
// counts never perturb canonical sequence numbers.
type streamKey struct {
	class uint8
	a, b  string
}

const (
	streamSched     uint8 = iota // canonical scheduler-side events of one sub
	streamOut                    // canonical sends, one per from→to
	streamIn                     // canonical deliveries, one per from→to
	streamTransient              // everything wall-dependent, per actor
)

func streamOf(e *Event) streamKey {
	switch e.Kind {
	case KindSend:
		return streamKey{streamOut, e.From, e.To}
	case KindDeliver:
		return streamKey{streamIn, e.From, e.To}
	}
	if e.Kind.Canonical() {
		return streamKey{class: streamSched, a: e.Sub}
	}
	return streamKey{class: streamTransient, a: e.Sub}
}

// stats counts recorder activity. Evicted counts events lost to ring
// retention; RewindDropped counts events removed because a restore
// rolled them back.
type stats struct {
	Recorded      uint64
	Evicted       uint64
	RewindDropped uint64
	Buffered      int
}

// DefaultLimit is the default ring retention, in events.
const DefaultLimit = 1 << 16

// Recorder is a bounded, mutex-protected, rewind-aware ring of
// timeline events. All methods are safe on a nil receiver (no-ops),
// so call sites can stay nil-guarded without their own checks, and
// safe for concurrent use — scheduler goroutines, transport pumps,
// and keepalive loops all record into the same ring.
type Recorder struct {
	mu     sync.Mutex
	node   string
	limit  int
	events []Event
	head   int // index of oldest event once the ring has wrapped
	n      int
	seqs   map[streamKey]uint64
	hw     map[string]vtime.Time // per-sub high-water of canonical VT
	hwAll  vtime.Time            // global canonical high-water, for clock-less events
	stats  stats
	sub    func(Event) // the one subscriber; see Subscribe
}

// NewRecorder returns a recorder retaining at most limit events
// (DefaultLimit if limit <= 0).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{
		limit: limit,
		seqs:  make(map[streamKey]uint64),
		hw:    make(map[string]vtime.Time),
	}
}

// SetNode stamps subsequently recorded events with the given node
// name, so per-node recorders can be merged without ambiguity.
func (r *Recorder) SetNode(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.node = name
	r.mu.Unlock()
}

// Subscribe makes fn the recorder's one subscriber (nil removes it):
// fn is called with each event as it is recorded, stamped as the ring
// holds it. Calls are made under the recorder's lock, so fn sees every
// event once, in record order, one call at a time — and must neither
// block nor call back into the recorder. An event a later rewind drops
// from the committed view has already been delivered; the rewind
// marker that follows it says so.
func (r *Recorder) Subscribe(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sub = fn
	r.mu.Unlock()
}

// nodeName returns the node name set with SetNode.
func (r *Recorder) nodeName() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node
}

func (r *Recorder) recordLocked(e Event) {
	if e.Node == "" {
		e.Node = r.node
	}
	e.Wall = time.Now().UnixNano()
	key := streamOf(&e)
	r.seqs[key]++
	e.Seq = r.seqs[key]
	// Only canonical events advance the high-waters: the rewind
	// marker's span end (VT2 = hw) is part of the canonical export, so
	// it must not depend on wall-timing-sensitive transient VTs.
	if e.Kind.Canonical() {
		if e.VT > r.hw[e.Sub] {
			r.hw[e.Sub] = e.VT
		}
		if e.VT > r.hwAll {
			r.hwAll = e.VT
		}
	}
	r.stats.Recorded++
	if r.sub != nil {
		r.sub(e)
	}
	if r.n < r.limit {
		// Not yet wrapped (or just linearized by a rewind): head is 0
		// and the ring is exactly the slice, so filling is an append.
		r.events = append(r.events, e)
		r.n++
		return
	}
	r.events[r.head] = e
	r.head = (r.head + 1) % len(r.events)
	r.stats.Evicted++
}

func (r *Recorder) record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordLocked(e)
	r.mu.Unlock()
}

// Drive records a committed net drive by comp on sub at t.
func (r *Recorder) Drive(sub, comp, net string, t vtime.Time, v any) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindDrive, Sub: sub, Comp: comp, Net: net, VT: t, Detail: fmt.Sprint(v), Value: v})
}

// Send records a committed cross-subsystem data send from→to at t.
func (r *Recorder) Send(from, to, net string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindSend, Sub: from, From: from, To: to, Net: net, VT: t})
}

// Deliver records the delivery on to of a data message sent by from,
// stamped with its (sender-side) virtual arrival time t.
func (r *Recorder) Deliver(from, to, net string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindDeliver, Sub: to, From: from, To: to, Net: net, VT: t})
}

// Checkpoint records a checkpoint capture (tag "" for automatic).
func (r *Recorder) Checkpoint(sub, tag string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: kindCheckpoint, Sub: sub, VT: t, Detail: tag})
}

// Restore records a checkpoint restore on sub back to t. Every event
// previously recorded for sub past t is dropped from the committed
// view, and if any existed a single rewind marker spanning
// [t, high-water] is recorded in their place, carrying the
// discarded-future window. The restore event itself follows.
func (r *Recorder) Restore(sub, tag string, t vtime.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	hw := r.hw[sub]
	r.dropAfterLocked(sub, t)
	if hw > t {
		r.recordLocked(Event{Kind: KindRewind, Sub: sub, VT: t, VT2: hw, Detail: tag})
	}
	r.recordLocked(Event{Kind: kindRestore, Sub: sub, VT: t, Detail: tag})
	r.hw[sub] = t
	r.mu.Unlock()
}

// Migrate records one phase of a live component migration (phase:
// quiesce, snapshot, transfer, splice, resume) of comp from subsystem
// `from` to subsystem `to`, cut at virtual time t. The five phases of
// one migration share the same VT — the drained barrier the handoff
// happened at — so a merged trace shows them as a tight span at the
// cut.
func (r *Recorder) Migrate(sub, comp, from, to, phase string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: kindMigrate, Sub: sub, Comp: comp, From: from, To: to, VT: t, Detail: phase})
}

// Runlevel records a detail-level switch of comp to level at t.
func (r *Recorder) Runlevel(sub, comp, level string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: kindRunlevel, Sub: sub, Comp: comp, VT: t, Detail: level})
}

// Stall records that sub's scheduler stalled at t waiting for its
// channel frontier to reach need.
func (r *Recorder) Stall(sub string, t, need vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: kindStall, Sub: sub, VT: t, VT2: need})
}

// Resume records that sub's scheduler left a stall at t.
func (r *Recorder) Resume(sub string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: kindResume, Sub: sub, VT: t})
}

// Ask records a safe-time request from→to carrying horizon t.
func (r *Recorder) Ask(from, to string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindAsk, Sub: from, From: from, To: to, VT: t})
}

// Grant records a safe-time grant from→to up to t.
func (r *Recorder) Grant(from, to string, t vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: kindGrant, Sub: from, From: from, To: to, VT: t})
}

// Straggler records a data message from from that arrived on to with
// timestamp t already behind to's local clock now.
func (r *Recorder) Straggler(from, to, net string, t, now vtime.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: kindStraggler, Sub: to, From: from, To: to, Net: net, VT: t, VT2: now})
}

// Fault records a fault injection (what: drop, dup, reorder, corrupt,
// cut, heal) on the named link at wire frame index frame. Faults have
// no virtual clock of their own; they are stamped with the recorder's
// global high-water so they land near "now" in the viewer.
func (r *Recorder) Fault(link, what string, frame int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordLocked(Event{Kind: KindFault, Sub: link, VT: r.hwAll, Detail: fmt.Sprintf("%s#%d", what, frame)})
	r.mu.Unlock()
}

// SessionEvent records a transport lifecycle event of the named actor
// (a channel or a resilient session; what: opened, accepted, lost,
// epoch-death, resume, rewind, refused, ...) with free-form detail.
// Stamped like Fault with the global high-water.
func (r *Recorder) SessionEvent(actor, what, detail string) {
	if r == nil {
		return
	}
	if detail != "" {
		what = what + " " + detail
	}
	r.mu.Lock()
	r.recordLocked(Event{Kind: KindSession, Sub: actor, VT: r.hwAll, Detail: what})
	r.mu.Unlock()
}

// dropAfterLocked removes every event owned by sub with VT past
// cutoff, linearizing the ring. Stream sequence counters are not
// rolled back: gaps left by a rewind are themselves deterministic
// when the rewind is, and the merged export re-stamps a global
// sequence after canonical sorting anyway.
func (r *Recorder) dropAfterLocked(sub string, cutoff vtime.Time) {
	if r.n == 0 {
		return
	}
	kept := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		e := r.events[(r.head+i)%len(r.events)]
		if e.Sub == sub && e.VT > cutoff {
			r.stats.RewindDropped++
			continue
		}
		kept = append(kept, e)
	}
	r.events = kept
	r.head = 0
	r.n = len(kept)
}

// Events returns a copy of the committed view, oldest first.
func (r *Recorder) Events() []Event { return r.Tail(-1) }

// Tail returns a copy of the newest n events of the committed view,
// oldest first (all of them when n < 0 or n exceeds what is retained).
// Only the copied events are touched under the lock every emitter
// records through.
func (r *Recorder) Tail(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 || n > r.n {
		n = r.n
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = r.events[(r.head+r.n-n+i)%len(r.events)]
	}
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Stats returns recorder counters.
func (r *Recorder) Stats() stats {
	if r == nil {
		return stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Buffered = r.n
	return s
}
