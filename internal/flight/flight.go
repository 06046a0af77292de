// Package flight is Pia's black-box layer: a bounded, allocation-
// recycled ring of recent observability events (the flight recorder),
// a fan-out hub for live SSE telemetry streaming, and the glue that
// freezes the recorder into a self-contained JSON post-mortem when a
// failure trigger fires.
//
// The same design constraint that shapes internal/metrics applies
// here: simulations that never enable flight recording must pay
// nothing. Every entry point is nil-receiver-safe, and the enabled
// record path writes into a pre-allocated ring slot — no per-record
// allocation.
//
// Lock discipline: the recorder mutex is a leaf lock. Trip only
// freezes the ring and stamps the reason under it, then builds the
// dump (registry snapshot, timeline tail) on a fresh goroutine with
// no locks held — so Trip is safe to call from the scheduler
// goroutine, from under a session mutex, or from a node's pump
// goroutine without deadlocking against the collectors that those
// paths feed.
package flight

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/timeline"
)

// DefaultRingSize is the recorder capacity when New is given a
// non-positive size.
const DefaultRingSize = 512

// dumpTimelineTail caps how many trailing timeline events a dump
// embeds; the full timeline is still available via WriteTimeline.
const dumpTimelineTail = 256

// Entry is one recorded observation: a session/health transition, a
// changed metric, or a trigger note. Entries live in a fixed ring and
// are overwritten in place; strings are retained by reference.
type Entry struct {
	Seq    uint64 `json:"seq"`
	WallNS int64  `json:"wall_ns"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Value  int64  `json:"value,omitempty"`
}

// Dump is a frozen, self-contained post-mortem: recent recorder
// entries oldest-first, the final metrics snapshot, the tail of the
// canonical timeline, and the build/identity info of the process that
// produced it.
type Dump struct {
	GeneratedNS int64             `json:"generated_ns"`
	Tripped     bool              `json:"tripped"`
	Reason      string            `json:"reason,omitempty"`
	Detail      string            `json:"detail,omitempty"`
	TrippedNS   int64             `json:"tripped_ns,omitempty"`
	Info        map[string]string `json:"info,omitempty"`
	Recorded    uint64            `json:"recorded_total"`
	AfterFreeze uint64            `json:"dropped_after_freeze,omitempty"`
	Entries     []Entry           `json:"entries"`
	Metrics     []metrics.Sample  `json:"metrics,omitempty"`
	Timeline    []timeline.Event  `json:"timeline,omitempty"`
}

// WriteJSON writes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Recorder is the flight recorder: a fixed ring of Entry slots
// recycled in place. A nil *Recorder is inert, which is the whole
// disabled path.
type Recorder struct {
	mu     sync.Mutex
	ring   []Entry
	next   int    // next write slot
	filled bool   // ring has wrapped at least once
	total  uint64 // lifetime records
	frozen bool
	reason string
	detail string
	tripNS int64
	after  uint64 // records attempted after freeze
	info   map[string]string
	reg    *metrics.Registry
	tl     *timeline.Recorder
	onTrip []func(*Dump)
}

// New returns a recorder with the given ring capacity (DefaultRingSize
// if size <= 0).
func New(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Recorder{
		ring: make([]Entry, size),
		info: map[string]string{
			"version": metrics.BuildVersion(),
		},
	}
}

// SetInfo stamps an identity key (node name, mode, session id) into
// every future dump. Nil-safe.
func (r *Recorder) SetInfo(k, v string) {
	if r == nil || k == "" {
		return
	}
	r.mu.Lock()
	r.info[k] = v
	r.mu.Unlock()
}

// AttachRegistry sets the metrics registry whose final snapshot dumps
// embed. Nil-safe; the first non-nil attach is kept, so nodes sharing
// one recorder may each offer theirs, in any order with each other's
// Enable* calls.
func (r *Recorder) AttachRegistry(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	if r.reg == nil {
		r.reg = reg
	}
	r.mu.Unlock()
}

// AttachTimeline sets the timeline recorder whose tail dumps embed.
// Nil-safe; the first non-nil attach is kept, as for AttachRegistry.
func (r *Recorder) AttachTimeline(tl *timeline.Recorder) {
	if r == nil || tl == nil {
		return
	}
	r.mu.Lock()
	if r.tl == nil {
		r.tl = tl
	}
	r.mu.Unlock()
}

// OnTrip registers a callback invoked (on a fresh goroutine, no locks
// held) with the post-mortem dump after the recorder trips. Nil-safe.
func (r *Recorder) OnTrip(f func(*Dump)) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.onTrip = append(r.onTrip, f)
	r.mu.Unlock()
}

// Record appends one entry to the ring, overwriting the oldest slot
// when full. After a trip the ring is frozen: the post-mortem keeps
// the moments before the failure, and later records only bump a
// counter. It returns the wall-clock stamp it wrote into the entry, 0
// when it wrote none, so whoever reports the same transition elsewhere
// carries the same stamp. Nil-safe and allocation-free.
func (r *Recorder) Record(kind, name, detail string, value int64) (wallNS int64) {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	if r.frozen {
		r.after++
		r.mu.Unlock()
		return 0
	}
	r.total++
	e := &r.ring[r.next]
	e.Seq = r.total
	wallNS = time.Now().UnixNano()
	e.WallNS = wallNS
	e.Kind = kind
	e.Name = name
	e.Detail = detail
	e.Value = value
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
	return wallNS
}

// Tripped reports whether the recorder has frozen, and why.
func (r *Recorder) Tripped() (bool, string) {
	if r == nil {
		return false, ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen, r.reason
}

// Trip freezes the ring on the first failure trigger and kicks off
// dump delivery to the OnTrip callbacks on a fresh goroutine. Only
// the first trip wins; later ones are no-ops. Safe to call while
// holding any caller-side lock: nothing beyond the recorder's own
// leaf mutex is touched synchronously. Like Record it returns the
// stamp of the entry it wrote, 0 for none.
func (r *Recorder) Trip(reason, detail string) (wallNS int64) {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	if r.frozen {
		r.mu.Unlock()
		return 0
	}
	r.total++
	e := &r.ring[r.next]
	e.Seq = r.total
	wallNS = time.Now().UnixNano()
	e.WallNS = wallNS
	e.Kind = "trip"
	e.Name = reason
	e.Detail = detail
	e.Value = 0
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
	r.frozen = true
	r.reason = reason
	r.detail = detail
	r.tripNS = wallNS
	cbs := append([]func(*Dump){}, r.onTrip...)
	r.mu.Unlock()
	if len(cbs) > 0 {
		go func() {
			d := r.BuildDump()
			for _, cb := range cbs {
				cb(d)
			}
		}()
	}
	return wallNS
}

// BuildDump assembles a dump from the current state: ring entries
// oldest-first, the attached registry's snapshot, and the attached
// timeline's tail. Works whether or not the recorder has tripped, so
// GET /debug/flight is useful as a live "recent history" view too.
// The recorder mutex is released before the registry and timeline are
// consulted — their own collectors may take wider locks.
func (r *Recorder) BuildDump() *Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	d := &Dump{
		GeneratedNS: time.Now().UnixNano(),
		Tripped:     r.frozen,
		Reason:      r.reason,
		Detail:      r.detail,
		TrippedNS:   r.tripNS,
		Recorded:    r.total,
		AfterFreeze: r.after,
		Info:        make(map[string]string, len(r.info)),
	}
	for k, v := range r.info {
		d.Info[k] = v
	}
	n := r.next
	if r.filled {
		d.Entries = make([]Entry, 0, len(r.ring))
		d.Entries = append(d.Entries, r.ring[n:]...)
		d.Entries = append(d.Entries, r.ring[:n]...)
	} else {
		d.Entries = append([]Entry(nil), r.ring[:n]...)
	}
	reg, tl := r.reg, r.tl
	r.mu.Unlock()

	d.Metrics = reg.Snapshot()
	d.Timeline = tl.Tail(dumpTimelineTail)
	return d
}

// ServeHTTP serves the current dump as JSON — the GET /debug/flight
// handler. The dump is built at serve time with no locks held across
// the write.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	d := r.BuildDump()
	if d == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = d.WriteJSON(w)
}

// Observer bundles the recorder and the streaming hub behind one
// nil-safe handle, so instrumented layers hold a single pointer and
// a nil Observer (or nil members) costs one branch.
type Observer struct {
	Rec *Recorder
	Hub *Hub
}

// Event records a transition in the ring and streams it to watchers
// under the stamp the ring entry got, so the two can be joined on
// wall_ns (with no ring entry — no recorder, or a frozen one — the
// frame is stamped here). Transitions whose kind is "session" carry the
// name as the session id so ?session= filters apply.
func (o *Observer) Event(kind, name, detail string, value int64) {
	if o == nil {
		return
	}
	wallNS := o.Rec.Record(kind, name, detail, value)
	if o.Hub != nil {
		if wallNS == 0 {
			wallNS = time.Now().UnixNano()
		}
		session := ""
		if kind == "session" {
			session = name
		}
		o.Hub.PublishEvent(Transition{
			Kind:    kind,
			Name:    name,
			Detail:  detail,
			Value:   value,
			Session: session,
			WallNS:  wallNS,
		})
	}
}

// Trip freezes the recorder (see Recorder.Trip) and streams the trip
// as a transition so live watchers see the failure the moment it
// happens.
func (o *Observer) Trip(reason, detail string) {
	if o == nil {
		return
	}
	wallNS := o.Rec.Trip(reason, detail)
	if o.Hub != nil {
		if wallNS == 0 {
			wallNS = time.Now().UnixNano()
		}
		o.Hub.PublishEvent(Transition{
			Kind:   "trip",
			Name:   reason,
			Detail: detail,
			WallNS: wallNS,
		})
	}
}

// Enabled reports whether the observer does anything at all.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Rec != nil || o.Hub != nil)
}

// NewObserver assembles the flight stack one process attaches: the
// ring recorder (stamped with mode and wired to reg), the /watch
// streaming hub, and the sampler feeding both with reg's metric deltas
// at the given cadence (<= 0 selects DefaultInterval). The sampler is
// returned unstarted; its owner calls Start and Stop.
func NewObserver(reg *metrics.Registry, mode string, every time.Duration) (*Observer, *Sampler) {
	rec := New(0)
	rec.SetInfo("mode", mode)
	rec.AttachRegistry(reg)
	hub := NewHub()
	return &Observer{Rec: rec, Hub: hub}, NewSampler(reg, rec, hub, every)
}

// TripOnRollbackStorm chains onto sub's throttle-collapse hook: a
// rollback storm (the optimistic window collapsing) is recorded as a
// transition and trips the recorder. Call before sub runs.
func (o *Observer) TripOnRollbackStorm(sub *core.Subsystem) {
	name, prev := sub.Name(), sub.OnThrottleCollapse
	sub.OnThrottleCollapse = func(spec, aborted int) {
		if prev != nil {
			prev(spec, aborted)
		}
		o.Event("throttle", name, "rollback storm: speculation window collapsed", int64(aborted))
		o.Trip("rollback-storm", name)
	}
}
