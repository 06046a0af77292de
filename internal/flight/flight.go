// Package flight is Pia's black-box layer: one recorder that keeps a
// bounded, allocation-recycled ring of recent observability events,
// streams each one live to SSE watchers (GET /watch), and freezes into
// a self-contained JSON post-mortem when a failure trigger fires.
//
// The same design constraint that shapes internal/metrics applies
// here: simulations that never enable flight recording must pay
// nothing. Every entry point is nil-receiver-safe, and the enabled
// record path with no watcher writes into a pre-allocated ring slot —
// no per-record allocation.
//
// Lock discipline: the recorder mutex is a leaf lock. Record and Trip
// write the ring slot and enqueue the watchers' frames under it, never
// waiting on a watcher; Trip then builds the dump (registry snapshot,
// timeline tail) on a fresh goroutine with no locks held — so both are
// safe to call from the scheduler goroutine, from under a session
// mutex, or from a node's pump goroutine without deadlocking against
// the collectors that those paths feed.
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

// defaultRingSize is the recorder capacity when New is given a
// non-positive size.
const defaultRingSize = 512

// dumpTimelineTail caps how many trailing timeline events a dump
// embeds; the full timeline is still available via WriteTimeline.
const dumpTimelineTail = 256

// entry is one recorded observation: a session/health transition, a
// changed metric, or a trigger note. Entries live in a fixed ring and
// are overwritten in place; strings are retained by reference. A
// streamed /watch "transition" frame is the same Entry, so the two
// join on seq and wall_ns; one recorded after the ring froze has seq 0.
// Entries of kind "session" carry the name as the session id, which
// ?session= filters match.
type entry struct {
	Seq     uint64 `json:"seq"`
	WallNS  int64  `json:"wall_ns"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	Value   int64  `json:"value,omitempty"`
	Session string `json:"session,omitempty"`
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
	Entries     []entry           `json:"entries"`
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
// recycled in place, and the watchers each recorded transition is
// streamed to. A nil *Recorder is inert, which is the whole disabled
// path.
type Recorder struct {
	mu     sync.Mutex
	ring   []entry
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

	subs    map[*subscriber]struct{} // live /watch streams
	dropped uint64                   // watchers cut loose for stalling
	sent    uint64                   // frames enqueued to watchers
}

// New returns a recorder with the given ring capacity (defaultRingSize
// if size <= 0).
func New(size int) *Recorder {
	if size <= 0 {
		size = defaultRingSize
	}
	return &Recorder{
		ring: make([]entry, size),
		info: map[string]string{
			"version": metrics.BuildVersion(),
		},
		subs: make(map[*subscriber]struct{}),
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

// Record appends one transition to the ring, overwriting the oldest
// slot when full, and streams the same entry to every matching
// watcher. After a trip the ring is frozen: the post-mortem keeps the
// moments before the failure, and later records only bump a counter,
// though watchers still see them. Nil-safe, and allocation-free with
// no watcher attached.
func (r *Recorder) Record(kind, name, detail string, value int64) {
	if r == nil {
		return
	}
	e := entry{Kind: kind, Name: name, Detail: detail, Value: value}
	if kind == "session" {
		e.Session = name
	}
	r.mu.Lock()
	e.WallNS = time.Now().UnixNano()
	if r.frozen {
		r.after++
	} else {
		r.writeLocked(&e)
	}
	r.publishLocked(e)
	r.mu.Unlock()
}

// writeLocked stamps e with the next seq and copies it into the ring.
func (r *Recorder) writeLocked(e *entry) {
	r.total++
	e.Seq = r.total
	r.ring[r.next] = *e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
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

// Trip records a "trip" entry, freezes the ring on the first failure
// trigger and kicks off dump delivery to the OnTrip callbacks on a
// fresh goroutine. Only the first trip freezes and writes the ring;
// every trip is streamed to watchers so they see the failure the
// moment it happens. Safe to call while holding any caller-side lock:
// nothing beyond the recorder's own leaf mutex is touched
// synchronously.
func (r *Recorder) Trip(reason, detail string) {
	if r == nil {
		return
	}
	e := entry{Kind: "trip", Name: reason, Detail: detail}
	var cbs []func(*Dump)
	r.mu.Lock()
	e.WallNS = time.Now().UnixNano()
	if !r.frozen {
		r.writeLocked(&e)
		r.frozen = true
		r.reason = reason
		r.detail = detail
		r.tripNS = e.WallNS
		cbs = append(cbs, r.onTrip...)
	}
	r.publishLocked(e)
	r.mu.Unlock()
	if len(cbs) > 0 {
		go func() {
			d := r.BuildDump()
			for _, cb := range cbs {
				cb(d)
			}
		}()
	}
}

// recordMetrics writes one sampling tick's changed series into the
// ring as "metric" entries and streams them as one "metrics" frame,
// not as transitions; all share the tick's stamp.
func (r *Recorder) recordMetrics(changed []metricDelta) {
	if r == nil || len(changed) == 0 {
		return
	}
	r.mu.Lock()
	now := time.Now().UnixNano()
	for _, d := range changed {
		if r.frozen {
			r.after++
			continue
		}
		r.writeLocked(&entry{WallNS: now, Kind: "metric", Name: d.Name, Value: d.Value})
	}
	r.publishMetricsLocked(now, changed)
	r.mu.Unlock()
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
		d.Entries = make([]entry, 0, len(r.ring))
		d.Entries = append(d.Entries, r.ring[n:]...)
		d.Entries = append(d.Entries, r.ring[:n]...)
	} else {
		d.Entries = append([]entry(nil), r.ring[:n]...)
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

// TripOnRollbackStorm chains onto sub's throttle-collapse hook: a
// rollback storm (the optimistic window collapsing) is recorded as a
// transition and trips the recorder. Call before sub runs.
func (r *Recorder) TripOnRollbackStorm(sub *core.Subsystem) {
	name, prev := sub.Name(), sub.OnThrottleCollapse
	sub.OnThrottleCollapse = func(spec, aborted int) {
		if prev != nil {
			prev(spec, aborted)
		}
		r.Record("throttle", name, "rollback storm: speculation window collapsed", int64(aborted))
		r.Trip("rollback-storm", name)
	}
}
