package flight

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// subQueueCap bounds each watcher's frame queue. A client that falls
// this many frames behind is dropped rather than ever exerting
// backpressure on a recorder. Sized to absorb lifecycle bursts — a
// catalog teardown records one "stopped" transition per live session
// faster than any reader can drain frames — while still catching a
// genuinely stalled client within one sampling interval's traffic.
const subQueueCap = 256

// metricDelta is one changed metric in a sampling interval.
type metricDelta struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Delta int64  `json:"delta"`
}

// metricFrame is the JSON body of one "metrics" SSE event.
type metricFrame struct {
	WallNS  int64         `json:"wall_ns"`
	Changed []metricDelta `json:"changed"`
}

// frame is one SSE event queued to a watcher.
type frame struct {
	event string
	data  []byte
}

type subscriber struct {
	ch      chan frame
	session string // ?session= filter ("" = all)
	prefix  string // ?prefix= filter on metric names ("" = all)
	gone    bool   // closed and removed (guarded by Recorder.mu)
}

// matchEntry reports whether a transition passes the watcher's session
// filter. Global transitions (no session) always pass, so a tenant
// watching one session still sees node-wide failures.
func (s *subscriber) matchEntry(e *entry) bool {
	return s.session == "" || e.Session == "" || e.Session == s.session
}

// matchMetric reports whether a metric sample name passes the
// watcher's filters. The session filter matches the rendered
// session="id" label the service-mode aggregator stamps on tenant
// samples.
func (s *subscriber) matchMetric(name string) bool {
	if s.prefix != "" && !strings.HasPrefix(name, s.prefix) {
		return false
	}
	if s.session != "" && !strings.Contains(name, `session="`+s.session+`"`) {
		return false
	}
	return true
}

// subscribers returns the current live watcher count.
func (r *Recorder) subscribers() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Dropped returns how many watchers have been dropped for falling
// behind.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Sent returns how many frames have been enqueued to watchers.
func (r *Recorder) Sent() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent
}

// enqueueLocked delivers a frame to one watcher or drops the watcher:
// delivery is strictly non-blocking, so a recorder never waits on a
// slow or dead client. Caller holds r.mu, which is what makes
// close-vs-send race-free.
func (r *Recorder) enqueueLocked(s *subscriber, f frame) {
	select {
	case s.ch <- f:
		r.sent++
	default:
		// Queue full: the client is stalled. Cut it loose.
		r.removeLocked(s)
		r.dropped++
	}
}

func (r *Recorder) removeLocked(s *subscriber) {
	if s.gone {
		return
	}
	s.gone = true
	delete(r.subs, s)
	close(s.ch)
}

// publishLocked streams one transition to every matching watcher. It
// takes e by value so that an entry recorded with no watcher never
// escapes to the heap.
func (r *Recorder) publishLocked(e entry) {
	if len(r.subs) == 0 {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	for s := range r.subs {
		if s.matchEntry(&e) {
			r.enqueueLocked(s, frame{event: "transition", data: b})
		}
	}
}

// publishMetricsLocked streams a batch of changed metrics. Each
// watcher receives only the samples passing its filters; watchers
// whose filtered view is empty get no frame.
func (r *Recorder) publishMetricsLocked(wallNS int64, changed []metricDelta) {
	for s := range r.subs {
		view := changed
		if s.session != "" || s.prefix != "" {
			view = nil
			for _, d := range changed {
				if s.matchMetric(d.Name) {
					view = append(view, d)
				}
			}
			if len(view) == 0 {
				continue
			}
		}
		b, err := json.Marshal(metricFrame{WallNS: wallNS, Changed: view})
		if err != nil {
			continue
		}
		r.enqueueLocked(s, frame{event: "metrics", data: b})
	}
}

// subscribe registers a new watcher with the given filters.
func (r *Recorder) subscribe(session, prefix string) *subscriber {
	s := &subscriber{
		ch:      make(chan frame, subQueueCap),
		session: session,
		prefix:  prefix,
	}
	r.mu.Lock()
	r.subs[s] = struct{}{}
	r.mu.Unlock()
	return s
}

// unsubscribe removes a watcher when its handler returns (client hung
// up). Idempotent with a recorder-side drop.
func (r *Recorder) unsubscribe(s *subscriber) {
	r.mu.Lock()
	r.removeLocked(s)
	r.mu.Unlock()
}

// Watch is the GET /watch handler: a Server-Sent Events stream of
// "metrics" and "transition" frames. Query parameters:
//
//	?session=<id>   only that tenant's transitions and samples
//	                (plus global transitions)
//	?prefix=<base>  only metric names with this prefix
//
// The watcher is subscribed before the opening "hello" frame is
// written. The stream ends when the client disconnects or when the
// recorder drops the watcher for stalling.
func (r *Recorder) Watch(w http.ResponseWriter, req *http.Request) {
	if r == nil {
		http.Error(w, "telemetry streaming disabled", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// An SSE stream outlives any sane server WriteTimeout; clear the
	// per-request deadline so the hosting server can keep a tight
	// timeout for its other endpoints. Best-effort: a server that
	// does not support it just keeps its timeout.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	q := req.URL.Query()
	sub := r.subscribe(q.Get("session"), q.Get("prefix"))
	defer r.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write([]byte("event: hello\ndata: {\"wall_ns\":" +
		strconv.FormatInt(time.Now().UnixNano(), 10) + "}\n\n")); err != nil {
		return
	}
	fl.Flush()

	ctx := req.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case f, ok := <-sub.ch:
			if !ok {
				// Dropped by the recorder for stalling.
				return
			}
			if _, err := w.Write([]byte("event: " + f.event + "\ndata: ")); err != nil {
				return
			}
			if _, err := w.Write(f.data); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
