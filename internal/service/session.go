package service

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// state is a session's lifecycle state.
type state string

const (
	stateReady   state = "ready"   // created; advances via Step
	stateRunning state = "running" // free-running (auto_run) scheduler goroutine
	StateDone    state = "done"    // workload exhausted or horizon reached
	StateFailed  state = "failed"  // a component returned an error
	StateEvicted state = "evicted" // torn down by a budget; record remains
	stateStopped state = "stopped" // terminal; removed from the catalog
)

// session is one tenant's simulation: a private subsystem (named by
// the session id, which is also its address on the node's shared
// listener), its workload, revision counter, drive digest and
// private metrics registry.
type session struct {
	id   string
	spec Spec
	wl   workload

	// digest is read while the scheduler goroutine feeds it during Run:
	// /healthz, /metrics and List read point-in-time sums.
	digest *core.DriveDigest

	// mu guards everything below and serializes lifecycle operations;
	// lock order is session → catalog.
	mu       sync.Mutex
	sub      *core.Subsystem
	reg      *metrics.Registry // private; aggregated by Catalog.collect
	state    state
	rev      uint64
	cursor   vtime.Time // accumulated Step horizon (deterministic quanta)
	attached int64      // endpoints accepted for this session
	hosted   bool
	runErr   error
	runDone  chan struct{} // closed once the auto_run watcher records the outcome
	stepping bool          // a Step released mu to run the scheduler
	stepDone chan struct{} // closed when the in-flight Step settles

	// flight, set by build, receives lifecycle transitions; failures
	// trip it into a post-mortem. Nil-safe (disabled path).
	flight *flight.Recorder

	evictLimit          string
	evictUsed, evictMax int64
}

// Info is a point-in-time, JSON-serializable view of a session.
type Info struct {
	ID        string `json:"id"`
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	State     state  `json:"state"`
	Rev       uint64 `json:"rev"`
	Attached  int64  `json:"attached"`
	VirtNowNS int64  `json:"virt_now_ns"`
	Steps     int64  `json:"steps"`
	Drives    int64  `json:"drives"`
	Digest    string `json:"drive_digest"`
	DigestU64 uint64 `json:"-"`
	Footprint int64  `json:"footprint_bytes"`
	Error     string `json:"error,omitempty"`
}

// infoLocked snapshots the session. Called with sess.mu held; safe
// while an auto_run scheduler is live because it reads only atomic
// surfaces (PublishedTimes, Stats) and the digest, which locks itself.
func (s *session) infoLocked() Info {
	info := Info{
		ID:        s.id,
		Workload:  s.spec.Workload,
		Seed:      s.spec.Seed,
		State:     s.state,
		Rev:       s.rev,
		Attached:  s.attached,
		Footprint: s.wl.Footprint(),
	}
	if s.sub != nil {
		now, _ := s.sub.PublishedTimes()
		info.VirtNowNS = int64(now)
		st := s.sub.Stats()
		info.Steps = st.Steps
		info.Drives = st.Drives
	}
	info.DigestU64 = s.digest.Sum64()
	info.Digest = fmt.Sprintf("%016x", info.DigestU64)
	if s.runErr != nil {
		info.Error = s.runErr.Error()
	}
	return info
}

// onChannel is the node's accept hook for this session: it records
// the attachment (bumping the revision — attach is a lifecycle
// event) and lets the workload bind its split nets.
func (s *session) onChannel(ep *channel.Endpoint) {
	s.mu.Lock()
	s.attached++
	s.rev++
	sub := s.sub
	s.mu.Unlock()
	if a, ok := s.wl.(attacher); ok {
		a.Attach(sub, ep)
	}
}

// startAuto launches the free-running scheduler for auto_run
// sessions and a watcher that records how it ended. Called with
// sess.mu held, from build.
func (s *session) startAuto() {
	s.state = stateRunning
	s.runDone = make(chan struct{})
	go func() {
		err := s.sub.Run(vtime.Infinity)
		s.mu.Lock()
		if s.state == stateRunning {
			switch {
			case err == nil:
				s.state = StateDone
			case errors.Is(err, core.ErrStopped):
				// Stop is mid-flight; it owns the transition.
			default:
				s.state = StateFailed
				s.runErr = err
				s.flight.Record("session", s.id, "auto_run failed: "+err.Error(), 0)
				s.flight.Trip("session-failed", s.id+": "+err.Error())
			}
			s.rev++
		}
		s.mu.Unlock()
		// Close rather than send: any number of racing Stop callers
		// (client retries, Catalog.Close vs an HTTP DELETE) may wait on
		// runDone, and all of them must wake.
		close(s.runDone)
	}()
}
