// Package service turns a pianode host into a multi-tenant
// simulation service: a catalog of independent simulation sessions
// multiplexed over one node's shared data listener and one shared
// bounded worker pool.
//
// Each session owns a private subsystem named by its session id, so
// the node's ordinary hello routing (dials name the subsystem they
// want) is exactly the session-id routing the service needs: a
// designer attaches to session "s-7" by dialing the shared listener
// with remote subsystem "s-7". Sessions carry their own seed and
// config, a revision counter bumped by every lifecycle transition
// (create, attach, step, stop), a per-session metrics registry, and a
// running FNV-64a digest over their drive stream — the determinism
// witness: a tenant's digest must be bit-identical to the same
// workload run alone in its own process.
//
// Admission control and budgets are deterministic: a create that
// would exceed MaxSessions or the memory budgets is rejected with a
// typed BudgetError before any resources are built, and a session
// whose cumulative scheduler steps exceed MaxSteps is evicted at the
// step boundary that crossed the limit — the same boundary on every
// run of the same workload.
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/vtime"
)

// Sentinel errors, matchable with errors.Is through the typed
// wrappers below.
var (
	errNotFound   = errors.New("no such session")
	errConflict   = errors.New("session conflict")
	ErrOverBudget = errors.New("over budget")
	errBadSpec    = errors.New("bad session spec")
	errClosed     = errors.New("catalog closed")
)

// notFoundError reports an operation on an unknown session id.
type notFoundError struct{ ID string }

func (e *notFoundError) Error() string { return fmt.Sprintf("service: no such session %q", e.ID) }
func (e *notFoundError) Unwrap() error { return errNotFound }

// conflictError reports a duplicate create, a lost revision CAS, or
// an operation illegal in the session's current state.
type conflictError struct {
	ID         string
	Want, Have uint64 // CAS revisions; zero for non-CAS conflicts
	Reason     string
}

func (e *conflictError) Error() string {
	if e.Want != 0 {
		return fmt.Sprintf("service: session %q: %s (want rev %d, have %d)", e.ID, e.Reason, e.Want, e.Have)
	}
	return fmt.Sprintf("service: session %q: %s", e.ID, e.Reason)
}
func (e *conflictError) Unwrap() error { return errConflict }

// BudgetError reports an admission rejection (Evicted false) or a
// budget eviction of a live session (Evicted true).
type BudgetError struct {
	ID        string
	Limit     string // "sessions", "memory", "session-memory", "steps"
	Used, Max int64
	Evicted   bool
}

func (e *BudgetError) Error() string {
	verb := "rejected"
	if e.Evicted {
		verb = "evicted"
	}
	return fmt.Sprintf("service: session %q %s: %s budget (%d > %d)", e.ID, verb, e.Limit, e.Used, e.Max)
}
func (e *BudgetError) Unwrap() error { return ErrOverBudget }

// specError reports an invalid session spec or parameter.
type specError struct{ Reason string }

func (e *specError) Error() string { return "service: " + e.Reason }
func (e *specError) Unwrap() error { return errBadSpec }

// Limits bound what tenants may consume. Zero means unlimited.
type Limits struct {
	MaxSessions        int   // concurrent sessions in the catalog
	MaxMemBytes        int64 // summed footprint of live sessions
	MaxSessionMemBytes int64 // footprint of any single session
	MaxSteps           int64 // cumulative scheduler steps per session
}

// Config configures a Catalog.
type Config struct {
	// Workers sizes the shared worker pool fair-shared across all
	// sessions' parallel rounds. 0 runs every session sequentially.
	Workers int

	Limits Limits

	// Node, when set, hosts every session's subsystem under the
	// session id so designers can attach over the node's shared data
	// listener.
	Node *node.Node

	// Metrics, when set, receives the catalog-level series and an
	// aggregation of every session's private registry with a
	// session="<id>" label added to each sample.
	Metrics *metrics.Registry

	// Flight, when set, records session lifecycle transitions and
	// streams them to its watchers; session failures and budget
	// evictions trip the recorder into a post-mortem dump.
	Flight *flight.Recorder

	// AttributionTopN, when > 0 (and Metrics is set), turns on
	// per-component wall-cost attribution inside every session's
	// private registry: each tenant's hot components surface under
	// their session="<id>" label in the shared scrape.
	AttributionTopN int
}

// Catalog is the session catalog: the service's source of truth for
// which sessions exist, their lifecycle state, and their budgets.
type Catalog struct {
	cfg  Config
	pool *core.SharedPool

	mu        sync.Mutex
	sessions  map[string]*session
	rev       uint64 // catalog revision: bumps on create/step/stop/evict
	nextID    uint64
	closed    bool
	footprint int64 // summed live-session footprints

	created, stopped, evicted, rejected int64

	// buildFailpoint, when non-nil (tests only), runs mid-build and
	// may inject a failure: the rollback path runs after the session
	// is already published in c.sessions and has to bounce concurrent
	// lookups, so it needs a deterministic trigger.
	buildFailpoint func() error
}

// NewCatalog builds a catalog, starting the shared pool when
// cfg.Workers > 0 and registering the aggregation collector when
// cfg.Metrics is set.
func NewCatalog(cfg Config) *Catalog {
	c := &Catalog{cfg: cfg, sessions: make(map[string]*session)}
	if cfg.Workers > 0 {
		c.pool = core.NewSharedPool(cfg.Workers)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.AddCollector(c.collect)
	}
	return c
}

// Create admits and builds a new session. The id is taken from the
// spec or allocated; duplicates are a conflictError, budget misses a
// BudgetError (counted as rejections), bad specs a specError.
func (c *Catalog) Create(spec Spec) (Info, error) {
	wl, err := newWorkload(&spec)
	if err != nil {
		return Info{}, err
	}
	fp := wl.Footprint()

	sess := &session{spec: spec, wl: wl, state: stateReady, rev: 1}
	// The session lock is held across the build below so a concurrent
	// Step/Stop that finds the session in the map blocks until the
	// subsystem exists. Lock order is always session → catalog.
	sess.mu.Lock()
	defer sess.mu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Info{}, errClosed
	}
	id := spec.ID
	if id == "" {
		c.nextID++
		id = fmt.Sprintf("s-%d", c.nextID)
	}
	if _, dup := c.sessions[id]; dup {
		c.mu.Unlock()
		return Info{}, &conflictError{ID: id, Reason: "session id already exists"}
	}
	if max := c.cfg.Limits.MaxSessions; max > 0 && len(c.sessions) >= max {
		c.rejected++
		c.mu.Unlock()
		return Info{}, &BudgetError{ID: id, Limit: "sessions", Used: int64(len(c.sessions) + 1), Max: int64(max)}
	}
	if max := c.cfg.Limits.MaxSessionMemBytes; max > 0 && fp > max {
		c.rejected++
		c.mu.Unlock()
		return Info{}, &BudgetError{ID: id, Limit: "session-memory", Used: fp, Max: max}
	}
	if max := c.cfg.Limits.MaxMemBytes; max > 0 && c.footprint+fp > max {
		c.rejected++
		c.mu.Unlock()
		return Info{}, &BudgetError{ID: id, Limit: "memory", Used: c.footprint + fp, Max: max}
	}
	sess.id = id
	sess.spec.ID = id
	c.sessions[id] = sess
	c.footprint += fp
	c.created++
	c.rev++
	c.mu.Unlock()

	if err := c.build(sess); err != nil {
		// A concurrent Step/Stop may already hold the session pointer
		// and be parked on sess.mu; flip the state before the deferred
		// unlock so late lookups bounce with NotFound instead of
		// running the half-built subsystem.
		sess.state = stateStopped
		c.teardownLocked(sess)
		c.mu.Lock()
		delete(c.sessions, id)
		c.footprint -= fp
		c.created--
		c.rev++
		c.mu.Unlock()
		return Info{}, err
	}
	return sess.infoLocked(), nil
}

// build constructs the session's subsystem, workload, digest tap,
// metrics registry and node hosting. Called with sess.mu held.
func (c *Catalog) build(sess *session) error {
	sub, err := sess.wl.Build(sess.id)
	if err != nil {
		return &specError{Reason: fmt.Sprintf("build %s: %v", sess.spec.Workload, err)}
	}
	sess.sub = sub
	sess.digest = sub.DigestDrives()
	if c.buildFailpoint != nil {
		if err := c.buildFailpoint(); err != nil {
			return err
		}
	}
	if c.pool != nil {
		sub.SetPool(c.pool)
	}
	if c.cfg.Metrics != nil {
		sess.reg = metrics.NewRegistry()
		sub.EnableMetrics(sess.reg)
		if c.cfg.AttributionTopN > 0 {
			sub.EnableCostAttribution(sess.reg, c.cfg.AttributionTopN)
		}
	}
	sess.flight = c.cfg.Flight
	sess.flight.Record("session", sess.id, "created: workload "+sess.spec.Workload, 0)
	if c.cfg.Node != nil {
		h := c.cfg.Node.Host(sub)
		h.OnChannel = sess.onChannel
		// Peers may attach and inject at any time: the scheduler must
		// park instead of exiting when the event queue drains.
		sub.AddExternal()
		sess.hosted = true
	}
	if sess.spec.AutoRun != nil && *sess.spec.AutoRun {
		sess.startAuto()
	}
	return nil
}

// lookup returns the live session or a typed not-found error.
func (c *Catalog) lookup(id string) (*session, error) {
	c.mu.Lock()
	sess := c.sessions[id]
	c.mu.Unlock()
	if sess == nil {
		return nil, &notFoundError{ID: id}
	}
	return sess, nil
}

// Get returns a point-in-time view of one session.
func (c *Catalog) Get(id string) (Info, error) {
	sess, err := c.lookup(id)
	if err != nil {
		return Info{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.infoLocked(), nil
}

// List returns every live session, sorted by id, plus the catalog
// revision at the time of the copy.
func (c *Catalog) List() ([]Info, uint64) {
	c.mu.Lock()
	rev := c.rev
	all := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		all = append(all, s)
	}
	c.mu.Unlock()
	infos := make([]Info, 0, len(all))
	for _, s := range all {
		s.mu.Lock()
		infos = append(infos, s.infoLocked())
		s.mu.Unlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos, rev
}

// Step advances the session's virtual time by d (or to the
// workload's horizon when d <= 0) and bumps its revision. rev, when
// non-zero, is a compare-and-swap precondition on the current
// revision. Crossing the step budget evicts the session and reports
// a BudgetError with Evicted set.
func (c *Catalog) Step(id string, rev uint64, d vtime.Duration) (Info, error) {
	sess, err := c.lookup(id)
	if err != nil {
		return Info{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if rev != 0 && rev != sess.rev {
		return sess.infoLocked(), &conflictError{ID: id, Want: rev, Have: sess.rev, Reason: "revision mismatch"}
	}
	if sess.stepping {
		return sess.infoLocked(), &conflictError{ID: id, Reason: "a step is already in progress"}
	}
	switch sess.state {
	case StateEvicted:
		return sess.infoLocked(), &BudgetError{ID: id, Limit: sess.evictLimit, Used: sess.evictUsed, Max: sess.evictMax, Evicted: true}
	case StateFailed:
		return sess.infoLocked(), fmt.Errorf("service: session %q failed: %w", id, sess.runErr)
	case StateDone:
		return sess.infoLocked(), nil // idempotent: nothing left to run
	case stateRunning:
		return sess.infoLocked(), &conflictError{ID: id, Reason: "session is free-running (created with auto_run)"}
	case stateStopped:
		return sess.infoLocked(), &notFoundError{ID: id}
	}
	if d <= 0 {
		h := sess.wl.Horizon()
		if h == vtime.Infinity {
			return sess.infoLocked(), &specError{Reason: fmt.Sprintf("workload %s is unbounded: step needs an explicit until", sess.spec.Workload)}
		}
		if sess.cursor < h {
			sess.cursor = h
		}
	} else {
		sess.cursor = sess.cursor.Add(d)
	}
	// Run without the session lock so read-only endpoints (Get, List,
	// /metrics, /healthz) stay responsive during a long step — hosted
	// sessions can stall in Run waiting on a peer's safe-time. The
	// stepping flag makes concurrent lifecycle ops conflict instead of
	// queueing, and stepDone lets Stop wait for the run to settle.
	sess.stepping = true
	sess.stepDone = make(chan struct{})
	cursor, sub := sess.cursor, sess.sub
	sess.mu.Unlock()
	runErr := sub.Run(cursor)
	sess.mu.Lock()
	sess.stepping = false
	close(sess.stepDone)
	sess.stepDone = nil
	sess.rev++
	c.bumpRev()
	if runErr != nil && !errors.Is(runErr, core.ErrStopped) {
		sess.state = StateFailed
		sess.runErr = runErr
		sess.flight.Record("session", id, "failed: "+runErr.Error(), sess.sub.Stats().Steps)
		sess.flight.Trip("session-failed", id+": "+runErr.Error())
		return sess.infoLocked(), runErr
	}
	if h := sess.wl.Horizon(); (h != vtime.Infinity && sess.cursor >= h) || sess.sub.NextEventTime() == vtime.Infinity {
		sess.state = StateDone
		sess.flight.Record("session", id, "done", sess.sub.Stats().Steps)
	}
	if max := c.cfg.Limits.MaxSteps; max > 0 {
		if steps := sess.sub.Stats().Steps; steps > max {
			c.evictLocked(sess, "steps", steps, max)
			return sess.infoLocked(), &BudgetError{ID: id, Limit: "steps", Used: steps, Max: max, Evicted: true}
		}
	}
	return sess.infoLocked(), nil
}

// Stop tears the session down and removes it from the catalog. rev,
// when non-zero, is a CAS precondition. Stopping an evicted session
// just removes the record (it was already torn down).
func (c *Catalog) Stop(id string, rev uint64) (Info, error) {
	sess, err := c.lookup(id)
	if err != nil {
		return Info{}, err
	}
	sess.mu.Lock()
	if rev != 0 && rev != sess.rev {
		defer sess.mu.Unlock()
		return sess.infoLocked(), &conflictError{ID: id, Want: rev, Have: sess.rev, Reason: "revision mismatch"}
	}
	if sess.state == stateStopped { // lost a concurrent Stop race
		sess.mu.Unlock()
		return Info{}, &notFoundError{ID: id}
	}
	// Halt a live scheduler — the auto_run goroutine or an in-flight
	// Step — without holding the lock (the runner takes it to record
	// the outcome). Both channels are closed once the run settles, so
	// every racing Stop wakes; only the first to re-acquire the lock
	// tears down, the rest bounce on the stateStopped re-check.
	var done chan struct{}
	if sess.state == stateRunning {
		done = sess.runDone
	} else if sess.stepping {
		done = sess.stepDone
	}
	if done != nil {
		sess.sub.Stop()
		sess.mu.Unlock()
		<-done
		sess.mu.Lock()
		if sess.state == stateStopped { // lost a concurrent Stop race
			sess.mu.Unlock()
			return Info{}, &notFoundError{ID: id}
		}
	}
	wasEvicted := sess.state == StateEvicted
	if !wasEvicted {
		c.teardownLocked(sess)
	}
	sess.state = stateStopped
	sess.flight.Record("session", id, "stopped", 0)
	sess.rev++
	info := sess.infoLocked()
	sess.mu.Unlock()

	c.mu.Lock()
	if _, ok := c.sessions[id]; ok {
		delete(c.sessions, id)
		c.stopped++
		if !wasEvicted {
			c.footprint -= sess.wl.Footprint()
		}
		c.rev++
	}
	c.mu.Unlock()
	return info, nil
}

// evictLocked forcibly retires an over-budget session: teardown,
// unhost, pool detach. The record stays in the catalog (state
// evicted) so the tenant can observe why; Stop removes it. Called
// with sess.mu held.
func (c *Catalog) evictLocked(sess *session, limit string, used, max int64) {
	sess.state = StateEvicted
	sess.evictLimit, sess.evictUsed, sess.evictMax = limit, used, max
	sess.rev++
	sess.flight.Record("session", sess.id, fmt.Sprintf("evicted: %s budget (%d > %d)", limit, used, max), used)
	sess.flight.Trip("session-evicted", fmt.Sprintf("%s: %s budget (%d > %d)", sess.id, limit, used, max))
	c.teardownLocked(sess)
	c.mu.Lock()
	c.evicted++
	c.footprint -= sess.wl.Footprint()
	c.rev++
	c.mu.Unlock()
}

// teardownLocked releases a session's runtime resources. Called with
// sess.mu held and the session not running.
func (c *Catalog) teardownLocked(sess *session) {
	if sess.sub == nil {
		return
	}
	sess.sub.Teardown()
	if sess.hosted {
		c.cfg.Node.Unhost(sess.id)
		sess.hosted = false
	}
	if c.pool != nil {
		c.pool.Forget(sess.sub)
	}
}

func (c *Catalog) bumpRev() {
	c.mu.Lock()
	c.rev++
	c.mu.Unlock()
}

// stats is a point-in-time summary of catalog-level counters.
type stats struct {
	Live      int   `json:"live"`
	Created   int64 `json:"created"`
	Stopped   int64 `json:"stopped"`
	Evicted   int64 `json:"evicted"`
	Rejected  int64 `json:"rejected"`
	Footprint int64 `json:"footprint_bytes"`
}

// Stats returns the catalog counters.
func (c *Catalog) Stats() stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stats{
		Live:      len(c.sessions),
		Created:   c.created,
		Stopped:   c.stopped,
		Evicted:   c.evicted,
		Rejected:  c.rejected,
		Footprint: c.footprint,
	}
}

// Close stops every session and joins the shared pool. Creates after
// Close fail with errClosed.
func (c *Catalog) Close() {
	c.mu.Lock()
	c.closed = true
	ids := make([]string, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, id := range ids {
		_, _ = c.Stop(id, 0)
	}
	if c.pool != nil {
		c.pool.Close()
	}
}

// collect is the aggregation collector registered on the shared
// registry: catalog-level series plus every session's private
// registry re-emitted with a session="<id>" label. Lock order note:
// the shared registry's lock is held around this call, and we take
// only the catalog lock inside — never a path that re-enters the
// shared registry.
func (c *Catalog) collect(emit func(metrics.Sample)) {
	c.mu.Lock()
	all := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		all = append(all, s)
	}
	counters := []struct {
		name string
		kind string
		v    int64
	}{
		{"pia_service_sessions_live", metrics.KindGauge, int64(len(c.sessions))},
		{"pia_service_footprint_bytes", metrics.KindGauge, c.footprint},
		{"pia_service_catalog_revision", metrics.KindGauge, int64(c.rev)},
		{"pia_service_sessions_created", metrics.KindCounter, c.created},
		{"pia_service_sessions_stopped", metrics.KindCounter, c.stopped},
		{"pia_service_sessions_evicted", metrics.KindCounter, c.evicted},
		{"pia_service_sessions_rejected", metrics.KindCounter, c.rejected},
	}
	c.mu.Unlock()
	for _, kv := range counters {
		emit(metrics.Sample{Name: kv.name, Kind: kv.kind, Value: kv.v})
	}
	for _, s := range all {
		// s.reg is written by build() under s.mu after the session is
		// already published in c.sessions, so it must be read under the
		// same lock. Steps release s.mu while the scheduler runs, so a
		// scrape never blocks behind a long step.
		s.mu.Lock()
		id, reg := s.id, s.reg
		s.mu.Unlock()
		if reg == nil {
			continue
		}
		for _, smp := range reg.Snapshot() {
			smp.Name = metrics.AddLabel(smp.Name, "session", id)
			emit(smp)
		}
	}
}
