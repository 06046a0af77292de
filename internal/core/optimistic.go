package core

// Optimistic (Time Warp) execution.
//
// The conservative round model (parallel.go) dispatches only the
// components whose next action lies strictly below the safe horizon
// H = min(key+outLA). On low-lookahead topologies H collapses onto
// the minimum key and rounds degenerate to sequential steps even
// though most pending actions are, in fact, causally independent —
// the conservative analysis just cannot prove it. The optimistic mode
// gambles on that independence: when the safe cohort would leave pool
// workers idle, components whose next action falls in [H, B) with
// B = H + W (W the optimism window) are dispatched too, after a
// lightweight per-component image is captured. Their effects are
// buffered exactly like safe members' and nothing outside the round
// can observe them before the merge, so the gamble is confined to the
// round: the merge either commits a speculation or undoes it without
// anti-messages.
//
// Straggler detection. Every round delivery arrives at or after H
// (sends from below H carry at least outLA of delay; sends from
// speculative members happen at or after their entry key >= H), so
// safe members can never observe a missing message and are never
// rolled back. A speculative member m can be wrong two ways:
//
//  1. Direct straggler: a buffered drive with delivery time
//     d <= m's executed clock proves m ran without an input the
//     sequential schedule would have given it first. The tie at
//     d == viewNow additionally requires the send to canonically
//     precede m's action at d under the (time, component-index)
//     order.
//
//  2. The GVT commit rule: the sequential scheduler emits actions
//     (drives, runlevel notes, deliveries) in globally non-decreasing
//     canonical (time, component-index) order, and components that
//     merely parked near the horizon will act again next iteration.
//     A speculation is only proven once every other pending action
//     in the system lies canonically after it. The merge therefore
//     computes the post-round GVT — the lexicographic minimum
//     next-action position over every component, where a component's
//     next key folds in both its parked key and the earliest round
//     delivery destined to it — and aborts every speculative member
//     whose executed position reached the GVT. Aborting a member
//     lowers its own next key back to its entry key, so the rule
//     runs as a monotone fixpoint. This subsumes the
//     transitive-consumer subtree (any member that consumed or raced
//     a doomed output necessarily executed at or past the GVT) and
//     is what keeps drive counts, virtual times and drive digests
//     bit-identical to the sequential kernel at any worker count.
//
// Rollback. Speculative members only shrink their inboxes during a
// round (fanout happens at merge), so the journal of popped events
// plus the pre-round image (behaviour state, local clock, runlevel,
// memory words) restores the member exactly; the goroutine is
// unwound and re-enters Run from the restored state under the usual
// StateSaver replay contract. Rolled-back work never reaches a drive
// observer, metrics or canonical timeline exports; the only
// record is a transient straggler-kind timeline span and the
// pia_optimistic_* counters.
//
// The throttle. Speculation is charged per round: a checkpoint per
// speculative member plus discarded work on rollback. When rollbacks
// dominate, the adaptive throttle halves the effective window (down
// to conservative-only, retried after a cooldown) and re-earns the
// configured window after a clean streak, so a hostile topology pays
// at most the checkpoint overhead over pure conservatism.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vtime"
)

const (
	// optCooldownRounds is how many optimistic opportunities are
	// skipped after the throttle collapses the window to zero before
	// a small window is retried.
	optCooldownRounds = 64
	// optRegrowRounds is the clean-round streak that doubles a
	// shrunken window back toward the configured one.
	optRegrowRounds = 8
)

// SetOptimism sets the optimistic (Time Warp) window: with w > 0 and
// a worker pool configured (SetWorkers or SetPool), rounds whose safe cohort
// leaves workers idle dispatch checkpointable components
// speculatively up to w past the safe horizon, rolling back on
// stragglers at merge time. Results stay bit-identical to the
// sequential kernel. 0 (the default) keeps rounds purely
// conservative. Speculative dispatch requires the component's
// behaviour to implement StateSaver; components that don't simply
// stay conservative. Only legal between runs.
func (s *Subsystem) SetOptimism(w vtime.Duration) {
	if w < 0 {
		w = 0
	}
	s.optimism = w
	s.optThrottle = true // in-package tests clear it to pin the window
}

// optimismWindow returns the effective window for the next round,
// advancing the throttle's cooldown state.
func (s *Subsystem) optimismWindow() vtime.Duration {
	if s.optimism == 0 {
		return 0
	}
	if !s.optThrottle {
		return s.optimism
	}
	if s.effOpt == 0 {
		if s.optCool > 0 {
			s.optCool--
			return 0
		}
		// Cooldown over: retry with a small window and let the clean
		// streak earn the rest back.
		s.effOpt = s.optimism / 8
		if s.effOpt == 0 {
			s.effOpt = 1
		}
	}
	return s.effOpt
}

// noteSpecOutcome feeds one optimistic round's result to the
// adaptive throttle: a rollback ratio above 1/2 halves the window
// (entering a cooldown when it collapses), a clean streak regrows it.
func (s *Subsystem) noteSpecOutcome(spec, aborted int) {
	if !s.optThrottle {
		return
	}
	switch {
	case aborted*2 > spec:
		s.optClean = 0
		s.effOpt /= 2
		if s.effOpt == 0 {
			s.optCool = optCooldownRounds
			for i := range s.observers {
				if f := s.observers[i].ThrottleCollapse; f != nil {
					f(spec, aborted)
				}
			}
		}
	case aborted > 0:
		s.optClean = 0
	default:
		s.optClean++
		if s.optClean >= optRegrowRounds && s.effOpt < s.optimism {
			s.optClean = 0
			s.effOpt *= 2
			if s.effOpt > s.optimism || s.effOpt <= 0 {
				s.effOpt = s.optimism
			}
		}
	}
}

// captureSpec images c for a speculative dispatch: the component's
// checkpoint Image minus the inbox (pops are journaled instead — a
// speculating member only ever shrinks its inbox, so restore is a
// re-push), held by value in the component so a dispatch costs no more
// than SaveState does. Returns false — keeping the component out of
// the speculative cohort — when the behaviour cannot be checkpointed.
func (s *Subsystem) captureSpec(c *Component) bool {
	var err error
	c.specImg, err = c.captureImage()
	return err == nil
}

// detectStragglers marks every speculative round member whose
// execution is invalidated: directly by a straggler (a buffered drive
// delivering at or before the member's executed clock) or by the GVT
// commit rule (some other pending action in the system lies
// canonically before the member's executed position, so committing it
// would emit out of sequential order). Runs on the scheduler
// goroutine after the round barrier; pure detection, no side effects
// are applied. Returns the abort count.
func (s *Subsystem) detectStragglers(members []*Component) int {
	s.specGen++
	gen := s.specGen
	// Pass 1: sweep every buffered drive once, recording the earliest
	// in-round delivery destined to each component (mirroring the
	// merge fanout: no self-delivery, hidden ports are sinks, not
	// schedulable listeners) and applying the precise per-delivery
	// straggler rule to speculative targets. Every drive counts, even
	// a later-aborted sender's: its deliveries vanish, so counting
	// them can only over-abort, which is sound — missing one is not.
	touch := func(m *Component, d vtime.Time) {
		if m.specSeen != gen {
			m.specSeen = gen
			m.specMinDeliv = d
			if !m.active {
				s.specTouched = append(s.specTouched, m)
			}
		} else if d < m.specMinDeliv {
			m.specMinDeliv = d
		}
	}
	aborted := 0
	for _, c := range members {
		b := c.wbuf
		b.postKey = c.key()
		// A member that observed nothing and emitted nothing is inert:
		// it popped no delivery, expired no deadline (an expiry is a
		// negative observation a straggler can invalidate) and wrote
		// no op, so its round execution is the deterministic,
		// emission-free Run prefix over its own state — the same
		// transition the sequential scheduler performs whenever it
		// first reaches the member — and it commits unconditionally.
		// Deliveries merged afterwards land in its parked inbox
		// exactly as they would have sequentially. This matters at
		// startup, where every checkpointable component sits at key 0
		// waiting for input and would otherwise tie-abort against
		// whichever component the canonical order runs first.
		b.inert = b.spec && len(b.ops) == 0 && len(b.popped) == 0 && !b.expired
	}
	for _, c := range members {
		b := c.wbuf
		for i := range b.ops {
			op := &b.ops[i]
			if op.kind != opDrive {
				continue
			}
			d := op.t.Add(op.net.Delay)
			for _, pt := range op.net.ports {
				m := pt.comp
				if m == nil || m == c || pt.hidden {
					continue
				}
				touch(m, d)
				mb := m.wbuf
				if mb == nil || !mb.spec || mb.aborted || mb.inert {
					continue
				}
				if d > m.viewNow {
					continue // ordinary future delivery
				}
				if d == m.viewNow && !(op.at < d || (op.at == d && c.index < m.index)) {
					continue // m's action at d canonically precedes the send
				}
				// Straggler: m executed past an input it should have
				// seen first.
				mb.aborted = true
				aborted++
			}
		}
	}
	// Pass 2: the GVT fixpoint. A component's next-action position is
	// (min(next key, earliest round delivery to it), index), where the
	// next key is the post-round parked key for surviving members, the
	// entry key for aborted ones (replay resumes there — the re-entry
	// prefix up to the saved park emits nothing, per the StateSaver
	// contract), and the cached scan key for everyone else. A
	// speculative member may commit only if its executed position
	// (viewNow, index) does not lexicographically exceed the minimum
	// over all these positions; aborting a member lowers its own
	// position back to its entry key, so iterate to the fixpoint.
	for {
		gvtT := vtime.Infinity
		gvtI := int(^uint(0) >> 1)
		consider := func(c *Component, k vtime.Time, foldDeliv bool) {
			if foldDeliv && c.specSeen == gen && c.specMinDeliv < k {
				k = c.specMinDeliv
			}
			if k < gvtT || (k == gvtT && c.index < gvtI) {
				gvtT, gvtI = k, c.index
			}
		}
		for _, c := range s.active {
			if b := c.wbuf; b != nil {
				if b.aborted {
					// Replays from its entry key; committed deliveries
					// may wake the restored state even earlier.
					consider(c, c.planKey, true)
				} else {
					// A member that finished mid-round is finished in
					// the sequential schedule too by the time any later
					// delivery lands: dead letters don't bound the GVT.
					consider(c, b.postKey, c.status != statusDone)
				}
			} else {
				consider(c, c.planKey, true)
			}
		}
		for _, c := range s.specTouched {
			if c.status != statusDone {
				consider(c, vtime.Infinity, true)
			}
		}
		changed := false
		for _, c := range members {
			b := c.wbuf
			if !b.spec || b.aborted || b.inert {
				continue
			}
			if c.viewNow > gvtT || (c.viewNow == gvtT && c.index > gvtI) {
				b.aborted = true
				aborted++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	s.specTouched = s.specTouched[:0]
	return aborted
}

// rollbackSpec restores one straggler-hit member to its pre-round
// image: the goroutine is unwound, behaviour state, clocks, runlevel
// and memory words restored, and the journaled inbox pops pushed
// back. The member re-enters Run from the restored state (the
// StateSaver replay contract) and will be rescheduled at its restored
// key — necessarily at or past the commit wall, so replay order
// matches the sequential schedule. Canonical outputs never saw the
// discarded work; the only traces are the pia_optimistic_* counters
// and a transient straggler-kind timeline span.
func (s *Subsystem) rollbackSpec(c *Component) {
	b := c.wbuf
	specNow := c.viewNow
	if err := c.restoreImage(&c.specImg); err != nil && s.fatal == nil {
		s.fatal = fmt.Errorf("core: optimistic rollback of %s: %w", c.name, err)
	}
	for i := range b.popped {
		if err := c.restock(&b.popped[i]); err != nil && s.fatal == nil {
			s.fatal = fmt.Errorf("core: optimistic rollback of %s: %w", c.name, err)
		}
	}
	c.specImg = Image{}
	atomic.AddInt64(&s.stats.Rollbacks, 1)
	atomic.AddInt64(&s.stats.RolledBack, int64(len(b.ops)))
	s.tlRec.Straggler("", c.name, "", c.localTime, specNow)
}
