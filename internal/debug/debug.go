// Package debug implements the debugger the paper lists as current
// work ("Current work is in the extension of Pia to include a
// debugger"): run-until-breakpoint, single-stepping the subsystem
// scheduler, and inspection of components, nets and virtual time.
//
// Breakpoint conditions reuse the switchpoint expression language of
// package detail, so designers write the same predicates for
// debugging as for detail switching:
//
//	bp, _ := dbg.AddBreak("cpu >= 1_000 & dma_busy >= 1")
//	hit, _ := dbg.Continue(pia.Infinity)
//
// The debugger drives one subsystem; a distributed session uses one
// debugger per subsystem (breaking one subsystem simply stalls its
// peers through the ordinary safe-time protocol, which is what makes
// cross-site debugging workable at all).
package debug

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/detail"
	"repro/internal/vtime"
)

// Breakpoint pauses the run when its condition over component local
// times becomes true.
type Breakpoint struct {
	ID      int
	Source  string
	Cond    detail.Expr
	OneShot bool // delete after the first hit
	Hits    int

	enabled bool
}

// Enabled reports whether the breakpoint is armed.
func (b *Breakpoint) Enabled() bool { return b.enabled }

// Hit describes why a run paused.
type Hit struct {
	Break *Breakpoint // nil for single-step or watch hits
	Watch *Watchpoint // nil unless a watchpoint fired
	Time  vtime.Time  // subsystem time at the pause
	Value any         // the triggering net value for watch hits
}

// Watchpoint pauses when a net is driven (optionally filtered).
type Watchpoint struct {
	ID     int
	Net    string
	Filter func(v any) bool // nil: any drive
	Hits   int

	enabled bool
}

// Debugger wraps one subsystem with break/step/inspect controls. All
// methods are for the controlling goroutine; Continue and Step run
// the subsystem synchronously.
type Debugger struct {
	sub *core.Subsystem

	mu      sync.Mutex
	nextID  int
	breaks  []*Breakpoint
	watches []*Watchpoint

	stepBudget int  // >0: stop after this many scheduler steps
	pendingHit *Hit // set by the observers, consumed by Continue/Step
}

// New attaches a debugger to the subsystem, after any observer it
// already has. Attach before running.
func New(sub *core.Subsystem) *Debugger {
	d := &Debugger{sub: sub}
	sub.Observe(core.Observer{Step: d.onStep, Drive: d.onDrive})
	return d
}

// AddBreak parses and arms a breakpoint condition (the switchpoint
// expression language: comparisons on component local times combined
// with & and |).
func (d *Debugger) AddBreak(cond string) (*Breakpoint, error) {
	expr, err := detail.ParseExpr(cond)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	bp := &Breakpoint{ID: d.nextID, Source: cond, Cond: expr, enabled: true}
	d.breaks = append(d.breaks, bp)
	return bp, nil
}

// AddWatch arms a watchpoint on a net; filter may be nil.
func (d *Debugger) AddWatch(net string, filter func(v any) bool) (*Watchpoint, error) {
	if d.sub.Net(net) == nil {
		return nil, fmt.Errorf("debug: no net %q", net)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	wp := &Watchpoint{ID: d.nextID, Net: net, Filter: filter, enabled: true}
	d.watches = append(d.watches, wp)
	return wp, nil
}

// Remove disarms a breakpoint or watchpoint by ID.
func (d *Debugger) Remove(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, b := range d.breaks {
		if b.ID == id && b.enabled {
			b.enabled = false
			return true
		}
	}
	for _, w := range d.watches {
		if w.ID == id && w.enabled {
			w.enabled = false
			return true
		}
	}
	return false
}

// onStep evaluates breakpoints and the step budget (scheduler
// goroutine).
func (d *Debugger) onStep(now vtime.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pendingHit != nil {
		return // already stopping
	}
	if d.stepBudget > 0 {
		d.stepBudget--
		if d.stepBudget == 0 {
			d.pendingHit = &Hit{Time: now}
			d.sub.Stop()
			return
		}
	}
	ts := func(name string) (vtime.Time, bool) {
		c := d.sub.Component(name)
		if c == nil {
			return 0, false
		}
		return c.LocalTime(), true
	}
	for i, bp := range d.breaks {
		if !bp.enabled || !bp.Cond.Eval(ts) {
			continue
		}
		bp.Hits++
		// Level-triggered conditions (>=) would re-fire on every step:
		// disarm until explicitly re-enabled via Rearm, or, one-shot,
		// delete.
		bp.enabled = false
		if bp.OneShot {
			d.breaks = slices.Delete(d.breaks, i, i+1)
		}
		d.pendingHit = &Hit{Break: bp, Time: now}
		d.sub.Stop()
		return
	}
}

// Rearm re-enables a previously hit breakpoint. A one-shot breakpoint
// is deleted at its hit, and Rearm reports false for it.
func (d *Debugger) Rearm(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, b := range d.breaks {
		if b.ID == id {
			b.enabled = true
			return true
		}
	}
	return false
}

// onDrive evaluates watchpoints (scheduler goroutine).
func (d *Debugger) onDrive(net, _ string, t vtime.Time, v any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pendingHit != nil {
		return
	}
	for _, wp := range d.watches {
		if !wp.enabled || wp.Net != net {
			continue
		}
		if wp.Filter != nil && !wp.Filter(v) {
			continue
		}
		wp.Hits++
		d.pendingHit = &Hit{Watch: wp, Time: t, Value: v}
		d.sub.Stop()
		return
	}
}

// Continue runs until a breakpoint or watchpoint fires, the horizon
// is reached, or the simulation completes. A nil Hit means no
// break occurred.
func (d *Debugger) Continue(until vtime.Time) (*Hit, error) {
	err := d.sub.Run(until)
	d.mu.Lock()
	hit := d.pendingHit
	d.pendingHit = nil
	d.mu.Unlock()
	if errors.Is(err, core.ErrStopped) {
		if hit != nil {
			return hit, nil
		}
		return nil, err // a foreign Stop
	}
	return nil, err
}

// Step executes exactly n scheduler steps (component resumptions)
// and pauses. It returns early with the responsible Hit if a
// breakpoint or watchpoint fires first.
func (d *Debugger) Step(n int, until vtime.Time) (*Hit, error) {
	if n <= 0 {
		return nil, fmt.Errorf("debug: step count must be positive")
	}
	d.mu.Lock()
	d.stepBudget = n
	d.mu.Unlock()
	hit, err := d.Continue(until)
	d.mu.Lock()
	d.stepBudget = 0
	d.mu.Unlock()
	return hit, err
}

// ComponentInfo is an inspection snapshot of one component.
type ComponentInfo struct {
	Name      string
	LocalTime vtime.Time
	Runlevel  string
	Done      bool
}

// Components reports every component's state, sorted by name. Only
// valid while the subsystem is paused.
func (d *Debugger) Components() []ComponentInfo {
	comps := d.sub.Components()
	out := make([]ComponentInfo, 0, len(comps))
	for _, c := range comps {
		out = append(out, ComponentInfo{
			Name:      c.Name(),
			LocalTime: c.LocalTime(),
			Runlevel:  c.Runlevel(),
			Done:      c.Done(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Now returns the paused subsystem's virtual time.
func (d *Debugger) Now() vtime.Time { return d.sub.Now() }

// NetValue samples a net's last driven value and drive time.
func (d *Debugger) NetValue(net string) (any, vtime.Time, error) {
	n := d.sub.Net(net)
	if n == nil {
		return nil, 0, fmt.Errorf("debug: no net %q", net)
	}
	v, t := n.LastValue()
	return v, t, nil
}
