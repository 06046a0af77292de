package detail

import (
	"bufio"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/timeline"
	"repro/internal/vtime"
)

// action is one runlevel change performed when a switchpoint fires.
type action struct {
	Component string
	Level     string
}

// Switchpoint is a parsed "when <cond>: a->l, b->l" rule. Each
// switchpoint fires at most once (re-arm by adding it again).
type Switchpoint struct {
	Source  string // original text, for diagnostics
	Cond    Expr
	Actions []action
	fired   bool
}

// Fired reports whether the switchpoint has triggered.
func (sp *Switchpoint) Fired() bool { return sp.fired }

// String returns the canonical text of the switchpoint.
func (sp *Switchpoint) String() string {
	acts := make([]string, len(sp.Actions))
	for i, a := range sp.Actions {
		acts[i] = fmt.Sprintf("%s->%s", a.Component, a.Level)
	}
	return fmt.Sprintf("when %s: %s", sp.Cond, strings.Join(acts, ", "))
}

// parseSwitchpoint parses one switchpoint rule. The leading "when"
// keyword is optional.
func parseSwitchpoint(src string) (*Switchpoint, error) {
	text := strings.TrimSpace(src)
	body := strings.TrimSpace(strings.TrimPrefix(text, "when "))
	toks, err := lex(body)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon, ":"); err != nil {
		return nil, err
	}
	var actions []action
	for {
		comp, err := p.expect(tokIdent, "component name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokArrow, "->"); err != nil {
			return nil, err
		}
		level, err := p.expect(tokIdent, "runlevel name")
		if err != nil {
			return nil, err
		}
		actions = append(actions, action{Component: comp.text, Level: level.text})
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("detail: trailing input %q", p.cur().text)
	}
	return &Switchpoint{Source: text, Cond: cond, Actions: actions}, nil
}

// parseScript parses a simulation run control file: one switchpoint
// per line, with blank lines and '#' comments ignored.
func parseScript(src string) ([]*Switchpoint, error) {
	var out []*Switchpoint
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp, err := parseSwitchpoint(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, sp)
	}
	return out, sc.Err()
}

// Engine evaluates switchpoints against a subsystem at every
// scheduling step. Components are all parked when the scheduler calls
// the hook, so runlevel changes are applied at safe points — the
// state of every interface is stable.
type Engine struct {
	sub          *core.Subsystem
	switchpoints []*Switchpoint

	// Switches counts applied runlevel changes.
	Switches int64

	// OnSwitch is invoked for every applied action.
	OnSwitch func(sp *Switchpoint, a action)

	prevStep func(vtime.Time)
	hooked   bool
}

// NewEngine creates a switchpoint engine for the subsystem. The
// per-step hook is installed lazily, on the first registered
// switchpoint: a per-step hook pins the scheduler to its
// step-at-a-time path (no inline fast paths, no parallel rounds), so
// an engine with no rules must not cost anything.
func NewEngine(s *core.Subsystem) *Engine {
	return &Engine{sub: s}
}

// ensureHook attaches the engine to the subsystem's step hook
// (chaining any existing hook). Idempotent.
func (e *Engine) ensureHook() {
	if e.hooked {
		return
	}
	e.hooked = true
	s := e.sub
	e.prevStep = s.OnStep
	s.OnStep = func(now vtime.Time) {
		if e.prevStep != nil {
			e.prevStep(now)
		}
		e.Step()
	}
}

// Add registers a switchpoint.
func (e *Engine) Add(sp *Switchpoint) {
	e.ensureHook()
	e.switchpoints = append(e.switchpoints, sp)
}

// AddRule parses and registers a switchpoint rule.
func (e *Engine) AddRule(src string) (*Switchpoint, error) {
	sp, err := parseSwitchpoint(src)
	if err != nil {
		return nil, err
	}
	e.Add(sp)
	return sp, nil
}

// EnableTimeline records every applied switchpoint action as a
// runlevel event, chained through OnSwitch. The firing is stamped
// with the subsystem's current virtual time; the component itself
// adopts the level at its next safe point (core records that
// consultation separately, into the recorder Subsystem.EnableTimeline
// stored).
func (e *Engine) EnableTimeline(rec *timeline.Recorder) {
	if rec == nil {
		return
	}
	sub := e.sub.Name()
	prev := e.OnSwitch
	e.OnSwitch = func(sp *Switchpoint, a action) {
		if prev != nil {
			prev(sp, a)
		}
		rec.Runlevel(sub, a.Component, a.Level, e.sub.Now())
	}
}

// LoadScript parses a run control file and registers every rule.
func (e *Engine) LoadScript(src string) error {
	sps, err := parseScript(src)
	if err != nil {
		return err
	}
	for _, sp := range sps {
		e.Add(sp)
	}
	return nil
}

// Switchpoints returns the registered switchpoints.
func (e *Engine) Switchpoints() []*Switchpoint {
	out := make([]*Switchpoint, len(e.switchpoints))
	copy(out, e.switchpoints)
	return out
}

// Step evaluates all unfired switchpoints once; called from the
// scheduler hook but also usable directly in tests.
func (e *Engine) Step() {
	ts := func(name string) (vtime.Time, bool) {
		c := e.sub.Component(name)
		if c == nil {
			return 0, false
		}
		return c.LocalTime(), true
	}
	for _, sp := range e.switchpoints {
		if sp.fired || !sp.Cond.Eval(ts) {
			continue
		}
		sp.fired = true
		for _, a := range sp.Actions {
			if c := e.sub.Component(a.Component); c != nil {
				c.SetRunlevel(a.Level)
				e.Switches++
				if e.OnSwitch != nil {
					e.OnSwitch(sp, a)
				}
			}
		}
	}
}

// Slider sets every component in the subsystem to the given runlevel
// — the user's detail-level slider. It takes effect at each
// component's next safe point (the next time its behaviour consults
// Proc.Runlevel).
func (e *Engine) Slider(level string) {
	for _, c := range e.sub.Components() {
		c.SetRunlevel(level)
		e.Switches++
	}
}
