package detail

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wire"
)

func src(times map[string]vtime.Time) timeSource {
	return func(name string) (vtime.Time, bool) {
		t, ok := times[name]
		return t, ok
	}
}

func TestParseExprComparisons(t *testing.T) {
	cases := []struct {
		expr  string
		times map[string]vtime.Time
		want  bool
	}{
		{"a >= 10", map[string]vtime.Time{"a": 10}, true},
		{"a >= 10", map[string]vtime.Time{"a": 9}, false},
		{"a > 10", map[string]vtime.Time{"a": 10}, false},
		{"a > 10", map[string]vtime.Time{"a": 11}, true},
		{"a <= 10", map[string]vtime.Time{"a": 10}, true},
		{"a < 10", map[string]vtime.Time{"a": 10}, false},
		{"a == 10", map[string]vtime.Time{"a": 10}, true},
		{"a == 10", map[string]vtime.Time{"a": 11}, false},
		{"missing >= 0", map[string]vtime.Time{}, false},
		{"a >= 1_000", map[string]vtime.Time{"a": 1000}, true},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		if got := e.Eval(src(c.times)); got != c.want {
			t.Errorf("%q with %v = %v, want %v", c.expr, c.times, got, c.want)
		}
	}
}

func TestParseExprBoolean(t *testing.T) {
	times := map[string]vtime.Time{"a": 5, "b": 20}
	cases := []struct {
		expr string
		want bool
	}{
		{"a >= 5 & b >= 20", true},
		{"a >= 6 & b >= 20", false},
		{"a >= 6 | b >= 20", true},
		{"a >= 6 | b >= 21", false},
		{"(a >= 6 | b >= 20) & a >= 5", true},
		{"a >= 6 | b >= 21 | a >= 1", true},
		{"a >= 5 && b >= 20", true}, // && accepted as &
		{"a >= 6 || b >= 20", true}, // || accepted as |
	}
	for _, c := range cases {
		e, err := ParseExpr(c.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		if got := e.Eval(src(times)); got != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "a", "a >=", ">= 5", "a >= x", "a = 5", "a >= 5 &",
		"(a >= 5", "a >= 5 extra", "a >= 5 ! b >= 3", "a ~ 5",
	}
	for _, s := range bad {
		if _, err := ParseExpr(s); err == nil {
			t.Errorf("ParseExpr(%q) accepted", s)
		}
	}
}

func TestExprString(t *testing.T) {
	e, err := ParseExpr("(a >= 5 | b < 3) & c == 7")
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	for _, want := range []string{"a >= 5", "b < 3", "c == 7", "&", "|"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestParseSwitchpoint(t *testing.T) {
	// The paper's example, in our concrete syntax.
	sp, err := parseSwitchpoint("when I2CComponent >= 67: I2CComponent->hardwareLevel, VidCamComponent->byteLevel")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Actions) != 2 {
		t.Fatalf("actions = %d, want 2", len(sp.Actions))
	}
	if sp.Actions[0] != (action{"I2CComponent", "hardwareLevel"}) {
		t.Fatalf("action[0] = %+v", sp.Actions[0])
	}
	if sp.Actions[1] != (action{"VidCamComponent", "byteLevel"}) {
		t.Fatalf("action[1] = %+v", sp.Actions[1])
	}
	if !sp.Cond.Eval(src(map[string]vtime.Time{"I2CComponent": 67})) {
		t.Fatal("condition false at t=67")
	}
	// "when" is optional.
	if _, err := parseSwitchpoint("a >= 1: a->x"); err != nil {
		t.Fatal(err)
	}
	if s := sp.String(); !strings.Contains(s, "I2CComponent->hardwareLevel") {
		t.Errorf("String = %q", s)
	}
}

func TestParseSwitchpointErrors(t *testing.T) {
	bad := []string{
		"when : a->x",
		"when a >= 1",
		"when a >= 1: a",
		"when a >= 1: a->",
		"when a >= 1: a->x,",
		"when a >= 1: a->x b->y",
	}
	for _, s := range bad {
		if _, err := parseSwitchpoint(s); err == nil {
			t.Errorf("parseSwitchpoint(%q) accepted", s)
		}
	}
}

func TestParseScript(t *testing.T) {
	script := `
# run control file
when a >= 10: a->low

when b >= 20 & a >= 5: b->high, a->high
`
	sps, err := parseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(sps) != 2 {
		t.Fatalf("parsed %d switchpoints, want 2", len(sps))
	}
	if _, err := parseScript("garbage !!"); err == nil {
		t.Fatal("bad script accepted")
	}
}

// clockComp advances its local time and records the runlevel it
// observes at each step.
type clockComp struct {
	Levels []string
	Steps  int
}

func (c *clockComp) Run(p *core.Proc) error {
	for i := 0; i < c.Steps; i++ {
		p.Delay(10)
		c.Levels = append(c.Levels, p.Runlevel())
	}
	return nil
}

// SaveState writes the runlevels observed, a count and each string;
// Steps is configuration.
func (c *clockComp) SaveState() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(c.Levels)))
	for _, l := range c.Levels {
		b = wire.AppendString(b, l)
	}
	return b, nil
}

func (c *clockComp) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	c.Levels = make([]string, f.Len(1<<10, 1))
	for i := range c.Levels {
		c.Levels[i] = f.String(1 << 10)
	}
	return f.Done()
}

func TestEngineFiresSwitchpoint(t *testing.T) {
	s := core.NewSubsystem("rl")
	cc := &clockComp{Steps: 10}
	comp, _ := s.NewComponent("cpu", cc)
	comp.SetRunlevel("word")
	e := NewEngine(s)
	sp, err := e.AddRule("when cpu >= 50: cpu->packet")
	if err != nil {
		t.Fatal(err)
	}
	rec := timeline.NewRecorder(0)
	e.EnableTimeline(rec)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if !sp.Fired() {
		t.Fatal("switchpoint never fired")
	}
	var switched []timeline.Event
	for _, ev := range rec.Events() {
		if ev.Kind.String() == "runlevel" {
			switched = append(switched, ev)
		}
	}
	if len(switched) != 1 || switched[0].Comp != "cpu" || switched[0].Detail != "packet" {
		t.Fatalf("switched = %+v", switched)
	}
	// The component saw "word" strictly before t=50 and "packet"
	// after the switch took effect.
	if cc.Levels[0] != "word" {
		t.Fatalf("initial level = %q", cc.Levels[0])
	}
	if last := cc.Levels[len(cc.Levels)-1]; last != "packet" {
		t.Fatalf("final level = %q", last)
	}
	if e.Switches != 1 {
		t.Fatalf("Switches = %d", e.Switches)
	}
}

func TestEngineFiresOnce(t *testing.T) {
	s := core.NewSubsystem("once")
	cc := &clockComp{Steps: 10}
	comp, _ := s.NewComponent("cpu", cc)
	comp.SetRunlevel("a")
	e := NewEngine(s)
	if _, err := e.AddRule("when cpu >= 10: cpu->b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if e.Switches != 1 {
		t.Fatalf("switchpoint fired %d times, want 1", e.Switches)
	}
}

func TestEngineUnknownComponentIgnored(t *testing.T) {
	s := core.NewSubsystem("unk")
	cc := &clockComp{Steps: 3}
	s.NewComponent("cpu", cc)
	e := NewEngine(s)
	if _, err := e.AddRule("when cpu >= 10: ghost->x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if e.Switches != 0 {
		t.Fatal("switch applied to unknown component")
	}
}

func TestSlider(t *testing.T) {
	s := core.NewSubsystem("slider")
	a := &clockComp{Steps: 1}
	b := &clockComp{Steps: 1}
	s.NewComponent("a", a)
	s.NewComponent("b", b)
	e := NewEngine(s)
	e.Slider("hw")
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if a.Levels[0] != "hw" || b.Levels[0] != "hw" {
		t.Fatalf("slider levels: a=%v b=%v", a.Levels, b.Levels)
	}
}

func TestEngineChainsExistingHook(t *testing.T) {
	s := core.NewSubsystem("chain")
	cc := &clockComp{Steps: 3}
	s.NewComponent("cpu", cc)
	prevCalls := 0
	s.Observe(core.Observer{Step: func(vtime.Time) { prevCalls++ }})
	e := NewEngine(s)
	sp, err := e.AddRule("when cpu >= 10: cpu->b")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if prevCalls == 0 || !sp.Fired() {
		t.Fatalf("step observer called %d times, switchpoint fired %v: the engine silenced the observer before it", prevCalls, sp.Fired())
	}
}

func TestSwitchpointsAccessor(t *testing.T) {
	s := core.NewSubsystem("acc")
	e := NewEngine(s)
	if err := e.LoadScript("when a >= 1: a->x\nwhen b >= 2: b->y\n"); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Switchpoints()); got != 2 {
		t.Fatalf("Switchpoints = %d, want 2", got)
	}
	if err := e.LoadScript("bad !!"); err == nil {
		t.Fatal("bad script accepted")
	}
}
