package mesh

import (
	"errors"
	"maps"
	"strings"
	"testing"

	pia "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/vtime"
)

var demoNames = []string{"alpha", "bravo", "charlie"}

func demoParams() DemoParams {
	return DemoParams{Members: demoNames}.withDefaults()
}

// demo is the description of the demo workload sized by p.
func demo(p DemoParams) func(*pia.SystemBuilder) error {
	return func(b *pia.SystemBuilder) error { return DescribeDemo(b, p) }
}

func runDemo(t *testing.T, plan func(lm *localMesh), tune func(i int, cfg *Config)) (*localMesh, DemoParams) {
	t.Helper()
	p := demoParams()
	lm, err := StartLocalMesh(demo(p), demoNames, tune)
	if err != nil {
		t.Fatalf("start mesh: %v", err)
	}
	t.Cleanup(lm.Close)
	if plan != nil {
		plan(lm)
	}
	if err := lm.Run(p.Horizon(), 25*vtime.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	return lm, p
}

// hotState digs the hot component's behaviour out of whichever member
// currently hosts it.
func hotState(t *testing.T, lm *localMesh) *hotBeh {
	t.Helper()
	home := lm.Leader().Placement()["hot"]
	m := lm.member(home)
	if m == nil {
		t.Fatalf("placement says hot is on unknown member %q", home)
	}
	if m.Subsystem().Component("hot") == nil {
		t.Fatalf("member %s does not host hot despite placement", home)
	}
	h := &hotBeh{}
	savedState(t, m.Subsystem(), "hot", h)
	return h
}

// savedState restores into v the state the named component saves, as
// a checkpoint or a migration carries it. Only between runs.
func savedState(t *testing.T, s *core.Subsystem, comp string, v core.StateSaver) {
	t.Helper()
	cs, err := s.CaptureNow("")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.RestoreState(cs.Image(comp).State); err != nil {
		t.Fatal(err)
	}
}

func TestMeshRunsDemo(t *testing.T) {
	lm, p := runDemo(t, nil, nil)
	h := hotState(t, lm)
	if h.I != p.Values || h.Got != p.Values*p.Sinks {
		t.Fatalf("hot finished I=%d Got=%d, want I=%d Got=%d", h.I, h.Got, p.Values, p.Values*p.Sinks)
	}
	dg := lm.Digests()
	for _, comp := range []string{"hot", "sink0", "pump-alpha", "pump-bravo"} {
		if dg[comp] == 0 {
			t.Errorf("no drive digest for %s: %v", comp, dg)
		}
	}
	st := lm.Leader().Stats()
	if st.Rounds == 0 {
		t.Errorf("leader recorded no rounds")
	}
	if st.Epoch != 0 {
		t.Errorf("epoch moved without migration: %d", st.Epoch)
	}
}

func TestMeshMigrationMovesComponent(t *testing.T) {
	lm, p := runDemo(t, func(lm *localMesh) {
		if err := lm.Leader().MigrateAt(vtime.Time(50*vtime.Millisecond), "hot", "bravo"); err != nil {
			t.Fatalf("schedule migration: %v", err)
		}
	}, nil)
	for _, m := range lm.Members {
		if got := m.Epoch(); got != 1 {
			t.Errorf("member %s at epoch %d, want 1", m.Name(), got)
		}
		if home := m.Placement()["hot"]; home != "bravo" {
			t.Errorf("member %s places hot on %q, want bravo", m.Name(), home)
		}
	}
	if lm.member("alpha").Subsystem().Component("hot") != nil {
		t.Errorf("hot still instantiated on alpha after migration")
	}
	if lm.member("bravo").Subsystem().Component("hot") == nil {
		t.Fatalf("hot not instantiated on bravo after migration")
	}
	h := hotState(t, lm)
	if h.I != p.Values || h.Got != p.Values*p.Sinks {
		t.Fatalf("migrated hot finished I=%d Got=%d, want I=%d Got=%d",
			h.I, h.Got, p.Values, p.Values*p.Sinks)
	}
	st := lm.Leader().Stats()
	if st.Migrations != 1 {
		t.Errorf("leader counted %d migrations, want 1", st.Migrations)
	}
	if st.MigrationVirtual != 0 {
		t.Errorf("migration consumed %v virtual time, want 0", st.MigrationVirtual)
	}
}

func TestMeshHealth(t *testing.T) {
	lm, _ := runDemo(t, nil, nil)
	h := lm.Leader().Health()
	if h.Total != 3 || h.Alive != 3 || h.QuorumDead {
		t.Fatalf("healthy mesh reported %+v", h)
	}
	lm.member("charlie").Close()
	awaitMembership(t, lm.Leader(), "charlie leaving", func() bool {
		h = lm.Leader().Health()
		return h.Alive == 2
	})
	if h.QuorumDead {
		t.Fatalf("2/3 alive must keep quorum: %+v", h)
	}
	for _, ph := range h.Members {
		if ph.Name == "charlie" && !ph.Left {
			t.Fatalf("charlie not marked left: %+v", ph)
		}
	}
}

// TestStartRefusesAnUnknownMember: a description that places a
// component on a subsystem no member is named after fails Start with a
// *graph.UnknownHostError naming both, before the member dials a
// control or data connection.
func TestStartRefusesAnUnknownMember(t *testing.T) {
	m := newMember(t, "alpha", func(b *pia.SystemBuilder) error {
		return b.AddComponent("pump", "alpha", &pumpBeh{N: 1, Period: vtime.Millisecond}, "out").
			AddComponent("drain", "nowhere", &drainBeh{}, "in").
			AddNet("local", 0, "pump.out", "drain.in").
			Err()
	})
	err := within(t, "Start", func() error {
		return m.Start(map[string]string{"bravo": "127.0.0.1:1"}) // a dial would fail only at its deadline
	})
	var uh *graph.UnknownHostError
	if !errors.As(err, &uh) {
		t.Fatalf("want UnknownHostError, got %v", err)
	}
	if uh.Component != "drain" || uh.Host != "nowhere" {
		t.Fatalf("error names wrong offender: %+v", uh)
	}
	if eps := m.hub.Endpoints(); len(eps) != 0 {
		t.Fatalf("a refused Start opened %d data channels", len(eps))
	}
}

// TestNewWrapsTheDescriptionError: a description that fails fails New,
// with the description's error wrapped.
func TestNewWrapsTheDescriptionError(t *testing.T) {
	bad := errors.New("no such design")
	_, err := New(Config{Name: "alpha", Describe: func(*pia.SystemBuilder) error { return bad }})
	if !errors.Is(err, bad) {
		t.Fatalf("New returned %v, want it to wrap %v", err, bad)
	}
}

// TestUncapturableMigrationIsDropped: a live request to move a
// component its source cannot capture — a BehaviorFunc saves no state —
// is queued, then dropped at the barrier instead of ending the run: the
// run completes with the digests of the run never asked, at epoch 0,
// and the leader counts the drop.
func TestUncapturableMigrationIsDropped(t *testing.T) {
	p := demoParams()
	describe := func(b *pia.SystemBuilder) error {
		b.AddComponent("idler", "alpha", pia.BehaviorFunc(func(pr *pia.Proc) error {
			pr.DelayUntil(p.Horizon())
			return nil
		}))
		return DescribeDemo(b, p)
	}
	run := func(ask bool) *localMesh {
		lm, err := StartLocalMesh(describe, demoNames, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lm.Close)
		if ask {
			if err := lm.member("charlie").RequestMigration("idler", "bravo"); err != nil {
				t.Fatalf("the request was refused: %v", err)
			}
		}
		if err := lm.Run(p.Horizon(), 25*vtime.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		return lm
	}
	ref, lm := run(false), run(true)
	if got, want := lm.Digests(), ref.Digests(); !maps.Equal(got, want) {
		t.Errorf("digests %v, want the unasked run's %v", got, want)
	}
	for _, m := range lm.Members {
		if m.Epoch() != 0 || m.Placement()["idler"] != "alpha" {
			t.Errorf("%s: epoch %d with idler on %q, want epoch 0 with idler on alpha", m.Name(), m.Epoch(), m.Placement()["idler"])
		}
	}
	if st := lm.Leader().Stats(); st.Dropped != 1 || st.Migrations != 0 || !strings.Contains(st.LastDrop, "idler") {
		t.Errorf("leader counted %d dropped and %d completed migrations, last drop %q; want 1 and 0, naming idler", st.Dropped, st.Migrations, st.LastDrop)
	}
}

// oddValue has no channel codec: an image holding one cannot be shipped.
type oddValue struct{ N int }

// oddBeh drives one oddValue onto its net and idles until the end.
// It saves its state, so its member's checkpoints capture.
type oddBeh struct {
	until vtime.Time
	sent  bool
}

func (o *oddBeh) Run(p *core.Proc) error {
	if !o.sent {
		o.sent = true
		p.Send("out", oddValue{1})
	}
	p.DelayUntil(o.until)
	return nil
}

func (o *oddBeh) SaveState() ([]byte, error) {
	if o.sent {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

func (o *oddBeh) RestoreState(b []byte) error {
	o.sent = len(b) == 1 && b[0] == 1
	return nil
}

// A move dropped after its source captured the component — the image
// would not encode — must not leave that capture behind for the next
// move from the same member under the same epoch: that move, at a
// later barrier, ships the state of its own barrier.
func TestDroppedMoveLeavesNoStaleCapture(t *testing.T) {
	p := demoParams()
	describe := func(b *pia.SystemBuilder) error {
		b.AddComponent("odd", "alpha", &oddBeh{until: p.Horizon()}, "out").
			AddNet("odd", 100*vtime.Microsecond, "odd.out")
		return DescribeDemo(b, p)
	}
	run := func(move bool) *localMesh {
		lm, err := StartLocalMesh(describe, demoNames, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lm.Close)
		if move {
			if err := lm.member("charlie").RequestMigration("odd", "bravo"); err != nil {
				t.Fatalf("the request was refused: %v", err)
			}
			if err := lm.Leader().MigrateAt(vtime.Time(100*vtime.Millisecond), "hot", "bravo"); err != nil {
				t.Fatal(err)
			}
		}
		if err := lm.Run(p.Horizon(), 25*vtime.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		return lm
	}
	ref, lm := run(false), run(true)
	if got, want := lm.Digests(), ref.Digests(); !maps.Equal(got, want) {
		t.Errorf("digests %v, want the stationary run's %v", got, want)
	}
	st := lm.Leader().Stats()
	if st.Dropped != 1 || st.Migrations != 1 || !strings.Contains(st.LastDrop, "oddValue") {
		t.Errorf("leader counted %d dropped and %d completed migrations, last drop %q; want 1 and 1, naming oddValue", st.Dropped, st.Migrations, st.LastDrop)
	}
	for _, m := range lm.Members {
		if pl := m.Placement(); m.Epoch() != 1 || pl["hot"] != "bravo" || pl["odd"] != "alpha" {
			t.Errorf("%s: epoch %d with hot on %q and odd on %q, want epoch 1, bravo and alpha", m.Name(), m.Epoch(), pl["hot"], pl["odd"])
		}
	}
}

// A move whose placement would break the simple-cycles rule is refused
// when the epoch is applied, and no member keeps the refused placement.
func TestMoveIntoLongCycleIsRefused(t *testing.T) {
	describe := func(b *pia.SystemBuilder) error {
		b.SetDefaultChannel(pia.Conservative, demoLink)
		idle := pia.BehaviorFunc(func(*pia.Proc) error { return nil })
		for _, c := range [][2]string{{"a", "alpha"}, {"b", "bravo"}, {"c", "charlie"}, {"d", "bravo"}, {"e", "alpha"}, {"f", "alpha"}} {
			b.AddComponent(c[0], c[1], idle, "p")
		}
		b.AddNet("ab", vtime.Millisecond, "a.p", "b.p").
			AddNet("cd", vtime.Millisecond, "c.p", "d.p").
			AddNet("ef", vtime.Millisecond, "e.p", "f.p")
		return b.Err()
	}
	lm, err := StartLocalMesh(describe, demoNames, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lm.Close)
	if err := lm.Leader().MigrateAt(0, "f", "charlie"); err != nil {
		t.Fatal(err)
	}
	if err := lm.Run(vtime.Time(10*vtime.Millisecond), vtime.Millisecond); err == nil || !strings.Contains(err.Error(), "restriction cycle") {
		t.Fatalf("run: %v, want the move refused for a restriction cycle", err)
	}
	for _, m := range lm.Members {
		if m.Epoch() != 0 || m.Placement()["f"] != "alpha" {
			t.Errorf("%s: epoch %d with f on %q, want epoch 0 with f on alpha", m.Name(), m.Epoch(), m.Placement()["f"])
		}
	}
}
