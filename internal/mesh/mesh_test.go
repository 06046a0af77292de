package mesh

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/vtime"
)

var demoNames = []string{"alpha", "bravo", "charlie"}

func demoParams() DemoParams {
	return DemoParams{Members: demoNames}.withDefaults()
}

func runDemo(t *testing.T, plan func(lm *localMesh), tune func(i int, cfg *Config)) (*localMesh, DemoParams) {
	t.Helper()
	p := demoParams()
	bp, err := DemoBlueprint(p)
	if err != nil {
		t.Fatalf("blueprint: %v", err)
	}
	lm, err := StartLocalMesh(bp, demoNames, tune)
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

func TestBlueprintValidatePlacement(t *testing.T) {
	p := demoParams()
	bp, err := DemoBlueprint(p)
	if err != nil {
		t.Fatal(err)
	}
	bp.Placement["hot"] = "nowhere"
	err = bp.Validate(demoNames)
	var uh *graph.UnknownHostError
	if !errors.As(err, &uh) {
		t.Fatalf("want UnknownHostError, got %v", err)
	}
	if uh.Component != "hot" || uh.Host != "nowhere" {
		t.Fatalf("error names wrong offender: %+v", uh)
	}
}
