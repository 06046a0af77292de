// The headline property: a run that live-migrates the hot component
// is bit-identical — every drive digest and the component's own
// receive-time checksum — to the run that never moves it, including
// when faultnet is mangling the data plane underneath.
package mesh

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/node"
	"repro/internal/resilience"
	"repro/internal/vtime"
)

// runLeg executes one mesh run of the demo workload and returns the
// merged digests plus hot's final checksum state.
func runLeg(t *testing.T, p DemoParams, tune func(i int, cfg *Config), plan func(lm *localMesh)) (map[string]uint64, hotBeh) {
	t.Helper()
	bp, err := DemoBlueprint(p)
	if err != nil {
		t.Fatalf("blueprint: %v", err)
	}
	lm, err := StartLocalMesh(bp, p.Members, tune)
	if err != nil {
		t.Fatalf("start mesh: %v", err)
	}
	defer lm.Close()
	if plan != nil {
		plan(lm)
	}
	if err := lm.Run(p.Horizon(), 25*vtime.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	return lm.Digests(), *hotState(t, lm)
}

func compareLegs(t *testing.T, label string, refDg, gotDg map[string]uint64, refHot, gotHot hotBeh) {
	t.Helper()
	if gotHot.Sum != refHot.Sum || gotHot.Got != refHot.Got || gotHot.I != refHot.I {
		t.Errorf("%s: hot checksum diverged: got {I:%d Got:%d Sum:%#x}, want {I:%d Got:%d Sum:%#x}",
			label, gotHot.I, gotHot.Got, gotHot.Sum, refHot.I, refHot.Got, refHot.Sum)
	}
	if len(gotDg) != len(refDg) {
		t.Errorf("%s: digest component sets differ: got %v, want %v", label, gotDg, refDg)
		return
	}
	for comp, want := range refDg {
		if got := gotDg[comp]; got != want {
			t.Errorf("%s: digest for %s = %#x, want %#x", label, comp, got, want)
		}
	}
}

func TestMigrationEquivalence(t *testing.T) {
	p := demoParams()
	refDg, refHot := runLeg(t, p, nil, nil)
	migDg, migHot := runLeg(t, p, nil, func(lm *localMesh) {
		lm.Leader().MigrateAt(vtime.Time(60*vtime.Millisecond), "hot", "bravo")
	})
	compareLegs(t, "migrated", refDg, migDg, refHot, migHot)
}

func TestMigrationEquivalenceThereAndBack(t *testing.T) {
	p := demoParams()
	refDg, refHot := runLeg(t, p, nil, nil)
	migDg, migHot := runLeg(t, p, nil, func(lm *localMesh) {
		lm.Leader().MigrateAt(vtime.Time(50*vtime.Millisecond), "hot", "bravo")
		lm.Leader().MigrateAt(vtime.Time(150*vtime.Millisecond), "hot", "alpha")
	})
	compareLegs(t, "there-and-back", refDg, migDg, refHot, migHot)
}

// chaosTune shapes every member's data plane with faultnet and
// recovers it with resilient sessions. The control plane stays on
// plain TCP, like a management network.
func chaosTune(seed int64) func(i int, cfg *Config) {
	return func(i int, cfg *Config) {
		n := node.New(cfg.Name)
		n.SetFaults(faultnet.Config{
			Seed:        seed + int64(i),
			Jitter:      200 * time.Microsecond,
			DropProb:    0.03,
			DupProb:     0.02,
			ReorderProb: 0.02,
		})
		n.SetResilience(resilience.Config{
			Heartbeat: 20 * time.Millisecond,
			RetryBase: 2 * time.Millisecond,
			RetryCap:  50 * time.Millisecond,
			RetryMax:  40,
		})
		cfg.Node = n
	}
}

func TestMigrationEquivalenceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos leg is wall-clock heavy")
	}
	p := demoParams()
	refDg, refHot := runLeg(t, p, nil, nil) // clean, stationary reference
	migDg, migHot := runLeg(t, p, chaosTune(0xC0FFEE), func(lm *localMesh) {
		lm.Leader().MigrateAt(vtime.Time(60*vtime.Millisecond), "hot", "bravo")
	})
	compareLegs(t, "chaos+migrated", refDg, migDg, refHot, migHot)
}

// TestMigrationEquivalenceProperty randomizes the workload shape and
// the migration point: any topology the demo family can express must
// migrate transparently at any drained barrier.
func TestMigrationEquivalenceProperty(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 2
	}
	for i := 0; i < iters; i++ {
		seed := int64(7919*i + 13)
		rng := rand.New(rand.NewSource(seed))
		p := DemoParams{
			Members:  demoNames,
			Values:   20 + rng.Intn(30),
			Sinks:    1 + rng.Intn(3),
			Period:   vtime.Duration(3+rng.Intn(5)) * vtime.Millisecond,
			RespStep: vtime.Duration(1+rng.Intn(20)) * vtime.Microsecond,
			Filler:   5 + rng.Intn(30),
		}.withDefaults()
		step := 25 * vtime.Millisecond
		maxBarriers := int64(p.Horizon()) / int64(step)
		if maxBarriers < 2 {
			t.Fatalf("seed %d: horizon too small for a mid-run barrier", seed)
		}
		barrier := 1 + rng.Int63n(maxBarriers-1)
		at := vtime.Time(barrier * int64(step))
		dest := demoNames[1]

		refDg, refHot := runLeg(t, p, nil, nil)
		migDg, migHot := runLeg(t, p, nil, func(lm *localMesh) {
			lm.Leader().MigrateAt(at, "hot", dest)
		})
		t.Logf("seed %d: values=%d sinks=%d period=%v migrate@%v", seed, p.Values, p.Sinks, p.Period, at)
		compareLegs(t, "property", refDg, migDg, refHot, migHot)
	}
}
