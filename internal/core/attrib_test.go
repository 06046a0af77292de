package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

func TestAttributionAccountingZeroAllocs(t *testing.T) {
	s := NewSubsystem("alloc")
	c, err := s.NewComponent("comp", &consumer{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s.EnableCostAttribution(reg, 3)
	s.EnableCostAttribution(reg, 9) // idempotent
	a := s.attrib
	if a == nil || a.topN != 3 {
		t.Fatalf("attrib = %+v", a)
	}
	a.note(s, c, 100) // first note creates the histogram
	if n := testing.AllocsPerRun(200, func() {
		a.note(s, c, 250)
	}); n != 0 {
		t.Fatalf("steady-state attribution accounting = %v allocs/op, want 0", n)
	}
	if c.costNS.Load() < 100+200*250 {
		t.Fatalf("costNS = %d", c.costNS.Load())
	}
}

func TestAttributionCollectorAndTopN(t *testing.T) {
	s, _, _ := randomParallelSystem(7)
	s.SetWorkers(2)
	reg := metrics.NewRegistry()
	s.EnableCostAttribution(reg, 2)
	if err := s.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var totals, tops, hists int
	var prevTop int64 = -1
	for _, sm := range snap {
		switch {
		case strings.HasPrefix(sm.Name, "pia_comp_cost_ns_total{"):
			totals++
			if sm.Kind != metrics.KindCounter || sm.Value <= 0 {
				t.Fatalf("bad total sample %+v", sm)
			}
		case strings.HasPrefix(sm.Name, "pia_comp_cost_top{"):
			tops++
			if sm.Kind != metrics.KindGauge {
				t.Fatalf("bad top sample %+v", sm)
			}
			// Snapshot sorts by name, so rank=1 precedes rank=2 and
			// costs must be non-increasing.
			if prevTop >= 0 && sm.Value > prevTop {
				t.Fatalf("top-N not ranked: %d then %d", prevTop, sm.Value)
			}
			prevTop = sm.Value
		case strings.HasPrefix(sm.Name, "pia_comp_cost_ns{"):
			hists++
			if sm.Kind != metrics.KindHistogram || len(sm.Buckets) == 0 {
				t.Fatalf("bad histogram sample %+v", sm)
			}
		}
	}
	if totals == 0 || hists == 0 {
		t.Fatalf("attribution emitted %d totals, %d histograms", totals, hists)
	}
	if tops != 2 {
		t.Fatalf("top-N gauges = %d, want 2", tops)
	}
}

// TestAttributionDigestUnchanged: attaching cost attribution must not
// perturb the virtual outcome — delivery counts, drive digest, and
// final virtual time stay bit-identical, across sequential, parallel,
// and optimistic modes.
func TestAttributionDigestUnchanged(t *testing.T) {
	run := func(seed int64, workers int, optimism vtime.Duration, attrib bool) string {
		s, cons, _ := randomParallelSystem(seed)
		s.SetWorkers(workers)
		if optimism > 0 {
			s.SetOptimism(optimism)
		}
		if attrib {
			s.EnableCostAttribution(metrics.NewRegistry(), 3)
		}
		digest := s.DigestDrives()
		if err := s.Run(vtime.Infinity); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		return fmt.Sprintf("%s|drv=%x|deliv=%d|now=%d",
			signature(cons), digest.Sum64(), st.Deliveries, s.Now())
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, mode := range []struct {
			workers  int
			optimism vtime.Duration
		}{{0, 0}, {2, 0}, {2, 17}} {
			plain := run(seed, mode.workers, mode.optimism, false)
			observed := run(seed, mode.workers, mode.optimism, true)
			if plain != observed {
				t.Fatalf("seed %d workers %d optimism %d: attribution changed the outcome\nplain: %s\nattr:  %s",
					seed, mode.workers, mode.optimism, plain, observed)
			}
		}
	}
}

func TestOnThrottleCollapseHook(t *testing.T) {
	s := NewSubsystem("storm")
	s.optThrottle = true
	s.effOpt = 1
	var gotSpec, gotAborted int
	s.Observe(Observer{ThrottleCollapse: func(spec, aborted int) { gotSpec, gotAborted = spec, aborted }})

	s.noteSpecOutcome(4, 1) // 1/4 aborted: no collapse
	if gotSpec != 0 {
		t.Fatal("hook fired without a collapse")
	}
	s.effOpt = 1
	s.noteSpecOutcome(4, 3) // storm: 1 -> 0, collapse
	if gotSpec != 4 || gotAborted != 3 {
		t.Fatalf("hook got (%d,%d), want (4,3)", gotSpec, gotAborted)
	}
	if s.optCool != optCooldownRounds {
		t.Fatalf("cooldown = %d", s.optCool)
	}
}
