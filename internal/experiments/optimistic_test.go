package experiments

import (
	"testing"
	"time"

	"repro/internal/vtime"
)

// quickOptConfig shrinks the ablation so the full sweep runs in well
// under a second while still exercising every leg shape.
func quickOptConfig() OptimisticConfig {
	c := DefaultOptimisticConfig()
	c.Workers = []int{4}
	c.Rounds = 3
	c.Service = 200 * time.Microsecond
	return c
}

// quickFanOutcome is what every leg of the quick sweep reproduces: the
// virtual time and drive count the fan gave before it was described
// through the system builder, and its drive digest, the fold of its
// per-source drive hashes.
var quickFanOutcome = outcome{virt: 30_000_000, drives: 48, digest: 0x0844015015d9da79}

// TestOptimisticAblation runs the full sweep and checks the structural
// expectations behind the headline numbers: every row agrees with the
// sequential reference (Optimistic errors otherwise), the high
// lookahead leg never speculates (the conservative horizon already
// clears every service), and the zero-lookahead leg speculates with a
// healthy commit rate.
func TestOptimisticAblation(t *testing.T) {
	rows, err := Optimistic(quickOptConfig())
	if err != nil {
		t.Fatal(err)
	}
	byLeg := map[string]map[string]OptimisticRow{}
	for _, r := range rows {
		if byLeg[r.Lookahead] == nil {
			byLeg[r.Lookahead] = map[string]OptimisticRow{}
		}
		byLeg[r.Lookahead][r.Mode] = r
	}
	for _, r := range rows {
		if r.outcome() != quickFanOutcome {
			t.Errorf("%s/%s leg: %+v, want %+v", r.Lookahead, r.Mode, r.outcome(), quickFanOutcome)
		}
	}
	for _, leg := range []string{"high", "low", "zero"} {
		if len(byLeg[leg]) != 3 {
			t.Fatalf("leg %s: got modes %v, want sequential+conservative+optimistic", leg, byLeg[leg])
		}
	}
	if hi := byLeg["high"]["optimistic"]; hi.SpecRounds != 0 {
		t.Errorf("high-lookahead leg speculated %d rounds; conservative horizon should clear every service", hi.SpecRounds)
	}
	if hc := byLeg["high"]["conservative"]; hc.ParRounds == 0 {
		t.Error("high-lookahead conservative leg ran no parallel rounds")
	}
	zo := byLeg["zero"]["optimistic"]
	if zo.SpecRounds == 0 {
		t.Error("zero-lookahead optimistic leg never speculated")
	}
	if zo.SpecCommits == 0 {
		t.Error("zero-lookahead optimistic leg committed no speculations")
	}
	if zo.CommitRatio < 0.9 {
		t.Errorf("zero-lookahead commit ratio %.2f, want >= 0.9 (independent lanes should almost always commit)", zo.CommitRatio)
	}
	if zc := byLeg["zero"]["conservative"]; zc.ParRounds != 0 {
		t.Errorf("zero-lookahead conservative leg ran %d parallel rounds; zero lookahead should serialize it", zc.ParRounds)
	}
	if lo := byLeg["low"]["optimistic"]; lo.SpecRounds == 0 {
		t.Error("low-lookahead optimistic leg never speculated")
	}
}

// TestOptimisticWindowKnob double-checks the sweep honors the window:
// a zero window is conservative by definition.
func TestOptimisticWindowKnob(t *testing.T) {
	c := quickOptConfig()
	row, err := fanLeg(c, optLookahead{Name: "zero", Delay: 0}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.SpecRounds != 0 || row.Rollbacks != 0 {
		t.Fatalf("conservative leg reported speculation: %+v", row)
	}
	opt, err := fanLeg(c, optLookahead{Name: "zero", Delay: 0}, 4, c.Window)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Virt != vtime.Duration(row.Virt) || opt.Drives != row.Drives || opt.Digest != row.Digest {
		t.Fatalf("optimistic leg diverged: %+v vs %+v", opt, row)
	}
}
