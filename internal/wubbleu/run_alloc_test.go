package wubbleu

import (
	"runtime"
	"runtime/debug"
	"testing"

	pia "repro"
	"repro/internal/proto"
)

// runAllocs builds the remote WubbleU, across two nodes or in-process,
// and returns the mean allocations of its Run alone over sims
// simulations, after one that warms the page memo and the batch pool.
// Build and Close are not counted.
func runAllocs(t *testing.T, cfg Config, sims int, onNodes bool) float64 {
	t.Helper()
	var total uint64
	for i := -1; i < sims; i++ {
		b := pia.NewSystem("wubbleu")
		app, err := Install(b, cfg, RemotePlacement())
		if err != nil {
			t.Fatal(err)
		}
		b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
		var sim interface {
			Run(pia.Time) error
			Close() error
		}
		if onNodes {
			sim, err = b.BuildOnNodes(map[string]*pia.Node{
				"handheld": pia.NewNode("handheld-node"), "modemsite": pia.NewNode("modem-node")})
		} else {
			sim, err = b.BuildLocal()
		}
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err = sim.Run(sliceHorizon)
		runtime.ReadMemStats(&m1)
		if cerr := sim.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if res := app.Result(); res.Loads != cfg.Loads {
			t.Fatalf("load did not complete: %+v", res)
		}
		if i >= 0 {
			total += m1.Mallocs - m0.Mallocs
		}
	}
	return float64(total) / float64(sims)
}

// TestSplitRunAllocs: Run on the split WubbleU (an 8 KB page at word
// level) allocates no more than it did when the wait between rounds
// polled a clock, across two nodes as the benchmark's remote_word row
// runs it and in-process over pipes: the wake signal that wait now
// blocks on is made once at build, not per Run. The bounds sit just
// above that earlier code's readings here (148.10–148.35 and
// 151.05–151.25 over 20 sims, one P, the collector off so that no
// cycle empties the batch pool mid-run), so one more allocation a Run
// fails.
func TestSplitRunAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	cfg.PageSize = 8 * 1024
	cfg.Images = 2
	cfg.Level = proto.LevelWord
	for _, c := range []struct {
		onNodes bool
		bound   float64
	}{{true, 149}, {false, 152}} {
		if got := runAllocs(t, cfg, 20, c.onNodes); got > c.bound {
			t.Errorf("onNodes=%v: Run allocates %.2f times a sim, want at most %.0f", c.onNodes, got, c.bound)
		} else {
			t.Logf("onNodes=%v: Run allocates %.2f times a sim (bound %.0f)", c.onNodes, got, c.bound)
		}
	}
}
