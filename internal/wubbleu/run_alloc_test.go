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

// chunkClass is the allocator size class of an inbox row chunk: 639
// rows of 16 bytes and the allocator's 8-byte header (see the event
// package's TestChunkFillsItsSizeClass).
const chunkClass = 10240

// localSims builds, runs and closes the local WubbleU (the default
// 66 KB page at word level) sims times after one that warms the page
// memo and the chunk pool, at one P with the collector off so that the
// pool keeps what it is given. It returns the mean bytes Run allocates
// and the most objects of the chunk's size class that one sim's build,
// run and close allocate.
func localSims(t *testing.T, sims int) (runBytes float64, chunkObjs uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	cfg.Level = proto.LevelWord
	var total uint64
	for i := -1; i < sims; i++ {
		var m0, m1, m2, m3 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b := pia.NewSystem("wubbleu")
		app, err := Install(b, cfg, LocalPlacement())
		if err != nil {
			t.Fatal(err)
		}
		sim, err := b.BuildLocal()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		err = sim.Run(pia.Infinity)
		runtime.ReadMemStats(&m2)
		if cerr := sim.Close(); err == nil {
			err = cerr
		}
		runtime.ReadMemStats(&m3)
		if err != nil {
			t.Fatal(err)
		}
		if res := app.Result(); res.Loads != cfg.Loads {
			t.Fatalf("load did not complete: %+v", res)
		}
		if i < 0 {
			continue
		}
		total += m2.TotalAlloc - m1.TotalAlloc
		for k, c := range m3.BySize {
			if c.Size == chunkClass {
				chunkObjs = max(chunkObjs, c.Mallocs-m0.BySize[k].Mallocs)
			}
		}
	}
	return float64(total) / float64(sims), chunkObjs
}

// TestWarmLocalSimAllocatesNoRowChunk: once a sim before it has handed
// its inboxes' chunks back at Close, a local word sim takes every row
// chunk it needs, the first chunk of each deep inbox included, from the
// pool: no build, run or close of the sims after it allocates an
// object of the chunk's size class. A first chunk grown by append
// (one a sim) or one kept out of the pool at Close (the pool runs dry
// within a few sims) fails it.
func TestWarmLocalSimAllocatesNoRowChunk(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's pool drops some of what it is given")
	}
	if _, n := localSims(t, 8); n != 0 {
		t.Fatalf("a warm local sim allocates %d objects of the %d-byte chunk class, want 0", n, chunkClass)
	}
}

// TestLocalRunBytes: a warm local word Run (the default 66 KB page)
// allocates at most 172 000 bytes. The bound sits between the readings
// of a row store that grows each deep inbox's first chunk by append in
// every sim (185 392 bytes a Run) and of one that takes it from the
// chunk pool (158 512–159 312), at one P with the collector off, so
// the row store giving up its pooling fails it.
func TestLocalRunBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	const bound = 172_000
	if got, _ := localSims(t, 5); got > bound {
		t.Errorf("a warm local word Run allocates %.0f bytes, want at most %d", got, bound)
	} else {
		t.Logf("a warm local word Run allocates %.0f bytes (bound %d)", got, bound)
	}
}
