package wubbleu

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	pia "repro"
	"repro/internal/proto"
)

// pinnedServed is TestGenPageBytesPinned's sha256 of the pages the
// serving tests load, by (size, images).
var pinnedServed = map[[2]int]string{
	{DefaultPageSize, 4}: "feb3b8df28b08ac397d5046fd3221d1f72c19891f8670a099614605556c57389",
	{200_001, 5}:         "d03894fa379b709ae8f3b4a36ad896a9d6b8db02ad02577dd491f86e7f544d39",
}

// loadOnce builds a WubbleU under pl and runs it for 30 s of virtual
// time, long enough for cfg's loads. The simulation stays open for the
// caller to close.
func loadOnce(cfg Config, pl Placement) (*App, *pia.Simulation, error) {
	b := pia.NewSystem("wubbleu")
	app, err := Install(b, cfg, pl)
	if err != nil {
		return nil, nil, err
	}
	if pl.Server != pl.CPU {
		b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	}
	sim, err := b.BuildLocal()
	if err != nil {
		return nil, nil, err
	}
	if err := sim.Run(pia.Time(pia.Seconds(30))); err != nil {
		sim.Close()
		return nil, nil, err
	}
	if res := app.Result(); res.Loads != cfg.Loads || res.PageBytes[0] != cfg.PageSize {
		sim.Close()
		return nil, nil, fmt.Errorf("loads did not complete: %+v", res)
	}
	return app, sim, nil
}

// pageSHA256 is the hex sha256 of page.
func pageSHA256(page []byte) string { return fmt.Sprintf("%x", sha256.Sum256(page)) }

// TestServersShareOnePage: a second simulation, built while the first
// is still open, serves the first's page — the same backing array, not
// a copy. A served page is immutable (its frames are views nothing
// writes), so after both loads the page still hashes to its pinned
// digest and the two loads agree on virtual time and DMA drives. Any
// writer into a served page fails here.
func TestServersShareOnePage(t *testing.T) {
	for _, pl := range []struct {
		name string
		pl   Placement
	}{{"local", LocalPlacement()}, {"remote", RemotePlacement()}} {
		for _, level := range []string{proto.LevelWord, proto.LevelPacket} {
			t.Run(pl.name+"/"+level, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Level = level
				var apps [2]*App
				for i := range apps {
					app, sim, err := loadOnce(cfg, pl.pl)
					if err != nil {
						t.Fatal(err)
					}
					defer sim.Close()
					apps[i] = app
				}
				first, second := apps[0].Server.store.Get(cfg.URL), apps[1].Server.store.Get(cfg.URL)
				if &first[0] != &second[0] {
					t.Fatal("the second server generated its own page instead of sharing the first's")
				}
				if got, want := pageSHA256(first), pinnedServed[[2]int{cfg.PageSize, cfg.Images}]; got != want {
					t.Fatalf("served page sha256 %s after two loads, want %s: something wrote into it", got, want)
				}
				r0, r1 := apps[0].Result(), apps[1].Result()
				if !slices.Equal(r0.LoadVirt, r1.LoadVirt) || r0.DMADrives != r1.DMADrives {
					t.Fatalf("loads differ: %v / %d drives, then %v / %d", r0.LoadVirt, r0.DMADrives, r1.LoadVirt, r1.DMADrives)
				}
			})
		}
	}
}

// TestPageMemoHoldsNothing: simulations of two page sizes run at once,
// each serving its own pinned bytes while the memo swaps between them.
// Once every simulation is closed and dropped, the memo resolves to
// nothing: it never keeps a page alive by itself.
func TestPageMemoHoldsNothing(t *testing.T) {
	sizes := [][2]int{{DefaultPageSize, 4}, {200_001, 5}}
	var wg sync.WaitGroup
	for _, size := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.PageSize, cfg.Images = size[0], size[1]
			for range 3 {
				app, sim, err := loadOnce(cfg, LocalPlacement())
				if err != nil {
					t.Error(err)
					return
				}
				got := pageSHA256(app.Server.store.Get(cfg.URL))
				sim.Close()
				if want := pinnedServed[size]; got != want {
					t.Errorf("a %v server served sha256 %s, want %s", size, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	runtime.GC()
	runtime.GC()
	pageMemo.Lock()
	held := pageMemo.page.Value()
	pageMemo.Unlock()
	if held != nil {
		t.Fatalf("the memo keeps a %d-byte page alive with no simulation open", len(held.b))
	}
}
