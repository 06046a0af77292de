package wubbleu

import (
	"reflect"
	"sync"
	"testing"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// sliceHorizon is the virtual time the split runs below go to: long
// past an 8 KB page load at either level.
const sliceHorizon = vtime.Time(10 * vtime.Second)

// buildSlices builds the handheld and the modem-site slices of the
// remote WubbleU, each from a description of its own, as two processes
// would.
func buildSlices(t *testing.T, cfg Config) (hApp, mApp *App, hh, mm *pia.Subsystem) {
	t.Helper()
	slice := func(sub string) (*App, *pia.Subsystem) {
		b := pia.NewSystem("wubbleu")
		app, err := Install(b, cfg, RemotePlacement())
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.BuildSubsystem(sub)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Teardown)
		return app, s
	}
	hApp, hh = slice("handheld")
	mApp, mm = slice("modemsite")
	return hApp, mApp, hh, mm
}

// runBoth runs the two slices to sliceHorizon side by side.
func runBoth(t *testing.T, hh, mm *pia.Subsystem) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, s := range []*pia.Subsystem{hh, mm} {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = s.Run(sliceHorizon) }()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("runs: %v / %v", errs[0], errs[1])
	}
}

// TestSplitHalvesInterop wires the handheld and modem-site slices of
// the one WubbleU description through an in-process channel — what
// cmd/pianode and cmd/wubbleu do across two OS processes — and loads a
// page.
func TestSplitHalvesInterop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 8 * 1024
	cfg.Images = 2
	hApp, mApp, hh, mm := buildSlices(t, cfg)
	if hh.Component("asic") != nil || mm.Component("browser") != nil {
		t.Fatal("a slice holds a component placed on the other")
	}

	ep1, ep2, err := channel.Connect(channel.NewHub(hh), channel.NewHub(mm), channel.Conservative, channel.LoopbackLink)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep1.BindNet(hh.Net("dma"), "dma"); err != nil {
		t.Fatal(err)
	}
	if err := ep2.BindNet(mm.Net("dma"), "dma"); err != nil {
		t.Fatal(err)
	}
	runBoth(t, hh, mm)

	if hApp.UI.Done != 1 {
		t.Fatalf("loads = %d", hApp.UI.Done)
	}
	if hApp.UI.Bytes[0] != int64(cfg.PageSize) {
		t.Fatalf("page bytes = %d", hApp.UI.Bytes[0])
	}
	if mApp.Server.Served != 1 || mApp.ASIC.Transfers != 1 {
		t.Fatalf("modem side: served=%d transfers=%d", mApp.Server.Served, mApp.ASIC.Transfers)
	}
	if hApp.JPEG.Decoded != 2 {
		t.Fatalf("decoded = %d", hApp.JPEG.Decoded)
	}
}

// splitOutcome is what a remote WubbleU run must reproduce whichever
// way it is deployed.
type splitOutcome struct {
	PageBytes []int
	LoadVirt  []vtime.Duration
	DMADrives int
	Served    int
	Transfers int
}

// TestSlicesOverTCPMatchBuildOnNodes: the two slices, hosted on two
// nodes over loopback TCP and bound on "dma" as a split deployment binds
// them, give the run BuildOnNodes gives for the remote placement — the
// same page bytes, per-load virtual time, DMA drives, served pages and
// ASIC transfers — at word and at packet level.
func TestSlicesOverTCPMatchBuildOnNodes(t *testing.T) {
	for _, level := range []string{proto.LevelWord, proto.LevelPacket} {
		t.Run(level, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PageSize = 8 * 1024
			cfg.Images = 2
			cfg.Level = level
			want := onNodes(t, cfg)
			got := overTCP(t, cfg)
			if want.Served != 1 || len(want.LoadVirt) != 1 {
				t.Fatalf("reference run incomplete: %+v", want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("slices over TCP %+v, BuildOnNodes %+v", got, want)
			}
		})
	}
}

// onNodes is the reference: the whole description built across two
// nodes.
func onNodes(t *testing.T, cfg Config) splitOutcome {
	t.Helper()
	b := pia.NewSystem("wubbleu")
	app, err := Install(b, cfg, RemotePlacement())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	cl, err := b.BuildOnNodes(map[string]*pia.Node{
		"handheld": pia.NewNode("handheld-node"), "modemsite": pia.NewNode("modem-node")})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Run(sliceHorizon); err != nil {
		t.Fatal(err)
	}
	res := app.Result()
	return splitOutcome{res.PageBytes, res.LoadVirt, res.DMADrives, app.Server.Served, app.ASIC.Transfers}
}

// overTCP builds each slice on its own node and joins them over
// loopback TCP.
func overTCP(t *testing.T, cfg Config) splitOutcome {
	t.Helper()
	hApp, mApp, hh, mm := buildSlices(t, cfg)
	hn, mn := pia.NewNode("handheld-node"), pia.NewNode("modem-node")
	defer hn.Close()
	defer mn.Close()
	hn.Host(hh)
	mHub := mn.Host(mm).Hub
	addr, err := mn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := hn.Connect("handheld", addr, "modemsite", pia.Conservative, pia.LoopbackLink)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.BindNet(hh.Net("dma"), "dma"); err != nil {
		t.Fatal(err)
	}
	mep := mHub.Endpoint("handheld")
	if mep == nil {
		t.Fatal("the handshake left the modem site no endpoint")
	}
	if err := mep.BindNet(mm.Net("dma"), "dma"); err != nil {
		t.Fatal(err)
	}
	hn.FinishAgents()
	mn.FinishAgents()
	runBoth(t, hh, mm)
	hn.CloseChannels()
	res := hApp.Result()
	return splitOutcome{res.PageBytes, res.LoadVirt, mApp.ASIC.DMADrives, mApp.Server.Served, mApp.ASIC.Transfers}
}

// TestInstallNeedsLevel: the ASIC needs an initial detail level, and
// one it renders: a typo is refused, not run as packet level.
func TestInstallNeedsLevel(t *testing.T) {
	for _, level := range []string{"", "packetlevel", "wordLevel "} {
		cfg := DefaultConfig()
		cfg.Level = level
		if _, err := Install(pia.NewSystem("x"), cfg, RemotePlacement()); err == nil {
			t.Fatalf("level %q accepted", level)
		}
	}
}
