package wubbleu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	pia "repro"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// pinnedStates are the sha256 digests of every module's state in a
// checkpoint taken half-way through the second of two loads of an 8 KB
// page, the first load's page in the cache, at word and packet level.
var pinnedStates = map[string]map[string]string{
	proto.LevelWord: {
		"ui":      "3fb39e56baf434621143ac163d390bb2be5563e223de8452632876f71bfe5bba",
		"recog":   "e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71",
		"browser": "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
		"cache":   "95feb3ac2b588dad03a68a36daa0e1ebce1e5aca0a4b5a15fda6d78855850165",
		"jpeg":    "beead77994cf573341ec17b58bbf7eb34d2711c993c1d976b128b3188dc1829a",
		"asic":    "b8a08155f64a137ca1b139a28b28efdd3483d719f866caa0e36afc89109bebbf",
		"server":  "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
	},
	proto.LevelPacket: {
		"ui":      "5d9feb1354e4cb93c7e5956646e63bb06ed179c7140c2bab790126b83e387df8",
		"recog":   "e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71",
		"browser": "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
		"cache":   "a9db245b430fd13c82329f76290b76961b603882705db4772e134b3606becb4b",
		"jpeg":    "beead77994cf573341ec17b58bbf7eb34d2711c993c1d976b128b3188dc1829a",
		"asic":    "9c8da284a123a4581f1a382a9400cd8ae6d08a71f28b67be9a5f7881bad1d4d4",
		"server":  "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
	},
}

// midLoadStates runs two loads at the given level to the middle of the
// second and returns the digest of each module's state in a checkpoint
// taken there.
func midLoadStates(level string) (map[string]string, error) {
	cfg := DefaultConfig()
	cfg.PageSize, cfg.Loads, cfg.Level = 8*1024, 2, level
	build := func() (*App, *pia.Simulation, error) {
		b := pia.NewSystem("wubbleu")
		app, err := Install(b, cfg, LocalPlacement())
		if err != nil {
			return nil, nil, err
		}
		sim, err := b.BuildLocal()
		return app, sim, err
	}
	ref, sim, err := build()
	if err != nil {
		return nil, err
	}
	err = sim.Run(pia.Infinity)
	sim.Close()
	if err != nil {
		return nil, err
	}
	if ref.UI.Done != 2 {
		return nil, fmt.Errorf("%d loads done, want 2", ref.UI.Done)
	}
	_, sim, err = build()
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	if err := sim.Run(vtime.Time((ref.UI.Requested[1] + ref.UI.RenderedT[1]) / 2)); err != nil {
		return nil, err
	}
	cs, err := sim.Subsystem("main").CaptureNow("")
	if err != nil {
		return nil, err
	}
	got := map[string]string{}
	for _, comp := range []string{"ui", "recog", "browser", "cache", "jpeg", "asic", "server"} {
		sum := sha256.Sum256(cs.Image(comp).State)
		got[comp] = hex.EncodeToString(sum[:])
	}
	return got, nil
}

// checkPinnedStates compares the mid-load states at both levels with
// pinnedStates.
func checkPinnedStates() error {
	for level, want := range pinnedStates {
		got, err := midLoadStates(level)
		if err != nil {
			return fmt.Errorf("%s: %w", level, err)
		}
		for comp, sum := range got {
			if sum != want[comp] {
				return fmt.Errorf("%s: %s state has sha256 %s, want the pinned %s", level, comp, sum, want[comp])
			}
		}
	}
	return nil
}

// TestStateBytesPinned pins each module's state bytes: they depend on
// the module's progress alone. TestMain checks them again once the
// whole suite has run, so they cannot depend on what the process did
// before either.
func TestStateBytesPinned(t *testing.T) {
	if err := checkPinnedStates(); err != nil {
		t.Fatal(err)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := checkPinnedStates(); err != nil {
			fmt.Fprintln(os.Stderr, "after the suite:", err)
			code = 1
		}
	}
	os.Exit(code)
}
