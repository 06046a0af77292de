// The paper's own workload on the mesh: WubbleU, described once through
// the builder, runs on three members, and its server migrates between
// two page loads with the results of the unmigrated mesh run and of
// BuildLocal of the same description.
package mesh

import (
	"reflect"
	"testing"

	pia "repro"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// wubbleuPlacement puts each WubbleU site on a member of its own.
var wubbleuPlacement = wubbleu.Placement{CPU: "handheld", Modem: "modemsite", Server: "server"}

// wubbleuStep is the mesh's round size on the WubbleU runs.
const wubbleuStep = 5 * vtime.Millisecond

// installWubbleU describes two loads of an 8 KB page at the given level
// over pure-latency channels. The cache is off, so the second load
// crosses the radio as the first does.
func installWubbleU(b *pia.SystemBuilder, level string) (*wubbleu.App, error) {
	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = 8 * 1024
	cfg.Loads = 2
	cfg.NoCache = true
	cfg.Level = level
	b.SetDefaultChannel(pia.Conservative, demoLink)
	return wubbleu.Install(b, cfg, wubbleuPlacement)
}

// wubbleuMeshResult reads a finished mesh run's result, each part from
// the member hosting the component that holds it, and how many pages
// the server served where it ended up.
func wubbleuMeshResult(t *testing.T, lm *localMesh, level string) (wubbleu.Result, int) {
	t.Helper()
	reader, err := installWubbleU(pia.NewSystem("reader"), level)
	if err != nil {
		t.Fatal(err)
	}
	home := lm.Leader().Placement()
	for comp, into := range map[string]core.StateSaver{"ui": reader.UI, "cache": reader.Cache, "asic": reader.ASIC, "server": reader.Server} {
		savedState(t, lm.member(home[comp]).Subsystem(), comp, into)
	}
	return reader.Result(), reader.Server.Served
}

// TestWubbleUMigratesOnAMesh moves the WubbleU server from its own
// member onto the handheld at a barrier between its two loads. The
// radio net crosses a channel before the move (modemsite to server) and
// after it (modemsite to handheld), so the move must not show: the page
// bytes, both load times and the DMA drives equal those of the
// unmigrated mesh run and of BuildLocal, at word and at packet level.
func TestWubbleUMigratesOnAMesh(t *testing.T) {
	for _, level := range []string{proto.LevelWord, proto.LevelPacket} {
		t.Run(level, func(t *testing.T) {
			describe := func(b *pia.SystemBuilder) error {
				_, err := installWubbleU(b, level)
				return err
			}

			b := pia.NewSystem("wubbleu")
			app, err := installWubbleU(b, level)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := b.BuildLocal()
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if err := sim.Run(vtime.Time(10 * vtime.Second)); err != nil {
				t.Fatal(err)
			}
			want := app.Result()
			if want.Loads != 2 {
				t.Fatalf("BuildLocal completed %d loads, want 2", want.Loads)
			}
			// The first load is on the screen at rendered; the second is
			// asked for a tap later, and its request reaches the server
			// through the recognizer, the browser and two channels.
			rendered := vtime.Time(app.UI.RenderedT[0])
			horizon := vtime.Time(app.UI.RenderedT[1]) + vtime.Time(wubbleuStep)

			run := func(migrate bool) (wubbleu.Result, int, map[string]uint64, *localMesh) {
				lm, err := StartLocalMesh(describe, []string{"handheld", "modemsite", "server"}, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(lm.Close)
				if migrate {
					if err := lm.Leader().MigrateAt(rendered, "server", "handheld"); err != nil {
						t.Fatal(err)
					}
				}
				if err := lm.Run(horizon, wubbleuStep); err != nil {
					t.Fatal(err)
				}
				r, served := wubbleuMeshResult(t, lm, level)
				return r, served, lm.Digests(), lm
			}
			still, _, stillDg, _ := run(false)
			moved, served, movedDg, lm := run(true)

			if lm.Leader().Stats().Migrations != 1 || lm.Leader().Placement()["server"] != "handheld" {
				t.Fatalf("the server did not move: %+v, placement %v", lm.Leader().Stats(), lm.Leader().Placement())
			}
			if served != 2 {
				t.Fatalf("the migrated server counts %d pages served, want 2", served)
			}
			for label, got := range map[string]wubbleu.Result{"stationary mesh": still, "migrated mesh": moved} {
				if !reflect.DeepEqual(got.PageBytes, want.PageBytes) || !reflect.DeepEqual(got.LoadVirt, want.LoadVirt) || got.DMADrives != want.DMADrives {
					t.Errorf("%s: pages %v in %v with %d DMA drives; BuildLocal: %v in %v with %d",
						label, got.PageBytes, got.LoadVirt, got.DMADrives, want.PageBytes, want.LoadVirt, want.DMADrives)
				}
			}
			if !reflect.DeepEqual(stillDg, movedDg) {
				t.Errorf("drive digests moved with the server: %v, unmigrated %v", movedDg, stillDg)
			}
		})
	}
}
