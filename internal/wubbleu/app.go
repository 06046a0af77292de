package wubbleu

import (
	"fmt"

	pia "repro"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// Placement maps the WubbleU modules onto subsystems — the degree of
// freedom the paper's experiment exercises. Local simulation places
// everything on one subsystem; the remote experiment moves the
// Modem (the cellular ASIC, plus the server behind its wireless
// link) onto a subsystem hosted by another Pia node.
type Placement struct {
	CPU    string // UI, recognizer, browser, parser, cache, decoder
	Modem  string // cellular ASIC
	Server string // dedicated server
}

// LocalPlacement puts the whole design in a single subsystem.
func LocalPlacement() Placement {
	return Placement{CPU: "main", Modem: "main", Server: "main"}
}

// RemotePlacement puts the network interface and the server it talks
// to on a separate subsystem (to be hosted by a remote node).
func RemotePlacement() Placement {
	return Placement{CPU: "handheld", Modem: "modemsite", Server: "modemsite"}
}

// App holds the instantiated module behaviours for inspection after a
// run.
type App struct {
	Cfg    Config
	UI     *ui
	Recog  *recognizer
	Brow   *browser
	Cache  *cache
	JPEG   *jpegDecoder
	ASIC   *asic
	Server *server
}

// Install adds the WubbleU design to a system builder under the given
// placement. The nets follow Fig. 5; the "dma" net between the
// browser (CPU) and the ASIC is the link whose detail level the
// experiment switches, and the one that is split across subsystems
// in the remote configuration. It is the one WubbleU topology: a split
// deployment installs the whole design and builds the subsystem it
// hosts with SystemBuilder.BuildSubsystem.
func Install(b *pia.SystemBuilder, cfg Config, pl Placement) (*App, error) {
	if cfg.URL == "" || cfg.PageSize <= 0 || cfg.Loads <= 0 {
		return nil, fmt.Errorf("wubbleu: incomplete config %+v", cfg)
	}
	if err := CheckLevel(cfg.Level); err != nil {
		return nil, err
	}
	app := &App{
		Cfg:    cfg,
		UI:     &ui{Cfg: cfg},
		Recog:  &recognizer{Cfg: cfg},
		Brow:   &browser{Cfg: cfg},
		Cache:  &cache{},
		JPEG:   &jpegDecoder{Cfg: cfg},
		ASIC:   &asic{Cfg: cfg},
		Server: &server{Cfg: cfg},
	}
	b.AddComponent("ui", pl.CPU, app.UI, "ink", "screen").
		AddComponent("recog", pl.CPU, app.Recog, "ink", "url").
		AddComponent("browser", pl.CPU, app.Brow, "url", "screen", "cache", "jpeg", "dma").
		AddComponent("cache", pl.CPU, app.Cache, "bus").
		AddComponent("jpeg", pl.CPU, app.JPEG, "bus").
		AddComponent("asic", pl.Modem, app.ASIC, "dma", "radio").
		AddComponent("server", pl.Server, app.Server, "radio").
		AddNet("ink", 0, "ui.ink", "recog.ink").
		AddNet("url", 0, "recog.url", "browser.url").
		AddNet("screen", 0, "browser.screen", "ui.screen").
		AddNet("cachebus", 0, "browser.cache", "cache.bus").
		AddNet("jpegbus", 0, "browser.jpeg", "jpeg.bus").
		AddNet("dma", 0, "browser.dma", "asic.dma").
		AddNet("radio", 0, "asic.radio", "server.radio")
	b.SetRunlevel("asic", cfg.Level)
	if err := b.Err(); err != nil {
		return nil, err
	}
	return app, nil
}

// CheckLevel refuses a level the ASIC does not render, which the
// passages would silently run as packet level.
func CheckLevel(level string) error {
	switch level {
	case proto.LevelHardware, proto.LevelWord, proto.LevelPacket:
		return nil
	}
	return fmt.Errorf("wubbleu: %q is not a detail level (hardwareLevel|wordLevel|packetLevel)", level)
}

// Result summarizes the loads the UI completed.
type Result struct {
	Loads     int
	PageBytes []int
	LoadVirt  []vtime.Duration // virtual duration per load
	DMADrives int              // net drives on the switchable link
	CacheHits int
}

// Result collects outcomes after a run.
func (a *App) Result() Result {
	r := Result{
		Loads:     a.UI.Done,
		DMADrives: a.ASIC.DMADrives,
		CacheHits: a.Cache.Hits,
	}
	for _, n := range a.UI.Bytes {
		r.PageBytes = append(r.PageBytes, int(n))
	}
	for i := 0; i < a.UI.Done; i++ {
		d, err := a.UI.LoadTime(i)
		if err == nil {
			r.LoadVirt = append(r.LoadVirt, d)
		}
	}
	return r
}
