package wubbleu

import (
	"fmt"

	"repro/internal/core"
)

// The split installers build each half of the remote WubbleU
// configuration directly onto a raw subsystem, for deployments where
// the two halves live in different processes (cmd/pianode serves the
// modem site; cmd/wubbleu runs the handheld side and dials it). The
// "dma" net is the fragment boundary: each side creates its own
// fragment and binds it to the channel endpoint.

// HandheldHalf is the CPU side of the split design.
type HandheldHalf struct {
	UI    *ui
	Recog *recognizer
	Brow  *browser
	Cache *cache
	JPEG  *jpegDecoder
}

// InstallHandheld builds the handheld subsystem: every module except
// the network interface, plus the local fragment of the "dma" net.
func InstallHandheld(sub *core.Subsystem, cfg Config) (*HandheldHalf, error) {
	h := &HandheldHalf{
		UI:    &ui{Cfg: cfg},
		Recog: &recognizer{Cfg: cfg},
		Brow:  &browser{Cfg: cfg},
		Cache: &cache{},
		JPEG:  &jpegDecoder{Cfg: cfg},
	}
	type compDef struct {
		name  string
		bhv   core.Behavior
		ports []string
	}
	comps := []compDef{
		{"ui", h.UI, []string{"ink", "screen"}},
		{"recog", h.Recog, []string{"ink", "url"}},
		{"browser", h.Brow, []string{"url", "screen", "cache", "jpeg", "dma"}},
		{"cache", h.Cache, []string{"bus"}},
		{"jpeg", h.JPEG, []string{"bus"}},
	}
	for _, cd := range comps {
		if _, err := sub.NewComponent(cd.name, cd.bhv, cd.ports...); err != nil {
			return nil, err
		}
	}
	nets := []struct {
		name  string
		ports [][2]string
	}{
		{"ink", [][2]string{{"ui", "ink"}, {"recog", "ink"}}},
		{"url", [][2]string{{"recog", "url"}, {"browser", "url"}}},
		{"screen", [][2]string{{"browser", "screen"}, {"ui", "screen"}}},
		{"cachebus", [][2]string{{"browser", "cache"}, {"cache", "bus"}}},
		{"jpegbus", [][2]string{{"browser", "jpeg"}, {"jpeg", "bus"}}},
		{"dma", [][2]string{{"browser", "dma"}}},
	}
	for _, nd := range nets {
		n, err := sub.NewNet(nd.name, 0)
		if err != nil {
			return nil, err
		}
		ports := make([]*core.Port, 0, len(nd.ports))
		for _, pr := range nd.ports {
			ports = append(ports, sub.Component(pr[0]).Port(pr[1]))
		}
		if err := sub.Connect(n, ports...); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// modemHalf is the network-interface side of the split design.
type modemHalf struct {
	ASIC   *asic
	Server *server
}

// InstallModemSite builds the modem subsystem: the cellular ASIC and
// the dedicated server behind its wireless link, plus the remote
// fragment of the "dma" net.
func InstallModemSite(sub *core.Subsystem, cfg Config) (*modemHalf, error) {
	m := &modemHalf{
		ASIC:   &asic{Cfg: cfg},
		Server: &server{Cfg: cfg},
	}
	ac, err := sub.NewComponent("asic", m.ASIC, "dma", "radio")
	if err != nil {
		return nil, err
	}
	ac.SetRunlevel(cfg.Level)
	sc, err := sub.NewComponent("server", m.Server, "radio")
	if err != nil {
		return nil, err
	}
	dma, err := sub.NewNet("dma", 0)
	if err != nil {
		return nil, err
	}
	if err := sub.Connect(dma, ac.Port("dma")); err != nil {
		return nil, err
	}
	radio, err := sub.NewNet("radio", 0)
	if err != nil {
		return nil, err
	}
	if err := sub.Connect(radio, ac.Port("radio"), sc.Port("radio")); err != nil {
		return nil, err
	}
	if cfg.Level == "" {
		return nil, fmt.Errorf("wubbleu: modem site needs an initial detail level")
	}
	return m, nil
}
