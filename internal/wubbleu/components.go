package wubbleu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/signal"
	"repro/internal/timing"
	"repro/internal/vtime"
)

// Config parameterizes a WubbleU build.
type Config struct {
	URL      string
	PageSize int
	Images   int
	Loads    int    // page loads the UI performs
	Level    string // initial detail level of the ASIC<->CPU DMA link
	NoCache  bool   // bypass the page cache (every load fetches)
	Proto    proto.Config

	// Wireless link between the handheld and the dedicated server.
	RadioFrameLen   int
	RadioBitsPerSec int64

	// Cost knobs (cycles on the respective processor).
	RecognizeCycles   int64 // handwriting recognition per request
	ParseCyclesPerKB  int64 // HTML parse
	DecodeCyclesPerKB int64 // JPEG decode
	RenderCycles      int64 // final paint
	ServerCyclesPerKB int64 // server-side page assembly
}

// DefaultConfig reproduces the paper's experiment: a 66 KB page with
// graphics, transferred in 4-byte words or 1 KB packets.
func DefaultConfig() Config {
	return Config{
		URL:               DefaultURL,
		PageSize:          DefaultPageSize,
		Images:            DefaultImageCount,
		Loads:             1,
		Level:             proto.LevelPacket,
		Proto:             proto.DefaultConfig,
		RadioFrameLen:     1024,
		RadioBitsPerSec:   1_000_000, // early cellular data link
		RecognizeCycles:   3_000_000,
		ParseCyclesPerKB:  40_000,
		DecodeCyclesPerKB: 120_000,
		RenderCycles:      2_000_000,
		ServerCyclesPerKB: 5_000,
	}
}

// airtime is the wireless serialization time for n payload bytes.
func (c Config) airtime(n int) vtime.Duration {
	return vtime.Duration(int64(n) * 8 * int64(vtime.Second) / c.RadioBitsPerSec)
}

// ui is the user interface: it enters the URL (as ink strokes) and
// waits for the rendered page.
type ui struct {
	Cfg Config

	Requested []int64 // virtual times, ns
	RenderedT []int64
	Bytes     []int
	Done      int
}

// Run implements core.Behavior.
func (u *ui) Run(p *core.Proc) error {
	for u.Done < u.Cfg.Loads {
		p.Delay(1 * vtime.Millisecond) // the user taps "go"
		u.Requested = append(u.Requested, int64(p.Time()))
		p.Send("ink", strokes{URL: u.Cfg.URL})
		for {
			m, ok := p.Recv("screen")
			if !ok {
				return nil
			}
			r, isR := m.Value.(renderedMsg)
			if !isR {
				continue
			}
			u.RenderedT = append(u.RenderedT, int64(p.Time()))
			u.Bytes = append(u.Bytes, r.Bytes)
			u.Done++
			break
		}
	}
	return nil
}

// LoadTime returns the virtual duration of load i.
func (u *ui) LoadTime(i int) (vtime.Duration, error) {
	if i >= len(u.RenderedT) {
		return 0, fmt.Errorf("wubbleu: load %d did not complete (%d done)", i, u.Done)
	}
	return vtime.Duration(u.RenderedT[i] - u.Requested[i]), nil
}

func (u *ui) SaveState() ([]byte, error)  { return core.GobSave(u) }
func (u *ui) RestoreState(b []byte) error { return core.GobRestore(u, b) }

// recognizer models the handwriting recognition software: it burns
// CPU and forwards the recognized URL.
type recognizer struct {
	Cfg        Config
	Recognized int

	est *timing.Estimator
}

// Run implements core.Behavior.
func (r *recognizer) Run(p *core.Proc) error {
	if r.est == nil {
		r.est, _ = timing.NewEstimator(timing.EmbeddedCPU)
	}
	for {
		m, ok := p.Recv("ink")
		if !ok {
			return nil
		}
		s, isS := m.Value.(strokes)
		if !isS {
			continue
		}
		r.est.ChargeCycles(p, r.Cfg.RecognizeCycles)
		r.Recognized++
		p.Send("url", urlReq{URL: s.URL})
	}
}

func (r *recognizer) SaveState() ([]byte, error)  { return core.GobSave(r) }
func (r *recognizer) RestoreState(b []byte) error { return core.GobRestore(r, b) }

// cache is the handheld's page cache. It keeps each page as the parts
// the browser received it in.
type cache struct {
	Pages  map[string][][]byte
	Hits   int
	Misses int
}

// Run implements core.Behavior.
func (c *cache) Run(p *core.Proc) error {
	if c.Pages == nil {
		c.Pages = make(map[string][][]byte)
	}
	for {
		m, ok := p.Recv("bus")
		if !ok {
			return nil
		}
		req, isReq := m.Value.(cacheReq)
		if !isReq {
			continue
		}
		switch req.Op {
		case "get":
			parts, hit := c.Pages[req.Key]
			if hit {
				c.Hits++
			} else {
				c.Misses++
			}
			p.Advance(20 * vtime.Microsecond)
			p.Send("bus", cacheResp{Key: req.Key, Hit: hit, Parts: parts})
		case "put":
			c.Pages[req.Key] = req.Parts
			p.Advance(vtime.Duration(partsLen(req.Parts)) * 2) // ~2ns/byte copy
		}
	}
}

func (c *cache) SaveState() ([]byte, error)  { return core.GobSave(c) }
func (c *cache) RestoreState(b []byte) error { return core.GobRestore(c, b) }

// jpegDecoder models the image decoder.
type jpegDecoder struct {
	Cfg     Config
	Decoded int

	est *timing.Estimator
}

// Run implements core.Behavior.
func (d *jpegDecoder) Run(p *core.Proc) error {
	if d.est == nil {
		d.est, _ = timing.NewEstimator(timing.EmbeddedCPU)
	}
	for {
		m, ok := p.Recv("bus")
		if !ok {
			return nil
		}
		req, isReq := m.Value.(decodeReq)
		if !isReq {
			continue
		}
		d.est.ChargeCycles(p, d.Cfg.DecodeCyclesPerKB*int64(req.Size)/1024)
		d.Decoded++
		p.Send("bus", decodeResp{ID: req.ID})
	}
}

func (d *jpegDecoder) SaveState() ([]byte, error)  { return core.GobSave(d) }
func (d *jpegDecoder) RestoreState(b []byte) error { return core.GobRestore(d, b) }

// browser is the control process: cache lookup, network fetch, parse,
// image decode, render.
type browser struct {
	Cfg    Config
	Loaded int

	est *timing.Estimator
}

// Run implements core.Behavior.
func (b *browser) Run(p *core.Proc) error {
	if b.est == nil {
		b.est, _ = timing.NewEstimator(timing.EmbeddedCPU)
	}
	for {
		m, ok := p.Recv("url")
		if !ok {
			return nil
		}
		req, isReq := m.Value.(urlReq)
		if !isReq {
			continue
		}
		page, err := b.fetch(p, req.URL)
		if err != nil {
			return err
		}
		if page == nil {
			return nil // simulation ended mid-fetch
		}
		l, err := parseLayout(page)
		if err != nil {
			return fmt.Errorf("wubbleu: browser: %w", err)
		}
		b.est.ChargeCycles(p, b.Cfg.ParseCyclesPerKB*int64(l.html)/1024)
		for i, size := range l.images {
			p.Send("jpeg", decodeReq{ID: i, Size: size})
			if !b.awaitDecode(p, i) {
				return nil
			}
		}
		b.est.ChargeCycles(p, b.Cfg.RenderCycles)
		b.Loaded++
		p.Send("screen", renderedMsg{URL: req.URL, Bytes: partsLen(page)})
	}
}

// fetch returns the page as the parts it arrived in, consulting the
// cache first and the network interface on a miss. The browser reads
// only the page's layout, so the parts are never joined.
func (b *browser) fetch(p *core.Proc, url string) ([][]byte, error) {
	if !b.Cfg.NoCache {
		p.Send("cache", cacheReq{Op: "get", Key: url})
		for {
			m, ok := p.Recv("cache")
			if !ok {
				return nil, nil
			}
			resp, isResp := m.Value.(cacheResp)
			if !isResp {
				continue
			}
			if resp.Hit {
				return resp.Parts, nil
			}
			break
		}
	}
	p.Send("dma", NetReq{URL: url})
	asm := proto.NewAssembler()
	page, ok, err := proto.ReceiveParts(p, "dma", asm)
	if err != nil {
		return nil, fmt.Errorf("wubbleu: browser dma: %w", err)
	}
	if !ok {
		return nil, nil
	}
	if !b.Cfg.NoCache {
		p.Send("cache", cacheReq{Op: "put", Key: url, Parts: page})
	}
	return page, nil
}

func (b *browser) awaitDecode(p *core.Proc, id int) bool {
	for {
		m, ok := p.Recv("jpeg")
		if !ok {
			return false
		}
		if resp, isResp := m.Value.(decodeResp); isResp && resp.ID == id {
			return true
		}
	}
}

func (b *browser) SaveState() ([]byte, error)   { return core.GobSave(b) }
func (b *browser) RestoreState(bs []byte) error { return core.GobRestore(b, bs) }

// asic is the cellular communication chip: it carries requests over
// the wireless link and transfers received pages to the system
// through DMA. Its runlevel chooses the DMA rendering — hardware
// (bus cycles), word passage, or packet passage — which is exactly
// the link whose abstraction level the paper's experiment varies.
type asic struct {
	Cfg       Config
	Transfers int
	DMADrives int
}

// Run implements core.Behavior.
func (a *asic) Run(p *core.Proc) error {
	asm := proto.NewAssembler()
	for {
		m, ok := p.Recv("dma", "radio")
		if !ok {
			return nil
		}
		switch v := m.Value.(type) {
		case NetReq:
			p.Advance(a.Cfg.airtime(len(v.URL) + 16)) // request frame airtime
			p.Send("radio", signal.Frame{Src: "asic", Dst: "server", Payload: []byte(v.URL), Last: true})
		case signal.Frame:
			parts, done, err := asm.FeedParts(v)
			if err != nil {
				return fmt.Errorf("wubbleu: asic radio: %w", err)
			}
			if !done {
				continue
			}
			// Whole page buffered on the chip: DMA it to the CPU at
			// the current detail level, straight out of the radio
			// payloads it arrived in; the browser reads it the same way.
			a.Transfers++
			a.DMADrives += proto.SendParts(p, "dma", parts, p.Runlevel(), a.Cfg.Proto)
		}
	}
}

func (a *asic) SaveState() ([]byte, error)  { return core.GobSave(a) }
func (a *asic) RestoreState(b []byte) error { return core.GobRestore(a, b) }

// server is the dedicated server: a base station plus web gateway
// serving the page store over the wireless link.
type server struct {
	Cfg    Config
	Served int

	page  *sharedPage // keeps the store's page in the memo while this server serves it
	store *Store
	est   *timing.Estimator
}

// Run implements core.Behavior.
func (s *server) Run(p *core.Proc) error {
	if s.store == nil {
		// The store holds the one page this server is configured to
		// serve; any other URL gets the 404.
		page, err := servedPage(s.Cfg.PageSize, s.Cfg.Images)
		if err != nil {
			return err
		}
		s.page, s.store = page, NewStore(s.Cfg.URL, page.b)
	}
	if s.est == nil {
		s.est, _ = timing.NewEstimator(timing.ServerCPU)
	}
	asm := proto.NewAssembler()
	for {
		m, ok := p.Recv("radio")
		if !ok {
			return nil
		}
		payload, done, err := asm.Feed(m.Value)
		if err != nil {
			return fmt.Errorf("wubbleu: server radio: %w", err)
		}
		if !done {
			continue
		}
		url := string(payload)
		page := s.store.Get(url)
		if page == nil {
			page = []byte{} // 404: empty body
		}
		s.est.ChargeCycles(p, s.Cfg.ServerCyclesPerKB*int64(len(page))/1024)
		s.Served++
		// Stream the page back over the air, one frame per radio
		// packet with its airtime. The frames are views of the store's
		// page, which nothing writes; cap == len, so a receiver's append
		// cannot reach the next frame's bytes. The frames are boxed in
		// shared chunks, the Last one alone.
		flen := s.Cfg.RadioFrameLen
		if flen <= 0 {
			flen = 1024
		}
		var boxes signal.FrameBoxes
		seq := uint32(0)
		for off := 0; off < len(page) || seq == 0; off += flen {
			end := min(off+flen, len(page))
			chunk := page[off:end:end]
			p.Advance(s.Cfg.airtime(len(chunk) + 16))
			p.Send("radio", boxes.Box(signal.Frame{Src: "server", Dst: "asic", Seq: seq, Payload: chunk, Last: end >= len(page)}))
			seq++
		}
	}
}

func (s *server) SaveState() ([]byte, error)  { return core.GobSave(s) }
func (s *server) RestoreState(b []byte) error { return core.GobRestore(s, b) }
