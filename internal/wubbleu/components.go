package wubbleu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/signal"
	"repro/internal/timing"
	"repro/internal/vtime"
	"repro/internal/wire"
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
	Bytes     []int64
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
			u.Bytes = append(u.Bytes, int64(r.Bytes))
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

// The caps the state layouts below are read under.
const (
	maxLoads     = 1 << 20  // a UI's load records
	maxPages     = 1 << 10  // pages in the cache
	maxURL       = 4 << 10  // a cached page's key
	maxPageParts = 1 << 20  // the parts one cached page arrived in
	maxPart      = 32 << 20 // one part's bytes
)

// SaveState writes the UI's progress: the loads done, then its three
// load records, each a count and its values. Cfg is the description's,
// so it stays out of the state, as in every WubbleU module.
func (u *ui) SaveState() ([]byte, error) {
	b := binary.AppendVarint(nil, int64(u.Done))
	for _, l := range [][]int64{u.Requested, u.RenderedT, u.Bytes} {
		b = binary.AppendUvarint(b, uint64(len(l)))
		for _, v := range l {
			b = binary.AppendVarint(b, v)
		}
	}
	return b, nil
}

func (u *ui) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	u.Done = int(f.Varint())
	for _, l := range []*[]int64{&u.Requested, &u.RenderedT, &u.Bytes} {
		*l = make([]int64, f.Len(maxLoads, 1))
		for i := range *l {
			(*l)[i] = f.Varint()
		}
	}
	return f.Done()
}

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

// SaveState writes the count of recognized requests. The estimator
// only prices work: nothing reads what it has charged.
func (r *recognizer) SaveState() ([]byte, error) {
	return binary.AppendVarint(nil, int64(r.Recognized)), nil
}

func (r *recognizer) RestoreState(b []byte) error { return wire.ReadInts(b, &r.Recognized) }

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

// SaveState writes the hit and miss counts, then each page in key
// order: its key, its part count and the parts.
func (c *cache) SaveState() ([]byte, error) {
	b := binary.AppendVarint(nil, int64(c.Hits))
	b = binary.AppendVarint(b, int64(c.Misses))
	keys := make([]string, 0, len(c.Pages))
	for key := range c.Pages {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, key := range keys {
		b = wire.AppendString(b, key)
		b = binary.AppendUvarint(b, uint64(len(c.Pages[key])))
		for _, part := range c.Pages[key] {
			b = wire.AppendString(b, part)
		}
	}
	return b, nil
}

// RestoreState reads what SaveState wrote, the keys strictly in order.
// The parts share one copy of the state.
func (c *cache) RestoreState(b []byte) error {
	f := wire.ReadFields(bytes.Clone(b))
	c.Hits, c.Misses = int(f.Varint()), int(f.Varint())
	n := f.Len(maxPages, 2)
	c.Pages = make(map[string][][]byte, n)
	prev := ""
	for i := range n {
		key := f.String(maxURL)
		if i > 0 && key <= prev {
			f.Failf("wubbleu: cache key %q out of order", key)
		}
		parts := make([][]byte, f.Len(maxPageParts, 1))
		for j := range parts {
			parts[j] = f.View(f.Uvarint(), maxPart)
		}
		c.Pages[key], prev = parts, key
	}
	return f.Done()
}

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

func (d *jpegDecoder) SaveState() ([]byte, error) {
	return binary.AppendVarint(nil, int64(d.Decoded)), nil
}

func (d *jpegDecoder) RestoreState(b []byte) error { return wire.ReadInts(b, &d.Decoded) }

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

func (b *browser) SaveState() ([]byte, error)   { return binary.AppendVarint(nil, int64(b.Loaded)), nil }
func (b *browser) RestoreState(bs []byte) error { return wire.ReadInts(bs, &b.Loaded) }

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

func (a *asic) SaveState() ([]byte, error) {
	return binary.AppendVarint(binary.AppendVarint(nil, int64(a.Transfers)), int64(a.DMADrives)), nil
}

func (a *asic) RestoreState(b []byte) error { return wire.ReadInts(b, &a.Transfers, &a.DMADrives) }

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

// SaveState writes the count of pages served; the store and the
// estimator are built from Cfg.
func (s *server) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(s.Served)), nil }
func (s *server) RestoreState(b []byte) error { return wire.ReadInts(b, &s.Served) }
