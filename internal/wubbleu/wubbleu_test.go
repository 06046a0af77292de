package wubbleu

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/proto"
	"repro/internal/signal"
	"repro/internal/vtime"
)

func TestGenPageRoundTrip(t *testing.T) {
	for _, total := range []int{1024, DefaultPageSize, 200_000} {
		data, err := GenPage(total, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != total {
			t.Fatalf("page size %d, want %d", len(data), total)
		}
		p, err := ParsePage(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Images) != 4 {
			t.Fatalf("images = %d", len(p.Images))
		}
		if p.TotalBytes() != total {
			t.Fatalf("TotalBytes = %d, want %d", p.TotalBytes(), total)
		}
	}
	if _, err := GenPage(10, 4); err == nil {
		t.Fatal("tiny page accepted")
	}
}

// TestGenPageAllocatesPageOnce is the page-path guard on the server
// side: generating a 2 MB page allocates the page and the random
// source's fixed state, not same-sized temporaries for the html and
// each image.
func TestGenPageAllocatesPageOnce(t *testing.T) {
	const total = 2 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := GenPage(total, DefaultImageCount)
	runtime.ReadMemStats(&after)
	if err != nil || len(data) != total {
		t.Fatalf("GenPage: %d bytes, err %v", len(data), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > total+16<<10 {
		t.Fatalf("GenPage(%d) allocated %d bytes, want the page once", total, got)
	}
}

// TestGenPageBytesPinned pins the bytes of generated pages: every
// digest downstream hashes frame payloads, so generating a page faster
// may not change one byte of it. 200 001 bytes with five images puts
// the image boundaries in the middle of a random source's word.
func TestGenPageBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		total, images int
		sha256        string
	}{
		{DefaultPageSize, 4, "feb3b8df28b08ac397d5046fd3221d1f72c19891f8670a099614605556c57389"},
		{2 << 20, 4, "85b64a47d5cc59b2c509582f1cc04aefb34da06195710b9107049b6fd4a074b9"},
		{200_001, 5, "d03894fa379b709ae8f3b4a36ad896a9d6b8db02ad02577dd491f86e7f544d39"},
	} {
		data, err := GenPage(tc.total, tc.images)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.sha256 {
			t.Errorf("GenPage(%d, %d) sha256 %s, want %s", tc.total, tc.images, got, tc.sha256)
		}
	}
}

// badPage is a page the parser must refuse.
type badPage struct {
	name string
	data []byte
}

// badPages are pages the parser must refuse, one per check it makes.
func badPages() []badPage {
	good, _ := GenPage(2048, 2)
	magic := bytes.Clone(good)
	magic[0] ^= 0xff
	return []badPage{
		{"short", []byte{1, 2}},
		{"bad magic", magic},
		{"truncated", good[:100]},
		{"trailing", append(bytes.Clone(good), 0)},
	}
}

func TestParsePageErrors(t *testing.T) {
	for _, bad := range badPages() {
		if _, err := ParsePage(bad.data); err == nil {
			t.Errorf("%s page accepted", bad.name)
		}
	}
}

func TestStore(t *testing.T) {
	s := NewStore("x", []byte{1})
	if len(s.Get("x")) != 1 || s.Get("nope") != nil {
		t.Fatal("NewStore/Get broken")
	}
}

// runLocal builds and runs a local WubbleU and returns the app.
func runLocal(t *testing.T, cfg Config) *App {
	t.Helper()
	b := pia.NewSystem("wubbleu")
	app, err := Install(b, cfg, LocalPlacement())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(pia.Infinity); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestLocalPageLoadPacketLevel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 8 * 1024 // keep the unit test fast
	cfg.Images = 2
	app := runLocal(t, cfg)
	res := app.Result()
	if res.Loads != 1 {
		t.Fatalf("loads = %d", res.Loads)
	}
	if res.PageBytes[0] != cfg.PageSize {
		t.Fatalf("page bytes = %d, want %d", res.PageBytes[0], cfg.PageSize)
	}
	if app.JPEG.Decoded != 2 || app.Server.Served != 1 || app.Recog.Recognized != 1 {
		t.Fatalf("module counters: jpeg=%d server=%d recog=%d", app.JPEG.Decoded, app.Server.Served, app.Recog.Recognized)
	}
	if res.LoadVirt[0] <= 0 {
		t.Fatal("non-positive load time")
	}
	// 8 KB at 1 Mbps is at least 64 ms of airtime.
	if res.LoadVirt[0] < 64*vtime.Millisecond {
		t.Fatalf("load time %v below radio physics", res.LoadVirt[0])
	}
	if res.DMADrives != packets(cfg) {
		t.Fatalf("dma drives = %d", res.DMADrives)
	}
}

func TestWordLevelCostsMoreVirtualTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 8 * 1024
	cfg.Images = 1
	word := cfg
	word.Level = proto.LevelWord
	packetApp := runLocal(t, cfg)
	wordApp := runLocal(t, word)
	pr, wr := packetApp.Result(), wordApp.Result()
	if wr.DMADrives <= pr.DMADrives {
		t.Fatalf("word drives %d <= packet drives %d", wr.DMADrives, pr.DMADrives)
	}
	if wr.LoadVirt[0] <= pr.LoadVirt[0] {
		t.Fatalf("word load %v <= packet load %v", wr.LoadVirt[0], pr.LoadVirt[0])
	}
}

func TestSecondLoadHitsCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 4 * 1024
	cfg.Images = 1
	cfg.Loads = 2
	app := runLocal(t, cfg)
	res := app.Result()
	if res.Loads != 2 {
		t.Fatalf("loads = %d", res.Loads)
	}
	if res.CacheHits != 1 || app.Cache.Misses != 1 {
		t.Fatalf("cache hits=%d misses=%d", res.CacheHits, app.Cache.Misses)
	}
	if app.Server.Served != 1 {
		t.Fatalf("server served %d, want 1 (second load cached)", app.Server.Served)
	}
	// The cached load skips the radio transfer, so it is strictly
	// faster; recognition/decode/render costs dominate both, so the
	// gap equals roughly the network time.
	if res.LoadVirt[1] >= res.LoadVirt[0] {
		t.Fatalf("cached load %v not faster than network load %v", res.LoadVirt[1], res.LoadVirt[0])
	}
}

func TestRemotePlacementSplitsDMA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 4 * 1024
	cfg.Images = 1
	b := pia.NewSystem("wubbleu-remote")
	app, err := Install(b, cfg, RemotePlacement())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(pia.Time(pia.Seconds(30))); err != nil {
		t.Fatal(err)
	}
	res := app.Result()
	if res.Loads != 1 {
		t.Fatalf("remote load did not complete: %+v", res)
	}
	// The dma net exists as a fragment on both subsystems.
	if sim.Subsystem("handheld").Net("dma") == nil || sim.Subsystem("modemsite").Net("dma") == nil {
		t.Fatal("dma net not split")
	}
	// The radio net stays entirely on the modem site.
	if sim.Subsystem("handheld").Net("radio") != nil {
		t.Fatal("radio net leaked onto the handheld subsystem")
	}
}

// TestLastValuesPinNoPage: packets travel as views of the page, but a
// net keeps its last value (and checkpoints it), so what the nets hold
// after a packet-level remote run must not pin a page. The ASIC
// forwards the radio payloads it buffered, so the page its DMA packets
// are views of is the server's store page. Both fragments of "dma" end
// on the Last frame, which owns at most one packet of bytes outside
// that page; "radio" ends on a frame of at most one packet, or on a
// view of the store page, which the server keeps anyway.
func TestLastValuesPinNoPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 8<<10 + 300 // a short last packet
	cfg.Images = 1
	b := pia.NewSystem("wubbleu-remote")
	app, err := Install(b, cfg, RemotePlacement())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	var firstDMA []byte
	sim.Subsystem("modemsite").OnDrive = func(net, _ string, _ vtime.Time, v any) {
		if f, ok := v.(signal.Frame); ok && net == "dma" && firstDMA == nil {
			firstDMA = f.Payload
		}
	}
	if err := sim.Run(pia.Time(pia.Seconds(30))); err != nil {
		t.Fatal(err)
	}
	if res := app.Result(); res.Loads != 1 || res.PageBytes[0] != cfg.PageSize {
		t.Fatalf("remote load did not complete: %+v", res)
	}
	store := app.Server.store.Get(cfg.URL)
	if !within(firstDMA, store) {
		t.Fatal("the ASIC's first DMA packet is not a view of the store page")
	}
	plen := cfg.Proto.PacketLen
	lastFrame := func(sub, net string) signal.Frame {
		v, _ := sim.Subsystem(sub).Net(net).LastValue()
		f, ok := v.(signal.Frame)
		if !ok || !f.Last || len(f.Payload) == 0 {
			t.Fatalf("%s/%s ends on %v, want the Last frame", sub, net, v)
		}
		return f
	}
	for _, sub := range []string{"handheld", "modemsite"} {
		if f := lastFrame(sub, "dma"); cap(f.Payload) > plen || within(f.Payload, store) {
			t.Fatalf("%s/dma keeps %d bytes of capacity, a view of the page: %v", sub, cap(f.Payload), within(f.Payload, store))
		}
	}
	if f := lastFrame("modemsite", "radio"); cap(f.Payload) > plen && !within(f.Payload, store) {
		t.Fatalf("modemsite/radio keeps %d bytes of capacity outside the store page", cap(f.Payload))
	}
}

// TestASICForwardsRadioPayloads: the ASIC buffers a page as the radio
// payloads it arrived in and DMAs them without joining them first.
// Every packet but the Last is a view of the server's store page, and a
// packet-level load of a 2 MB page allocates one page — the server's
// GenPage — not a join in the ASIC or in the browser, which reads the
// page as the packets it received.
func TestASICForwardsRadioPayloads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2 << 20
	b := pia.NewSystem("wubbleu")
	app, err := Install(b, cfg, LocalPlacement())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	dma := make([]signal.Frame, 0, packets(cfg)) // the hook allocates nothing
	sim.Subsystem("main").OnDrive = func(net, _ string, _ vtime.Time, v any) {
		if f, ok := v.(signal.Frame); ok && net == "dma" {
			dma = append(dma, f)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sim.Run(pia.Infinity); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res := app.Result(); res.Loads != 1 || res.PageBytes[0] != cfg.PageSize {
		t.Fatalf("load did not complete: %+v", res)
	}
	store := app.Server.store.Get(cfg.URL)
	if len(dma) != packets(cfg) {
		t.Fatalf("%d DMA packets", len(dma))
	}
	for i, f := range dma {
		if view := within(f.Payload, store); view == f.Last {
			t.Fatalf("DMA packet %d (Last %v): view of the store page %v", i, f.Last, view)
		}
	}
	// One page plus what a run of 4 096 drives costs on its own, which
	// reads 0.9 MB: event queue chunks, frame box chunks, the two lists
	// of kept payloads. A second page would pass the limit.
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(cfg.PageSize + 3*cfg.PageSize/4); got > limit {
		t.Fatalf("a %d-byte packet-level load allocated %d bytes, want <= %d: the page once, not twice", cfg.PageSize, got, limit)
	}
	t.Logf("a %d-byte packet-level load allocated %d bytes", cfg.PageSize, got)
}

// TestBrowserCachesPageAsReceived: the browser hands the cache the
// page as the packets it received, so in local placement every cached
// part but the Last is a view of the server's store page, and a second
// load's cache hit re-serves those same parts without allocating
// anything page-sized.
func TestBrowserCachesPageAsReceived(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2 << 20
	cfg.Loads = 2
	b := pia.NewSystem("wubbleu")
	app, err := Install(b, cfg, LocalPlacement())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	var (
		served   [][]byte
		rendered []uint64 // TotalAlloc as each load rendered
		ms       runtime.MemStats
	)
	sim.Subsystem("main").OnDrive = func(_, _ string, _ vtime.Time, v any) {
		switch x := v.(type) {
		case cacheResp:
			if x.Hit {
				served = x.Parts
			}
		case renderedMsg:
			runtime.ReadMemStats(&ms)
			rendered = append(rendered, ms.TotalAlloc)
		}
	}
	if err := sim.Run(pia.Infinity); err != nil {
		t.Fatal(err)
	}
	if res := app.Result(); res.Loads != 2 || res.CacheHits != 1 || res.PageBytes[1] != cfg.PageSize {
		t.Fatalf("loads did not complete, or the second missed the cache: %+v", res)
	}
	store := app.Server.store.Get(cfg.URL)
	cached := app.Cache.Pages[cfg.URL]
	if n := packets(cfg); len(cached) != n || partsLen(cached) != cfg.PageSize {
		t.Fatalf("cached %d parts of %d bytes, want the %d packets of the page", len(cached), partsLen(cached), n)
	}
	for i, part := range cached {
		if last := i == len(cached)-1; within(part, store) == last {
			t.Fatalf("cached part %d (Last %v): view of the store page %v", i, last, within(part, store))
		}
	}
	if len(served) != len(cached) {
		t.Fatalf("the hit served %d parts, the cache holds %d", len(served), len(cached))
	}
	for i := range served {
		if unsafe.SliceData(served[i]) != unsafe.SliceData(cached[i]) || len(served[i]) != len(cached[i]) {
			t.Fatalf("the hit served part %d as other bytes than the cache holds", i)
		}
	}
	got := rendered[1] - rendered[0]
	if got > uint64(cfg.PageSize/8) {
		t.Fatalf("the cached load allocated %d bytes, want nothing page-sized", got)
	}
	t.Logf("the cached load of a %d-byte page allocated %d bytes", cfg.PageSize, got)
}

// within reports whether b's bytes lie inside page's array.
func within(b, page []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(page)))
	return p >= lo && p < lo+uintptr(len(page))
}

// fig5Edges is the paper's Fig. 5 module graph, written down here as
// the test's own reference: each net joins exactly these two modules.
var fig5Edges = map[string][2]string{
	"ink":      {"ui", "recog"},
	"url":      {"recog", "browser"},
	"screen":   {"browser", "ui"},
	"cachebus": {"browser", "cache"},
	"jpegbus":  {"browser", "jpeg"},
	"dma":      {"browser", "asic"},
	"radio":    {"asic", "server"},
}

// TestFig5CommunicationGraph: the installed design's wiring realizes
// Fig. 5's module graph — every edge is a net connecting exactly its
// two endpoints, and the built system has no net outside the graph.
func TestFig5CommunicationGraph(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2048
	cfg.Images = 1
	b := pia.NewSystem("fig5")
	if _, err := Install(b, cfg, LocalPlacement()); err != nil {
		t.Fatal(err)
	}
	sim, err := b.BuildLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	main := sim.Subsystem("main")
	for net, ends := range fig5Edges {
		n := main.Net(net)
		if n == nil {
			t.Fatalf("Fig 5 net %q missing", net)
		}
		var comps []string
		for _, p := range n.Ports() {
			comps = append(comps, p.Component().Name())
		}
		if len(comps) != 2 || !slices.Contains(comps, ends[0]) || !slices.Contains(comps, ends[1]) {
			t.Fatalf("net %q connects %v, want %v", net, comps, ends)
		}
	}
	for _, c := range main.Components() {
		for _, p := range c.Ports() {
			if n := p.Net(); n == nil {
				t.Errorf("port %s.%s is on no net", c.Name(), p.Name)
			} else if _, ok := fig5Edges[n.Name]; !ok {
				t.Errorf("net %q is not in Fig. 5", n.Name)
			}
		}
	}
}

func TestInstallValidation(t *testing.T) {
	b := pia.NewSystem("bad")
	if _, err := Install(b, Config{}, LocalPlacement()); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestUILoadTimeError(t *testing.T) {
	u := &ui{}
	if _, err := u.LoadTime(0); err == nil {
		t.Fatal("LoadTime of incomplete load succeeded")
	}
}

// TestCodecZeroAllocNetReq: NetReq is the one WubbleU message that
// crosses a node boundary (one per page load, on "dma"), through the
// wire layout messages.go registers. It round-trips, and encoding it
// into a recycled buffer allocates nothing.
func TestCodecZeroAllocNetReq(t *testing.T) {
	msgs := []channel.Message{{Kind: channel.KindData, From: "handheld", Seq: 1, Net: "dma",
		Source: "browser", Time: 40, Value: NetReq{URL: "http://wubbleu.example/index.html"}}}
	var dst []byte
	if avg := testing.AllocsPerRun(200, func() {
		var err error
		if dst, _, err = channel.AppendBatch(dst[:0], msgs, 1<<20); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("NetReq encode allocates %.2f/op with a recycled buffer, want 0", avg)
	}
	got, _, err := channel.NewBatchDecoder().DecodeBatchInto(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, msgs)
	}
}

// packets is the number of packet drives a page costs: one per packet
// of cfg.Proto.PacketLen bytes, which DefaultConfig sets.
func packets(cfg Config) int {
	return max(1, (cfg.PageSize+cfg.Proto.PacketLen-1)/cfg.Proto.PacketLen)
}
