package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/timeline"
	"repro/internal/vtime"
)

func TestNilEverythingIsInert(t *testing.T) {
	var r *Recorder
	r.Record("a", "b", "c", 1)
	r.Trip("x", "y")
	r.SetInfo("k", "v")
	r.AttachRegistry(nil)
	r.AttachTimeline(nil)
	r.OnTrip(func(*Dump) {})
	if d := r.BuildDump(); d != nil {
		t.Fatalf("nil recorder dump = %+v, want nil", d)
	}
	if ok, _ := r.Tripped(); ok {
		t.Fatal("nil recorder cannot trip")
	}

	r.recordMetrics([]metricDelta{{Name: "n"}})
	if r.subscribers() != 0 || r.Dropped() != 0 || r.Sent() != 0 {
		t.Fatal("nil recorder must have no watchers")
	}

	var s *Sampler
	s.tick()
	s.Start()
	s.Stop()
	s.SetPoll(func() {})
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(200, func() {
		r.Record("session", "s-1", "stepped", 42)
	}); n != 0 {
		t.Fatalf("nil recorder Record = %v allocs/op, want 0", n)
	}
}

func TestEnabledRecordZeroAllocs(t *testing.T) {
	// The ring is pre-allocated and entries are overwritten in place:
	// even the ENABLED record path must not allocate.
	r := New(64)
	if n := testing.AllocsPerRun(200, func() {
		r.Record("session", "s-1", "stepped", 42)
	}); n != 0 {
		t.Fatalf("enabled Record = %v allocs/op, want 0", n)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(4)
	for i := 1; i <= 10; i++ {
		r.Record("k", fmt.Sprintf("e%d", i), "", int64(i))
	}
	d := r.BuildDump()
	if len(d.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(d.Entries))
	}
	for i, e := range d.Entries {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("entry %d seq = %d, want %d (oldest-first tail)", i, e.Seq, want)
		}
	}
	if d.Recorded != 10 {
		t.Fatalf("recorded_total = %d, want 10", d.Recorded)
	}
}

// counter registers a pull collector reporting one counter, the way
// every layer reports its Stats counters, and returns the value it
// reads.
func counter(reg *metrics.Registry, name string) *atomic.Int64 {
	v := new(atomic.Int64)
	reg.AddCollector(func(emit func(metrics.Sample)) {
		emit(metrics.Sample{Name: name, Kind: metrics.KindCounter, Value: v.Load()})
	})
	return v
}

func TestTripFreezesAndDumps(t *testing.T) {
	reg := metrics.NewRegistry()
	counter(reg, "pia_x").Add(7)
	tl := timeline.NewRecorder(0)
	tl.Drive("sub", "comp", "net", vtime.Time(5), nil)

	r := New(8)
	r.SetInfo("node", "n1")
	r.AttachRegistry(reg)
	r.AttachTimeline(tl)

	dumps := make(chan *Dump, 1)
	r.OnTrip(func(d *Dump) { dumps <- d })

	r.Record("session", "s-1", "created", 0)
	r.Trip("session-failed", "boom")
	r.Record("session", "s-2", "too late", 0) // after freeze: counted, not kept
	r.Trip("second", "ignored")               // first trip wins

	var d *Dump
	select {
	case d = <-dumps:
	case <-time.After(5 * time.Second):
		t.Fatal("OnTrip never fired")
	}
	if !d.Tripped || d.Reason != "session-failed" || d.Detail != "boom" {
		t.Fatalf("dump header = %+v", d)
	}
	// Trip builds its dump on a fresh goroutine, which may run before
	// or after the "too late" Record: the asynchronous dump sees 0 or 1,
	// and a dump built now must see exactly 1.
	if d.AfterFreeze > 1 {
		t.Fatalf("async dropped_after_freeze = %d, want 0 or 1", d.AfterFreeze)
	}
	if got := r.BuildDump().AfterFreeze; got != 1 {
		t.Fatalf("dropped_after_freeze = %d, want 1", got)
	}
	if d.Info["node"] != "n1" || d.Info["version"] == "" {
		t.Fatalf("info = %v", d.Info)
	}
	// Ring holds the pre-failure record plus the trip marker itself.
	last := d.Entries[len(d.Entries)-1]
	if last.Kind != "trip" || last.Name != "session-failed" {
		t.Fatalf("last entry = %+v, want the trip marker", last)
	}
	foundMetric := false
	for _, s := range d.Metrics {
		if s.Name == "pia_x" && s.Value == 7 {
			foundMetric = true
		}
	}
	if !foundMetric {
		t.Fatalf("dump metrics missing registry state: %+v", d.Metrics)
	}
	if len(d.Timeline) != 1 || d.Timeline[0].Comp != "comp" {
		t.Fatalf("dump timeline tail = %+v", d.Timeline)
	}
	if ok, why := r.Tripped(); !ok || why != "session-failed" {
		t.Fatalf("Tripped() = %v %q", ok, why)
	}

	// The whole dump must round-trip as self-contained JSON.
	var buf strings.Builder
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if back.Reason != "session-failed" || len(back.Entries) != len(d.Entries) {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestTripSafeUnderCallerLock(t *testing.T) {
	// Callers trip while holding their own locks (session mutex,
	// scheduler goroutine). A registry collector that takes such a
	// lock must not deadlock against Trip, because the dump is built
	// asynchronously with no recorder lock held.
	var callerMu sync.Mutex
	reg := metrics.NewRegistry()
	reg.AddCollector(func(emit func(metrics.Sample)) {
		callerMu.Lock()
		defer callerMu.Unlock()
		emit(metrics.Sample{Name: "locked", Kind: metrics.KindGauge, Value: 1})
	})
	r := New(8)
	r.AttachRegistry(reg)
	done := make(chan *Dump, 1)
	r.OnTrip(func(d *Dump) { done <- d })

	callerMu.Lock()
	r.Trip("under-lock", "")
	callerMu.Unlock() // dump goroutine can now snapshot

	select {
	case d := <-done:
		if len(d.Metrics) != 1 {
			t.Fatalf("dump metrics = %+v", d.Metrics)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: dump never completed")
	}
}

func TestWatchDropsStalledSubscriber(t *testing.T) {
	h := New(8)
	stalled := h.subscribe("", "")
	healthy := h.subscribe("", "")
	if h.subscribers() != 2 {
		t.Fatalf("subscribers = %d", h.subscribers())
	}

	// Publish past the stalled subscriber's queue depth, draining the
	// healthy queue as we go; never read the stalled one. Every call
	// must return promptly even though nobody reads `stalled`.
	var got int
	start := time.Now()
	for i := 0; i < subQueueCap+16; i++ {
		h.Record("session", "s", "", int64(i))
		for drained := false; !drained; {
			select {
			case <-healthy.ch:
				got++
			default:
				drained = true
			}
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("publishing blocked on a stalled subscriber: %v", el)
	}
	if h.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", h.Dropped())
	}
	if h.subscribers() != 1 {
		t.Fatalf("subscribers after drop = %d, want 1", h.subscribers())
	}
	// The stalled channel must be closed so its handler unwinds.
	select {
	case _, ok := <-stalled.ch:
		if !ok {
			break
		}
		// Drain buffered frames until close.
		for range stalled.ch {
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled subscriber channel never closed")
	}
	h.unsubscribe(stalled) // idempotent with the publisher-side drop
	h.unsubscribe(healthy)
}

// TestRecordStreamsInSeqOrder: with 8 goroutines recording at once, a
// watcher receives every transition as the ring entry it is — same seq,
// same wall_ns — in strictly increasing seq, and so does the trip that
// freezes the ring. A transition recorded after the freeze streams with
// seq 0 and a stamp of its own.
func TestRecordStreamsInSeqOrder(t *testing.T) {
	const writers, per = 8, subQueueCap/8 - 1 // room for the trip and one late record
	r := New(writers*per + 1)
	sub := r.subscribe("", "")
	defer r.unsubscribe(sub)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record("session", fmt.Sprintf("s-%d", g), "stepped", int64(i))
			}
		}(g)
	}
	wg.Wait()
	r.Trip("peer-lost", "alpha")
	r.Record("session", "s-0", "stopped", 0)

	ring := r.BuildDump().Entries
	if len(ring) != writers*per+1 || r.Dropped() != 0 {
		t.Fatalf("ring holds %d entries (want %d), %d watchers dropped", len(ring), writers*per+1, r.Dropped())
	}
	next := func() entry {
		var e entry
		if err := json.Unmarshal((<-sub.ch).data, &e); err != nil {
			t.Fatal(err)
		}
		return e
	}
	for i, want := range ring {
		got := next()
		if got != want || got.Seq != uint64(i+1) || want.WallNS == 0 {
			t.Fatalf("frame %d = %+v, ring entry %+v", i, got, want)
		}
		if want.Kind == "session" && want.Session != want.Name {
			t.Fatalf("session entry %+v carries no session id", want)
		}
	}
	if late := next(); late.Seq != 0 || late.WallNS < ring[len(ring)-1].WallNS || late.Detail != "stopped" {
		t.Fatalf("after the freeze streamed %+v, want seq 0 stamped after the trip", late)
	}
}

func TestWatchFilters(t *testing.T) {
	h := New(8)
	all := h.subscribe("", "")
	tenant := h.subscribe("s-1", "")
	prefixed := h.subscribe("", "pia_sched")
	defer func() { h.unsubscribe(all); h.unsubscribe(tenant); h.unsubscribe(prefixed) }()

	h.Record("session", "s-1", "", 0)
	h.Record("session", "s-2", "", 0)
	h.Record("health", "node", "", 0) // global

	recv := func(s *subscriber) []string {
		var names []string
		for {
			select {
			case f := <-s.ch:
				var tr entry
				_ = json.Unmarshal(f.data, &tr)
				names = append(names, tr.Name)
			default:
				return names
			}
		}
	}
	if got := recv(all); len(got) != 3 {
		t.Fatalf("unfiltered subscriber got %v", got)
	}
	if got := recv(tenant); strings.Join(got, ",") != "s-1,node" {
		t.Fatalf("tenant subscriber got %v, want [s-1 node]", got)
	}
	recv(prefixed) // drain its queued transitions before the metrics frame

	h.recordMetrics([]metricDelta{
		{Name: `pia_sched_steps{sub="a"}`, Value: 5, Delta: 5},
		{Name: `pia_wire_bytes{node="n"}`, Value: 9, Delta: 9},
		{Name: `pia_sched_steps{sub="b",session="s-1"}`, Value: 2, Delta: 2},
	})
	var mf metricFrame
	_ = json.Unmarshal((<-prefixed.ch).data, &mf)
	if len(mf.Changed) != 2 {
		t.Fatalf("prefix filter passed %+v", mf.Changed)
	}
	for _, d := range mf.Changed {
		if !strings.HasPrefix(d.Name, "pia_sched") {
			t.Fatalf("prefix filter leaked %s", d.Name)
		}
	}
	_ = json.Unmarshal((<-tenant.ch).data, &mf)
	if len(mf.Changed) != 1 || !strings.Contains(mf.Changed[0].Name, `session="s-1"`) {
		t.Fatalf("session filter passed %+v", mf.Changed)
	}
}

func TestWatchSSEEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	c := counter(reg, "pia_live")
	rec := New(32)
	rec.AttachRegistry(reg)
	smp := NewSampler(reg, rec, time.Hour) // ticked manually
	defer smp.Stop()

	srv := httptest.NewServer(http.HandlerFunc(rec.Watch))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/?prefix=pia_")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %s", ct)
	}
	rd := bufio.NewReader(resp.Body)
	readEvent := func() (string, string) {
		var event, data string
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("stream read: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && event != "":
				return event, data
			}
		}
	}

	// The handler subscribes before it writes hello, so from here on
	// every frame reaches this stream.
	if ev, _ := readEvent(); ev != "hello" {
		t.Fatalf("first event = %s, want hello", ev)
	}

	c.Add(3)
	smp.tick()
	ev, data := readEvent()
	if ev != "metrics" {
		t.Fatalf("event = %s, want metrics", ev)
	}
	var mf metricFrame
	if err := json.Unmarshal([]byte(data), &mf); err != nil {
		t.Fatalf("bad metrics frame %q: %v", data, err)
	}
	if len(mf.Changed) != 1 || mf.Changed[0].Name != "pia_live" || mf.Changed[0].Delta != 3 {
		t.Fatalf("metrics frame = %+v", mf.Changed)
	}

	// Unchanged registry → no frame; next change streams only deltas.
	smp.tick()
	c.Add(2)
	smp.tick()
	ev, data = readEvent()
	_ = json.Unmarshal([]byte(data), &mf)
	if ev != "metrics" || mf.Changed[0].Value != 5 || mf.Changed[0].Delta != 2 {
		t.Fatalf("delta frame = %s %+v", ev, mf.Changed)
	}

	rec.Trip("quorum-dead", "")
	ev, data = readEvent()
	var tr entry
	_ = json.Unmarshal([]byte(data), &tr)
	if ev != "transition" || tr.Name != "quorum-dead" {
		t.Fatalf("transition frame = %s %+v", ev, tr)
	}

	// The sampler also fed the ring.
	d := rec.BuildDump()
	foundRing := false
	for _, e := range d.Entries {
		if e.Kind == "metric" && e.Name == "pia_live" {
			foundRing = true
		}
	}
	if !foundRing {
		t.Fatalf("sampler did not record metric deltas in ring: %+v", d.Entries)
	}

	// Teardown: unblock any handler stuck in Write before closing.
	resp.Body.Close()
	srv.CloseClientConnections()
}

func TestSamplerPollHook(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := New(8)
	smp := NewSampler(reg, rec, time.Hour)
	defer smp.Stop()
	polled := 0
	smp.SetPoll(func() {
		polled++
		rec.Trip("quorum-dead", "2/5 members")
	})
	smp.tick()
	if polled != 1 {
		t.Fatalf("poll ran %d times, want 1", polled)
	}
	if ok, why := rec.Tripped(); !ok || why != "quorum-dead" {
		t.Fatalf("poll-driven trip missing: %v %q", ok, why)
	}
}

// TestSamplerStartStop: the ticker goroutine samples on its own. The
// poll hook runs only on ticks, so once it has run twice the first
// tick's sample is in the ring — checked before Stop, whose final
// sample would otherwise hide a ticker that never fired.
func TestSamplerStartStop(t *testing.T) {
	reg := metrics.NewRegistry()
	counter(reg, "pia_t").Add(1)
	rec := New(64)
	smp := NewSampler(reg, rec, time.Millisecond)
	ticked := make(chan struct{}, 1)
	smp.SetPoll(func() {
		select {
		case ticked <- struct{}{}:
		default:
		}
	})
	smp.Start()
	smp.Start() // idempotent
	for i := 0; i < 2; i++ {
		select {
		case <-ticked:
		case <-time.After(5 * time.Second):
			t.Fatal("ticker goroutine never ticked")
		}
	}
	if d := rec.BuildDump(); len(d.Entries) == 0 {
		t.Fatal("ticker goroutine never sampled")
	}
	smp.Stop()
	smp.Stop() // idempotent
}

// TestSamplerForgetsVanishedSeries: the sampler diffs against exactly
// the series of its latest snapshot. A series that disappears (a
// stopped session's) and comes back at its old value is reported
// again, its delta its whole value, and churning series names leave
// nothing behind.
func TestSamplerForgetsVanishedSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	var name string // "" = no series this tick
	reg.AddCollector(func(emit func(metrics.Sample)) {
		if name != "" {
			emit(metrics.Sample{Name: name, Kind: metrics.KindGauge, Value: 5})
		}
	})
	rec := New(64)
	sub := rec.subscribe("", "")
	defer rec.unsubscribe(sub)
	smp := NewSampler(reg, rec, time.Hour) // ticked manually
	for _, name = range []string{`pia_x{session="s-1"}`, "", `pia_x{session="s-1"}`} {
		smp.tick()
	}
	if got := rec.BuildDump().Entries; len(got) != 2 || got[1].Value != 5 {
		t.Fatalf("reappearing series recorded as %+v, want two entries at 5", got)
	}
	var mf metricFrame
	<-sub.ch
	if err := json.Unmarshal((<-sub.ch).data, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Changed) != 1 || mf.Changed[0].Delta != 5 {
		t.Fatalf("reappearing series streamed as %+v, want delta 5", mf.Changed)
	}

	for i := 0; i < 100; i++ {
		name = fmt.Sprintf(`pia_x{session="s-%d"}`, i)
		smp.tick()
	}
	if n := len(smp.prev); n != 1 {
		t.Fatalf("after 100 sessions the sampler remembers %d series, want 1", n)
	}
}

// TestSamplerFinalSampleOnStop: a run that ends inside one sampler
// interval still gets its closing deltas into the ring and the stream,
// and the shutdown sample does not run the health poll.
func TestSamplerFinalSampleOnStop(t *testing.T) {
	reg := metrics.NewRegistry()
	c := counter(reg, "pia_t")
	rec := New(64)
	smp := NewSampler(reg, rec, time.Hour) // the ticker never fires
	polls := 0
	smp.SetPoll(func() { polls++ })
	smp.Start()
	c.Add(3)
	smp.Stop()
	d := rec.BuildDump()
	if len(d.Entries) != 1 || d.Entries[0].Kind != "metric" || d.Entries[0].Name != "pia_t" || d.Entries[0].Value != 3 {
		t.Fatalf("Stop did not record the closing delta: %+v", d.Entries)
	}
	if polls != 0 {
		t.Fatalf("shutdown sample ran the poll hook %d times", polls)
	}
}

func TestRecorderHTTPHandler(t *testing.T) {
	rec := New(8)
	rec.Record("session", "s-1", "created", 0)
	srv := httptest.NewServer(rec)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Tripped || len(d.Entries) != 1 || d.Entries[0].Name != "s-1" {
		t.Fatalf("handler dump = %+v", d)
	}
}

// TestBuildDumpCopiesOnlyTheTail: a dump keeps dumpTimelineTail events,
// so that is all it may copy out of the timeline ring — under the
// mutex every scheduler records through — however full the ring is. A
// full default-size ring is ≈ 10 MB; the tail is ≈ 40 KB.
func TestBuildDumpCopiesOnlyTheTail(t *testing.T) {
	tl := timeline.NewRecorder(0)
	for i := 0; i < timeline.DefaultLimit; i++ {
		tl.Drive("sub", "comp", "net", vtime.Time(i), nil)
	}
	r := New(8)
	r.AttachTimeline(tl)

	const runs = 8
	var d *Dump
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		d = r.BuildDump()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256<<10 {
		t.Fatalf("BuildDump allocates %d KB against a full ring, want the tail only (≤ 256 KB)", per>>10)
	}
	if len(d.Timeline) != dumpTimelineTail {
		t.Fatalf("dump carries %d timeline events, want %d", len(d.Timeline), dumpTimelineTail)
	}
	first, last := d.Timeline[0].VT, d.Timeline[dumpTimelineTail-1].VT
	if first != timeline.DefaultLimit-dumpTimelineTail || last != timeline.DefaultLimit-1 {
		t.Fatalf("tail spans vt %d..%d, want the newest %d events", first, last, dumpTimelineTail)
	}
}
