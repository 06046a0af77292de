package faultnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// frame builds a wire frame with the given payload.
func frame(body []byte) []byte {
	out := make([]byte, wire.HeaderLen+len(body))
	copy(out[wire.HeaderLen:], body)
	wire.PutHeader(out, wire.FrameBatch)
	return out
}

// sink collects everything written to it.
type sink struct {
	buf    bytes.Buffer
	closed bool
}

func (s *sink) Write(p []byte) (int, error) { return s.buf.Write(p) }
func (s *sink) Read(p []byte) (int, error)  { return 0, io.EOF }
func (s *sink) Close() error                { s.closed = true; return nil }

// readFrames splits a byte stream back into frame payloads.
func readFrames(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(raw) > 0 {
		if len(raw) < wire.HeaderLen {
			t.Fatalf("trailing partial header: % x", raw)
		}
		n := binary.BigEndian.Uint32(raw)
		if len(raw) < wire.HeaderLen+int(n) {
			t.Fatalf("trailing partial frame")
		}
		out = append(out, raw[wire.HeaderLen:wire.HeaderLen+int(n)])
		raw = raw[wire.HeaderLen+int(n):]
	}
	return out
}

func TestPassThroughWhenCalm(t *testing.T) {
	s := &sink{}
	l := NewLink("calm", Config{Seed: 1})
	c := l.Wrap(s)
	for i := 0; i < 5; i++ {
		if _, err := c.Write(frame([]byte{byte(i), 0xAA})); err != nil {
			t.Fatal(err)
		}
	}
	got := readFrames(t, s.buf.Bytes())
	if len(got) != 5 {
		t.Fatalf("forwarded %d frames, want 5", len(got))
	}
	for i, f := range got {
		if f[0] != byte(i) {
			t.Fatalf("frame %d reordered: %v", i, got)
		}
	}
	if st := l.Stats(); st.Frames != 5 || st.Forwarded != 5 || st.Dropped+st.Duplicated+st.Corrupted+st.Reordered != 0 {
		t.Fatalf("calm link stats: %+v", st)
	}
	if err := l.VerifyDigest(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialWritesReassemble: frames split across many Write calls
// (header and payload separately, and mid-payload) still come out as
// whole frames.
func TestPartialWritesReassemble(t *testing.T) {
	s := &sink{}
	l := NewLink("partial", Config{})
	c := l.Wrap(s)
	f := frame(bytes.Repeat([]byte{0x5C}, 100))
	for i := 0; i < len(f); i += 7 {
		end := i + 7
		if end > len(f) {
			end = len(f)
		}
		if _, err := c.Write(f[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	got := readFrames(t, s.buf.Bytes())
	if len(got) != 1 || len(got[0]) != 100 {
		t.Fatalf("reassembly broken: %d frames", len(got))
	}
}

// TestDeterministicSchedule: two links with the same seed and name
// apply byte-for-byte the same faults to the same traffic, and their
// digests match the pure schedule replay.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, DropProb: 0.2, DupProb: 0.1, ReorderProb: 0.1, CorruptProb: 0.1}
	run := func() ([]byte, Stats) {
		s := &sink{}
		l := NewLink("det", cfg)
		c := l.Wrap(s)
		for i := 0; i < 200; i++ {
			if _, err := c.Write(frame([]byte{byte(i), byte(i >> 8), 0x77, 0x99})); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.VerifyDigest(); err != nil {
			t.Fatal(err)
		}
		return s.buf.Bytes(), l.Stats()
	}
	b1, st1 := run()
	b2, st2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different byte streams")
	}
	if st1 != st2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", st1, st2)
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 || st1.Corrupted == 0 || st1.Reordered == 0 {
		t.Fatalf("schedule too tame for the probabilities: %+v", st1)
	}
	if st1.Digest != cfg.scheduleDigest("det", st1.Frames) {
		t.Fatal("live digest does not match schedule replay")
	}
	// A different seed must yield a different schedule.
	other := cfg
	other.Seed = 43
	if other.scheduleDigest("det", 200) == cfg.scheduleDigest("det", 200) {
		t.Fatal("different seeds produced identical schedules")
	}
	// And a different link name, too.
	if cfg.scheduleDigest("other-link", 200) == cfg.scheduleDigest("det", 200) {
		t.Fatal("different link names produced identical schedules")
	}
}

func TestCorruptionFlipsExactlyOneByte(t *testing.T) {
	s := &sink{}
	l := NewLink("corrupt", Config{Seed: 7, CorruptProb: 1.0})
	c := l.Wrap(s)
	sent := frame(bytes.Repeat([]byte{0}, 32))
	if _, err := c.Write(sent); err != nil {
		t.Fatal(err)
	}
	if got := readFrames(t, s.buf.Bytes()); len(got) != 1 {
		t.Fatalf("forwarded %d frames", len(got))
	}
	diff := 0
	for i, b := range s.buf.Bytes() {
		if b != sent[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
}

// TestReorderHoldsACopy: a frame is written through from the writer's
// bytes, but one held back for a reorder outlives the Write that
// brought it, so it is held as a copy: a writer that reuses its buffer
// at once still has each frame arrive as it wrote it.
func TestReorderHoldsACopy(t *testing.T) {
	s := &sink{}
	l := NewLink("reorder", Config{Seed: 1, ReorderProb: 1.0})
	c := l.Wrap(s)
	buf := frame([]byte("first"))
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf[wire.HeaderLen:], "later")
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	got := readFrames(t, s.buf.Bytes())
	if len(got) != 2 || string(got[0]) != "later" || string(got[1]) != "first" {
		t.Fatalf("frames arrived as %q, want the second, then the held first", got)
	}
}

func TestScriptedPartition(t *testing.T) {
	s := &sink{}
	l := NewLink("part", Config{Partitions: []Partition{{AtFrame: 3, Heal: 40 * time.Millisecond}}})
	clock := &fakeClock{t: time.Unix(0, 0)}
	l.setClock(clock.Now)
	c := l.Wrap(s)
	for i := 0; i < 3; i++ {
		if _, err := c.Write(frame([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if l.Broken() {
		t.Fatal("link broken before the scripted frame")
	}
	_, err := c.Write(frame([]byte{3}))
	if !errors.Is(err, errLinkCut) {
		t.Fatalf("frame 3 should cut the link, got %v", err)
	}
	if !s.closed {
		t.Fatal("cut did not close the inner connection")
	}
	if !l.Broken() {
		t.Fatal("link not broken after cut")
	}
	if _, err := l.Dial("tcp", "127.0.0.1:1"); !errors.Is(err, errLinkCut) {
		t.Fatalf("dial during partition: %v", err)
	}
	clock.Advance(39 * time.Millisecond)
	if !l.Broken() {
		t.Fatal("link healed before its 40 ms window ended")
	}
	clock.Advance(time.Millisecond)
	if l.Broken() {
		t.Fatal("link did not heal")
	}
	if st := l.Stats(); st.Cuts != 1 {
		t.Fatalf("cuts = %d, want 1", st.Cuts)
	}
	if err := l.VerifyDigest(); err != nil {
		t.Fatal(err)
	}
}

// fakeClock is a manually advanced clock for setClock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestPartitionHealDeterministicUnderSlowClock replays the same
// scripted cut/heal sequence twice — once at full speed and once on
// an artificially slow host (real sleeps longer than the heal
// windows injected between every operation). With the link clock
// injected, both replays must observe the identical cut/heal decision
// sequence, the identical stats, and the identical schedule digest;
// before the clock was injectable, the slow run would have seen the
// 5ms heal windows expire behind its back.
func TestPartitionHealDeterministicUnderSlowClock(t *testing.T) {
	cfg := Config{Partitions: []Partition{
		{AtFrame: 3, Heal: 5 * time.Millisecond},
		{AtFrame: 8, Heal: 5 * time.Millisecond},
	}}
	replay := func(slow bool) ([]string, Stats) {
		var dally func()
		if slow {
			dally = func() { time.Sleep(8 * time.Millisecond) } // longer than any heal
		} else {
			dally = func() {}
		}
		clock := &fakeClock{t: time.Unix(1_000_000, 0)}
		s := &sink{}
		l := NewLink("slowclock", cfg)
		l.setClock(clock.Now)
		c := l.Wrap(s)
		var log []string
		for i := 0; i < 12; i++ {
			dally()
			_, err := c.Write(frame([]byte{byte(i)}))
			switch {
			case errors.Is(err, errLinkCut):
				log = append(log, fmt.Sprintf("cut@%d", i))
				dally()
				log = append(log, fmt.Sprintf("broken=%v", l.Broken()))
				// A write attempted mid-cut dies without entering the
				// schedule: the epoch is already gone.
				c = l.Wrap(s)
				if _, err := c.Write(frame([]byte{0xFF})); !errors.Is(err, errLinkCut) {
					t.Fatalf("mid-cut write: got %v, want ErrLinkCut", err)
				}
				log = append(log, "midcut-rejected")
				clock.Advance(6 * time.Millisecond) // past the heal window
				log = append(log, fmt.Sprintf("healed=%v", !l.Broken()))
				c = l.Wrap(s)
			case err != nil:
				t.Fatal(err)
			default:
				log = append(log, fmt.Sprintf("fwd@%d", i))
			}
		}
		if err := l.VerifyDigest(); err != nil {
			t.Fatal(err)
		}
		return log, l.Stats()
	}
	fastLog, fastStats := replay(false)
	slowLog, slowStats := replay(true)
	if !slices.Equal(fastLog, slowLog) {
		t.Fatalf("cut/heal sequence depends on host speed:\nfast: %v\nslow: %v", fastLog, slowLog)
	}
	if fastStats != slowStats {
		t.Fatalf("stats depend on host speed:\nfast: %+v\nslow: %+v", fastStats, slowStats)
	}
	if fastStats.Cuts != 2 {
		t.Fatalf("cuts = %d, want 2", fastStats.Cuts)
	}
	want := []string{
		"fwd@0", "fwd@1", "fwd@2",
		"cut@3", "broken=true", "midcut-rejected", "healed=true",
		"fwd@4", "fwd@5", "fwd@6", "fwd@7",
		"cut@8", "broken=true", "midcut-rejected", "healed=true",
		"fwd@9", "fwd@10", "fwd@11",
	}
	if !slices.Equal(fastLog, want) {
		t.Fatalf("decision log:\ngot:  %v\nwant: %v", fastLog, want)
	}
}

func TestParsePartitions(t *testing.T) {
	ps, err := ParsePartitions("300:50,2000:100")
	if err != nil {
		t.Fatal(err)
	}
	want := []Partition{{300, 50 * time.Millisecond}, {2000, 100 * time.Millisecond}}
	if len(ps) != 2 || ps[0] != want[0] || ps[1] != want[1] {
		t.Fatalf("parsed %+v", ps)
	}
	if ps, err := ParsePartitions(""); err != nil || ps != nil {
		t.Fatalf("empty script: %v %v", ps, err)
	}
	for _, bad := range []string{"x", "5", "5:-1", "10:5,3:5"} {
		if _, err := ParsePartitions(bad); err == nil {
			t.Fatalf("accepted bad script %q", bad)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	if !(Config{DropProb: 0.1}).Enabled() || !(Config{Latency: time.Millisecond}).Enabled() ||
		!(Config{Partitions: []Partition{{1, 0}}}).Enabled() {
		t.Fatal("non-zero config not enabled")
	}
}

// TestStatsAddCoversEveryCounter: a counter added to Stats and not to
// Add would be summed nowhere; Digest is the one field with no sum.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Int64 {
			v.Field(i).SetInt(int64(i + 1))
		}
	}
	one.Digest = 7
	sum := Stats{Digest: 3}
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if s.Field(i).Kind() == reflect.Int64 && s.Field(i).Int() != 2*int64(i+1) {
			t.Errorf("Add does not sum %s", s.Type().Field(i).Name)
		}
	}
	if sum.Digest != 3 {
		t.Errorf("Add touched Digest: %d", sum.Digest)
	}
}

// TestShapedPlainLinkCarriesWireFrames: latency, jitter and a bandwidth
// cap delay whole frames, so a plain wire connection with no session
// layer carries them. A thousand frames of mixed sizes, some larger
// than the receive buffer, must arrive whole and in order through the
// bounded reader on the far side.
func TestShapedPlainLinkCarriesWireFrames(t *testing.T) {
	const frames = 1000
	sizes := []int{0, 1, 100, 4 << 10, wire.RecvBufSize - wire.HeaderLen, wire.RecvBufSize + 1000, 70 << 10}
	payload := func(i int) []byte {
		p := make([]byte, sizes[i%len(sizes)])
		for j := range p {
			p[j] = byte(i + j*7)
		}
		return p
	}
	a, b := net.Pipe()
	deadline := time.Now().Add(20 * time.Second)
	a.SetDeadline(deadline)
	b.SetDeadline(deadline)
	defer a.Close()
	defer b.Close()
	l := NewLink("shaped", Config{Seed: 3, Latency: 20 * time.Microsecond, Jitter: 20 * time.Microsecond, BandwidthBps: 1 << 30})
	out := wire.NewConn(l.Wrap(a))
	sent := make(chan error, 1)
	var bytesOut int64
	go func() {
		for i := 0; i < frames; i++ {
			p := payload(i)
			bytesOut += int64(wire.HeaderLen + len(p))
			if err := out.SendRaw(wire.FrameBatch, p); err != nil {
				sent <- fmt.Errorf("frame %d: %w", i, err)
				return
			}
		}
		sent <- nil
	}()
	in := wire.NewConn(b)
	for i := 0; i < frames; i++ {
		kind, got, err := in.RecvFrame()
		if err != nil {
			t.Fatalf("frame %d of %d: %v (link %+v)", i, frames, err, l.Stats())
		}
		if kind != wire.FrameBatch || !bytes.Equal(got, payload(i)) {
			t.Fatalf("frame %d arrived as kind %d with %d bytes, want %d", i, kind, len(got), len(payload(i)))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Frames != frames || st.Forwarded != frames || st.BytesShaped != bytesOut {
		t.Fatalf("link %+v, want %d frames and %d bytes shaped", st, frames, bytesOut)
	}
}

// discard is a connection that drops whatever is written to it.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Read([]byte) (int, error)    { return 0, io.EOF }
func (discard) Close() error                { return nil }

// TestDelayOnlyLinkAllocatesNothingAFrame: on a link shaped by delay
// alone, a frame is written through from where the writer put it — no
// copy of it, no list of what departs — and a frame split across two
// writes is reassembled in storage the conn keeps. A stream of 1 KB
// frames, whole and split, costs at most 0.1 allocations a frame.
func TestDelayOnlyLinkAllocatesNothingAFrame(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates differently")
	}
	l := NewLink("shaped", Config{Latency: time.Nanosecond})
	c := l.Wrap(discard{})
	f := frame(make([]byte, 1<<10))
	cut := len(f) / 2
	frames := 0
	write := func() {
		for _, p := range [][]byte{f, f[:cut], f[cut:]} {
			if _, err := c.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		frames += 2
	}
	write()
	const runs = 500
	if a := testing.AllocsPerRun(runs, write) / 2; a > 0.1 {
		t.Fatalf("a delay-only link allocates %.2f times a 1 KB frame, want <= 0.1", a)
	}
	if st := l.Stats(); st.Forwarded != int64(frames) {
		t.Fatalf("%d of %d frames forwarded", st.Forwarded, frames)
	}
}
