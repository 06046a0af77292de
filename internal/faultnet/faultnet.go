// Package faultnet is a deterministic, seeded fault-injecting
// transport for Pia's distributed links. It wraps any byte stream
// that carries wire frames — a 4-byte big-endian payload length, a
// kind byte, the payload; the resilience package's session envelopes
// are wire frames too — and applies per-frame faults on the egress
// path: added latency and jitter, a bandwidth cap, drops, duplicates,
// adjacent reorders, payload corruption, and scripted partition/heal
// cycles. Latency, jitter and the bandwidth cap only delay whole
// frames, so a plain link carries them; the other faults lose, repeat,
// reorder or damage frames, which only the session layer survives
// (Config.Lossy).
//
// Every decision is drawn from a PRNG seeded by (Seed, link name), in
// a fixed pattern per frame, so the fault schedule — which fault
// happens to the i-th egress frame — is a pure function of the
// configuration. Chaos runs are therefore exactly reproducible: the
// same seed yields the same schedule byte for byte, which
// Link.VerifyDigest checks at runtime against an independent replay
// of the decision stream (Config.scheduleDigest).
//
// Faults are injected below the resilience session layer and above
// TCP, which mirrors a WAN: TCP delivers whatever survives in order,
// and anything faultnet eats or mangles looks to the session layer
// exactly like loss or corruption on a long-haul path.
package faultnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/timeline"
	"repro/internal/wire"
)

// errLinkCut reports that a scripted partition is currently severing
// the link.
var errLinkCut = errors.New("faultnet: link cut by scripted partition")

// Partition is one scripted cut in a link's schedule: when the link
// has forwarded AtFrame egress frames, the connection is severed and
// dial attempts fail until Heal of wall-clock time has passed.
// Triggering on a frame count (not wall time) keeps the cut's
// position in the fault schedule deterministic.
type Partition struct {
	AtFrame int64
	Heal    time.Duration
}

// Config describes the faults injected on one link's egress. The
// zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision. The per-link PRNG is
	// seeded with Seed XOR a hash of the link name, so two links of
	// one node draw independent but individually reproducible
	// streams.
	Seed int64

	// Latency is a fixed wall-clock delay added per frame.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) per frame.
	Jitter time.Duration
	// BandwidthBps caps throughput: each frame is charged
	// 8*bytes/BandwidthBps of wall-clock serialization. 0 = no cap.
	BandwidthBps int64

	// Per-frame fault probabilities, each in [0, 1].
	DropProb    float64 // frame silently discarded
	DupProb     float64 // frame sent twice
	ReorderProb float64 // frame held back and swapped with the next
	CorruptProb float64 // one payload byte flipped

	// Partitions is the scripted partition/heal schedule, in
	// ascending AtFrame order.
	Partitions []Partition
}

// Enabled reports whether the config injects or shapes anything.
func (c Config) Enabled() bool {
	return c.Latency > 0 || c.Jitter > 0 || c.BandwidthBps > 0 || c.Lossy()
}

// Lossy reports whether the config drops, duplicates, reorders or
// corrupts frames or cuts the link: the faults a connection survives
// only with the session layer above it.
func (c Config) Lossy() bool {
	return c.DropProb > 0 || c.DupProb > 0 || c.ReorderProb > 0 || c.CorruptProb > 0 ||
		len(c.Partitions) > 0
}

// Stats counts what a link did to its traffic.
type Stats struct {
	Frames      int64 // egress frames that entered the schedule
	Forwarded   int64 // frames actually written (dups count twice)
	Dropped     int64
	Duplicated  int64
	Reordered   int64
	Corrupted   int64
	Cuts        int64 // scripted partitions triggered
	BytesShaped int64 // payload bytes that paid latency/bandwidth
	Digest      uint64
}

// Add accumulates o's counters into s, for callers summing several
// links. Digest is left alone: a hash of one link's schedule, it has
// no sum.
func (s *Stats) Add(o Stats) {
	s.Frames += o.Frames
	s.Forwarded += o.Forwarded
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
	s.Corrupted += o.Corrupted
	s.Cuts += o.Cuts
	s.BytesShaped += o.BytesShaped
}

// action encodes one frame's fate as a bitmask, the unit the schedule
// digest is computed over.
type action uint8

const (
	actDrop action = 1 << iota
	actDup
	actReorder
	actCorrupt
	actCut // partition triggered at this frame index
)

// decider is the deterministic decision stream: the same code path
// drives the live link and the pure scheduleDigest replay, so the two
// cannot diverge.
type decider struct {
	cfg     Config
	rng     *rand.Rand
	frames  int64
	partIdx int
	digest  uint64
}

func newDecider(cfg Config, linkName string) *decider {
	h := fnv.New64a()
	h.Write([]byte(linkName))
	return &decider{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64()))),
		digest: fnv64Offset,
	}
}

const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

func (d *decider) mix(b byte) {
	d.digest ^= uint64(b)
	d.digest *= fnv64Prime
}

// next consumes one frame's worth of decisions. The draw pattern is
// fixed — five floats per frame regardless of which probabilities are
// zero — so the stream position depends only on the frame index.
// corruptMask is the XOR applied to a payload byte when actCorrupt is
// set, jitterFrac the fraction of Jitter charged.
func (d *decider) next() (act action, corruptMask byte, jitterFrac float64) {
	idx := d.frames
	d.frames++
	if d.partIdx < len(d.cfg.Partitions) && idx >= d.cfg.Partitions[d.partIdx].AtFrame {
		d.partIdx++
		act |= actCut
	}
	if d.rng.Float64() < d.cfg.DropProb {
		act |= actDrop
	}
	if d.rng.Float64() < d.cfg.DupProb {
		act |= actDup
	}
	if d.rng.Float64() < d.cfg.ReorderProb {
		act |= actReorder
	}
	if d.rng.Float64() < d.cfg.CorruptProb {
		act |= actCorrupt
	}
	corruptMask = byte(d.rng.Float64()*254) + 1 // never 0: a flip always flips
	jitterFrac = d.rng.Float64()
	// Digest the frame index and its fate.
	for i := 0; i < 8; i++ {
		d.mix(byte(idx >> (8 * i)))
	}
	d.mix(byte(act))
	if act&actCorrupt != 0 {
		d.mix(corruptMask)
	}
	return act, corruptMask, jitterFrac
}

// scheduleDigest replays the first n frames' decision stream and
// returns its digest — a pure function of (Config, linkName). A live
// link that has consumed n frames must report exactly this digest;
// see Link.VerifyDigest.
func (c Config) scheduleDigest(linkName string, n int64) uint64 {
	d := newDecider(c, linkName)
	for i := int64(0); i < n; i++ {
		d.next()
	}
	return d.digest
}

// Link is the shared fault state of one logical link. It persists
// across connection epochs — reconnects continue the same decision
// stream and the same partition schedule — and hands out Conn
// wrappers for the raw connections that carry the link's traffic.
type Link struct {
	name string
	cfg  Config

	mu       sync.Mutex
	dec      *decider
	stats    Stats
	cutUntil time.Time

	// now is the clock partition-heal windows are measured against.
	// It defaults to time.Now; tests inject a manual clock with
	// setClock so that WHEN a cut heals no longer depends on host
	// speed. Which frames trigger cuts is decided by the seeded
	// schedule either way and stays in the schedule digest.
	now func() time.Time

	// tl, when set via SetTimeline, receives one structured timeline
	// event per injected fault, under mu with the counter it bumps, so
	// Stats never counts a fault the recorder has not yet seen. Fault
	// events are transient: frame indices depend on wall-clock
	// batching, so they never enter the canonical merged export.
	tl *timeline.Recorder
}

// SetTimeline attaches a timeline recorder; each injected fault is
// recorded as one structured event.
func (l *Link) SetTimeline(rec *timeline.Recorder) {
	l.mu.Lock()
	l.tl = rec
	l.mu.Unlock()
}

// NewLink creates the fault state for one named link. The name goes
// into the seed derivation, so give distinct links distinct names.
func NewLink(name string, cfg Config) *Link {
	return &Link{name: name, cfg: cfg, dec: newDecider(cfg, name), now: time.Now}
}

// setClock replaces the wall clock the link uses to time partition
// heals. Injecting a manual clock makes cut/heal observations fully
// deterministic: a link stays Broken until the injected clock is
// advanced past the heal window, no matter how fast or slow the host
// executes. Call before traffic flows; a nil clock restores time.Now.
func (l *Link) setClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Config returns the link's fault configuration.
func (l *Link) Config() Config { return l.cfg }

// Stats returns a snapshot of the link's counters and running
// schedule digest.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Frames = l.dec.frames
	st.Digest = l.dec.digest
	return st
}

// VerifyDigest recomputes the schedule for the frames consumed so far
// and compares it with the live digest; a mismatch would mean the
// link deviated from its seeded schedule.
func (l *Link) VerifyDigest() error {
	st := l.Stats()
	want := l.cfg.scheduleDigest(l.name, st.Frames)
	if st.Digest != want {
		return fmt.Errorf("faultnet %s: schedule digest mismatch after %d frames: live %x, replay %x",
			l.name, st.Frames, st.Digest, want)
	}
	return nil
}

// Broken reports whether a scripted partition currently severs the
// link.
func (l *Link) Broken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.now().Before(l.cutUntil)
}

// Dial connects to addr and wraps the connection; it fails while a
// scripted partition is active, which is what forces reconnect
// backoff to ride out the cut.
func (l *Link) Dial(network, addr string) (io.ReadWriteCloser, error) {
	if l.Broken() {
		return nil, fmt.Errorf("faultnet %s: dial %s: %w", l.name, addr, errLinkCut)
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if t, ok := c.(*net.TCPConn); ok {
		t.SetNoDelay(true)
	}
	return l.Wrap(c), nil
}

// Wrap returns a connection whose writes pass through the link's
// fault schedule. Reads pass through untouched — each side of a
// channel shapes its own egress.
func (l *Link) Wrap(inner io.ReadWriteCloser) io.ReadWriteCloser {
	return &faultConn{link: l, inner: inner}
}

// heldFlushDelay bounds how long a reorder can hold a frame with no
// successor to swap with. Without it a held frame could park forever —
// a handshake hello, for instance, has nothing following it until the
// peer answers, which it never will. After the delay the hold degrades
// to plain extra latency.
const heldFlushDelay = 2 * time.Millisecond

// faultConn is one connection epoch on a faulty link. Writes are segmented
// into wire frames and individually subjected to the link's schedule;
// a partial trailing frame is buffered until its remainder arrives. A
// frame held back for reorder belongs to the epoch that wrote it: it
// dies with the connection rather than leaking into a successor epoch.
type faultConn struct {
	link  *Link
	inner io.ReadWriteCloser

	wmu     sync.Mutex
	pending []byte

	// hmu guards the reorder hold. It is its own lock — never taken
	// across a sleep or an inner write — so Close stays non-blocking
	// even while a shaped write is in flight.
	hmu    sync.Mutex
	held   []byte
	htimer *time.Timer
	closed bool
}

// Read passes through to the underlying connection.
func (c *faultConn) Read(p []byte) (int, error) { return c.inner.Read(p) }

// Close drops any held frame (it is lost with the epoch; the session
// layer replays it) and closes the underlying connection.
func (c *faultConn) Close() error {
	c.dropHeld(true)
	return c.inner.Close()
}

// dropHeld discards the held frame and stops its flush timer. With
// closing set the conn also refuses future holds.
func (c *faultConn) dropHeld(closing bool) {
	c.hmu.Lock()
	c.held = nil
	if c.htimer != nil {
		c.htimer.Stop()
		c.htimer = nil
	}
	if closing {
		c.closed = true
	}
	c.hmu.Unlock()
}

// takeHeld removes and returns the held frame, if any.
func (c *faultConn) takeHeld() []byte {
	c.hmu.Lock()
	f := c.held
	c.held = nil
	if c.htimer != nil {
		c.htimer.Stop()
		c.htimer = nil
	}
	c.hmu.Unlock()
	return f
}

// flushHeld is the timer path: no successor frame showed up in time,
// so the held frame departs on its own.
func (c *faultConn) flushHeld() {
	f := c.takeHeld()
	if f == nil {
		return
	}
	l := c.link
	l.mu.Lock()
	l.stats.Forwarded++
	l.stats.BytesShaped += int64(len(f))
	l.mu.Unlock()
	// A write error here means the epoch died while the frame was
	// held; it is lost like any in-flight frame.
	c.inner.Write(f)
}

// SetReadDeadline forwards to the underlying connection when it
// supports deadlines (handshake timeouts need this).
func (c *faultConn) SetReadDeadline(t time.Time) error {
	if d, ok := c.inner.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// Write segments p into frames and runs each through the schedule. A
// frame is read where it lies — in p, or in pending when an earlier
// write left part of it there — and only a partial trailing frame is
// copied, into pending's reused storage.
func (c *faultConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := p
	if len(c.pending) > 0 {
		c.pending = append(c.pending, p...)
		buf = c.pending
	}
	for len(buf) >= wire.HeaderLen {
		n := binary.BigEndian.Uint32(buf)
		if n > wire.MaxFrame {
			return 0, fmt.Errorf("faultnet %s: frame of %d bytes exceeds limit", c.link.name, n)
		}
		total := wire.HeaderLen + int(n)
		if len(buf) < total {
			break
		}
		if err := c.processFrame(buf[:total:total]); err != nil {
			return 0, err
		}
		buf = buf[total:]
	}
	c.pending = append(c.pending[:0], buf...)
	return len(p), nil
}

// processFrame applies the link schedule to one complete frame. The
// frame is the writer's bytes: it is copied before it is corrupted and
// when it is held back, and written through otherwise.
func (c *faultConn) processFrame(frame []byte) error {
	l := c.link
	l.mu.Lock()
	if l.now().Before(l.cutUntil) {
		// Mid-cut writes are not part of the schedule: the epoch is
		// already dead, the writer just has not noticed yet.
		l.mu.Unlock()
		c.Close()
		return errLinkCut
	}
	idx := l.dec.frames
	act, mask, jfrac := l.dec.next()
	if act&actCut != 0 {
		heal := l.cfg.Partitions[l.dec.partIdx-1].Heal
		l.cutUntil = l.now().Add(heal)
		l.stats.Cuts++
		l.tl.Fault(l.name, "cut", int64(idx))
		l.mu.Unlock()
		// A frame held across the cut is lost with the epoch.
		c.Close()
		return errLinkCut
	}
	if act&actDrop != 0 {
		l.stats.Dropped++
		l.tl.Fault(l.name, "drop", int64(idx))
		l.mu.Unlock()
		return nil
	}
	if act&actCorrupt != 0 && len(frame) > 4 {
		// Flip one byte past the length prefix so the receiver can
		// still parse the framing and detect the damage by checksum.
		off := 4 + int(mask)%(len(frame)-4)
		frame = slices.Clone(frame)
		frame[off] ^= mask
		l.stats.Corrupted++
		l.tl.Fault(l.name, "corrupt", int64(idx))
	}
	if act&actReorder != 0 {
		c.hmu.Lock()
		if c.held == nil && !c.closed {
			// Hold this frame back; it departs after the next one, or
			// after heldFlushDelay if no successor arrives.
			c.held = slices.Clone(frame)
			c.htimer = time.AfterFunc(heldFlushDelay, c.flushHeld)
			c.hmu.Unlock()
			l.stats.Reordered++
			l.tl.Fault(l.name, "reorder", int64(idx))
			l.mu.Unlock()
			return nil
		}
		c.hmu.Unlock()
	}
	// What departs: the frame, its duplicate and the frame held
	// before it, at most.
	var out [3][]byte
	emit := append(out[:0], frame)
	if act&actDup != 0 {
		l.stats.Duplicated++
		emit = append(emit, frame)
		l.tl.Fault(l.name, "dup", int64(idx))
	}
	if held := c.takeHeld(); held != nil {
		emit = append(emit, held)
	}
	var delay time.Duration
	bytes := 0
	for _, f := range emit {
		bytes += len(f)
	}
	delay = l.cfg.Latency + time.Duration(jfrac*float64(l.cfg.Jitter))
	if l.cfg.BandwidthBps > 0 {
		delay += time.Duration(int64(bytes) * 8 * int64(time.Second) / l.cfg.BandwidthBps)
	}
	l.stats.Forwarded += int64(len(emit))
	l.stats.BytesShaped += int64(bytes)
	l.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	for _, f := range emit {
		if _, err := c.inner.Write(f); err != nil {
			return err
		}
	}
	return nil
}

// ParsePartitions parses a partition script of the form
// "atframe:healms[,atframe:healms...]", e.g. "300:50,2000:100" — cut
// after 300 frames and heal 50 ms later, again after frame 2000 for
// 100 ms.
func ParsePartitions(s string) ([]Partition, error) {
	if s == "" {
		return nil, nil
	}
	var out []Partition
	for _, part := range splitComma(s) {
		var at, healMS int64
		if _, err := fmt.Sscanf(part, "%d:%d", &at, &healMS); err != nil {
			return nil, fmt.Errorf("faultnet: bad partition %q (want atframe:healms): %v", part, err)
		}
		if at < 0 || healMS < 0 {
			return nil, fmt.Errorf("faultnet: negative partition %q", part)
		}
		if len(out) > 0 && at <= out[len(out)-1].AtFrame {
			return nil, fmt.Errorf("faultnet: partition frames must ascend, got %q", s)
		}
		out = append(out, Partition{AtFrame: at, Heal: time.Duration(healMS) * time.Millisecond})
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
