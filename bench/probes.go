package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"time"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/signal"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// Probes are fixed-count loops that call one layer's exported
// functions with inputs shaped like the workloads': 4-byte words
// below and above 256 (Go boxes smaller integers without allocating),
// 1 KB packets, 64-message batches. Each reports a unit cost that the
// layer budget multiplies by the traced run's counts.

// probeReps is how often each probe repeats; the median is reported.
const probeReps = 5

// probe measures once and returns one unit cost per metric it names.
type probe struct {
	metrics []string
	fn      func() ([]float64, error)
}

// single adapts a probe of one metric.
func single(metric string, fn func() (float64, error)) probe {
	return probe{[]string{metric}, func() ([]float64, error) {
		v, err := fn()
		return []float64{v}, err
	}}
}

// runProbes runs every probe under a span and returns the medians by
// per-layer metric name.
func runProbes(tr *tracer) (map[string]float64, error) {
	word, packet := batchMessages(false), batchMessages(true)
	probes := []probe{
		single("core.step_seq_ns", probeStepSeq),
		single("core.step_pool_ns", probeStepPool),
		single("core.deliver_ns", probeDeliver),
		single("event.push_pop_ns", probePushPop),
		single("event.pop_batch_ns", probePopBatch),
		single("proto.word_kb_us", func() (float64, error) { return probeProto(proto.LevelWord, 64<<10) }),
		single("proto.packet_kb_us", func() (float64, error) { return probeProto(proto.LevelPacket, 1<<20) }),
		single("channel.encode_word_ns", func() (float64, error) { return probeEncode(word) }),
		single("channel.encode_packet_ns", func() (float64, error) { return probeEncode(packet) }),
		{[]string{"channel.decode_word_ns", "channel.decode_word_allocs"}, func() ([]float64, error) { return probeDecode(word) }},
		{[]string{"channel.decode_packet_ns", "channel.decode_packet_allocs"}, func() ([]float64, error) { return probeDecode(packet) }},
		{[]string{"wire.send_gob_ns", "wire.recv_gob_ns"}, probeGob},
		single("wire.frame_rt_us", probeFrameRT),
		single("wire.stream_mb_s", probeStream),
	}
	out := make(map[string]float64)
	for _, p := range probes {
		reps := make([][]float64, len(p.metrics))
		for i := 0; i < probeReps; i++ {
			sp := tr.begin("probe."+p.metrics[0], moduleOf(p.metrics[0]), -1, -1)
			vals, err := p.fn()
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.metrics[0], err)
			}
			for j, v := range vals {
				reps[j] = append(reps[j], v)
			}
		}
		for j, name := range p.metrics {
			out[name] = median(reps[j])
		}
	}
	return out, nil
}

// moduleOf is the <module> of a <module>.<metric> name.
func moduleOf(metric string) string {
	module, _, _ := strings.Cut(metric, ".")
	return module
}

// runLocal builds, runs to completion and closes a one-subsystem
// system, returning the wall time of the run and the subsystem's
// resumption count.
func runLocal(b *pia.SystemBuilder, sub string) (time.Duration, int64, error) {
	sim, err := b.BuildLocal()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	err = sim.Run(pia.Infinity)
	wall := time.Since(t0)
	steps := sim.Subsystem(sub).Stats().Steps
	return wall, steps, errors.Join(err, sim.Close())
}

// probeStepSeq is the sequential scheduler's cost per component
// resumption: two components bouncing one word, workers 0.
func probeStepSeq() (float64, error) {
	const trips = 20_000
	b := pia.NewSystem("pingpong")
	b.AddComponent("ping", "s", pia.BehaviorFunc(func(p *pia.Proc) error {
		for i := 0; i < trips; i++ {
			p.Send("out", signal.Word(i))
			if _, ok := p.Recv("in"); !ok {
				return errors.New("ping: run ended early")
			}
		}
		return nil
	}), "out", "in")
	b.AddComponent("pong", "s", pia.BehaviorFunc(func(p *pia.Proc) error {
		for {
			m, ok := p.Recv("in")
			if !ok {
				return nil
			}
			p.Send("out", m.Value)
		}
	}), "out", "in")
	b.AddNet("there", 0, "ping.out", "pong.in")
	b.AddNet("back", 0, "pong.out", "ping.in")
	wall, steps, err := runLocal(b, "s")
	if err != nil {
		return 0, err
	}
	return float64(wall.Nanoseconds()) / float64(steps), nil
}

// probeStepPool is the worker pool's cost per resumption: the
// 16-lane fan with no spin work, workers 2.
func probeStepPool() (float64, error) {
	cfg := defaultFanConfig()
	cfg.SpinIters = 0
	cfg.Rounds = 100
	s, err := buildFan(cfg, false)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = s.run()
	wall := time.Since(t0)
	steps := s.counts().core.Steps
	if err := errors.Join(err, s.close()); err != nil {
		return 0, err
	}
	return float64(wall.Nanoseconds()) / float64(steps), nil
}

// probeDeliver is the host cost per message of a stream sent without
// yielding and received in one go — how the WubbleU DMA link moves
// words: Send, the event queue, and the receiver's inline Recv.
func probeDeliver() (float64, error) {
	const n = 16_384
	got := 0
	b := pia.NewSystem("stream")
	b.AddComponent("tx", "s", pia.BehaviorFunc(func(p *pia.Proc) error {
		for i := 0; i < n; i++ {
			p.Advance(800)
			p.Send("link", boxedWords[i%len(boxedWords)])
		}
		return nil
	}), "link")
	b.AddComponent("rx", "s", pia.BehaviorFunc(func(p *pia.Proc) error {
		for {
			if _, ok := p.Recv("link"); !ok {
				return nil
			}
			got++
		}
	}), "link")
	b.AddNet("link", 0, "tx.link", "rx.link")
	wall, _, err := runLocal(b, "s")
	if err != nil {
		return 0, err
	}
	if got != n {
		return 0, fmt.Errorf("received %d of %d messages", got, n)
	}
	return float64(wall.Nanoseconds()) / n, nil
}

// queueDepth is the standing queue depth of the event probes.
const queueDepth = 64

// probeEvent is a net event carrying a pre-boxed word, so the probe
// times the queue and not the conversion to an interface.
func probeEvent(i int) event.Event {
	return event.Event{
		Time: vtime.Time(i), Kind: event.KindNet,
		Component: "browser", Port: "dma", Net: "dma", Source: "asic",
		Value: boxedWords[i%len(boxedWords)],
	}
}

var boxedWords = [...]any{signal.Word(7), signal.Word(70_000)}

// probePushPop is one Push plus one Pop at a standing depth of 64.
func probePushPop() (float64, error) {
	const n = 200_000
	var q event.Queue
	for i := 0; i < queueDepth; i++ {
		q.Push(probeEvent(i))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q.Push(probeEvent(queueDepth + i))
		if _, ok := q.Pop(); !ok {
			return 0, errors.New("queue empty")
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// probePopBatch is the cost per event of draining 64 due events with
// one PopBatch.
func probePopBatch() (float64, error) {
	const rounds = 2_000
	var q event.Queue
	buf := make([]event.Event, 0, queueDepth)
	var spent time.Duration
	for r := 0; r < rounds; r++ {
		for i := 0; i < queueDepth; i++ {
			q.Push(probeEvent(i))
		}
		t0 := time.Now()
		buf = q.PopBatch(vtime.Time(queueDepth), 0, buf)
		spent += time.Since(t0)
		if len(buf) != queueDepth {
			return 0, fmt.Errorf("PopBatch returned %d events", len(buf))
		}
	}
	return float64(spent.Nanoseconds()) / (rounds * queueDepth), nil
}

// probePayload is half zero bytes (words below 256) and half random
// (words above).
func probePayload(n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(p[n/2:])
	return p
}

// probeProto is host microseconds per KB moved by SendMessage into
// ReceiveMessage between two components of one subsystem.
func probeProto(level string, size int) (float64, error) {
	payload := probePayload(size)
	received := 0
	b := pia.NewSystem("transfer")
	b.AddComponent("tx", "s", pia.BehaviorFunc(func(p *pia.Proc) error {
		proto.SendMessage(p, "link", payload, level, proto.DefaultConfig)
		return nil
	}), "link")
	b.AddComponent("rx", "s", pia.BehaviorFunc(func(p *pia.Proc) error {
		got, _, err := proto.ReceiveMessage(p, "link", proto.NewAssembler())
		received = len(got)
		return err
	}), "link")
	b.AddNet("link", 0, "tx.link", "rx.link")
	wall, _, err := runLocal(b, "s")
	if err != nil {
		return 0, err
	}
	if received != size {
		return 0, fmt.Errorf("received %d of %d bytes", received, size)
	}
	return float64(wall.Nanoseconds()) / 1e3 / float64(size>>10), nil
}

// batchLen is the coalescer's default batch size.
const batchLen = 64

// batchMessages is one egress batch as the channel endpoint queues
// it: 64 data drives carrying words, or 1 KB packet frames.
func batchMessages(packets bool) []channel.Message {
	payload := probePayload(batchLen << 10)
	msgs := make([]channel.Message, batchLen)
	for i := range msgs {
		m := channel.Message{
			Kind: channel.KindData, From: "modemsite", Seq: uint64(i + 1), Ack: uint64(i),
			Net: "dma", Source: "asic", Time: vtime.Time(1_000_000 + 800*i),
		}
		if packets {
			m.Value = signal.Frame{Seq: uint32(i), Payload: payload[i<<10 : (i+1)<<10]}
		} else {
			m.Value = boxedWords[i%len(boxedWords)]
		}
		msgs[i] = m
	}
	return msgs
}

// probeEncode is AppendBatch nanoseconds per message into a recycled
// buffer.
func probeEncode(msgs []channel.Message) (float64, error) {
	const rounds = 500
	var buf []byte
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		out, n, err := channel.AppendBatch(buf[:0], msgs, wire.MaxFrame)
		if err != nil {
			return 0, err
		}
		if n != len(msgs) {
			return 0, fmt.Errorf("encoded %d of %d messages", n, len(msgs))
		}
		buf = out
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(msgs)), nil
}

// probeDecode is DecodeBatchInto nanoseconds and heap allocations per
// message, reusing the decoder and the message buffer as a connection
// pump does.
func probeDecode(msgs []channel.Message) ([]float64, error) {
	const rounds = 500
	payload, _, err := channel.AppendBatch(nil, msgs, wire.MaxFrame)
	if err != nil {
		return nil, err
	}
	dec := channel.NewBatchDecoder()
	var buf []channel.Message
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if buf, _, err = dec.DecodeBatchInto(payload, buf); err != nil {
			return nil, err
		}
	}
	spent := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if len(buf) != len(msgs) {
		return nil, fmt.Errorf("decoded %d of %d messages", len(buf), len(msgs))
	}
	total := float64(rounds * len(msgs))
	return []float64{float64(spent.Nanoseconds()) / total, float64(m1.Mallocs-m0.Mallocs) / total}, nil
}

// gobFrame has the shape of the frame a node sends per message on the
// uncoalesced path.
type gobFrame struct{ Msg channel.Message }

// loopback opens one TCP connection over 127.0.0.1 and returns both
// ends framed.
func loopback() (client, server *wire.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	client, err = wire.Dial(ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	sc, err := ln.Accept()
	if err != nil {
		client.Close()
		return nil, nil, err
	}
	if t, ok := sc.(*net.TCPConn); ok {
		_ = t.SetNoDelay(true) // as wire.Dial does; only latency depends on it
	}
	return client, wire.NewConn(sc), nil
}

// withLoopback runs fn on a fresh loopback pair while peer serves the
// other end; it waits for peer to return before closing.
func withLoopback(peer func(*wire.Conn) error, fn func(*wire.Conn) error) error {
	client, server, err := loopback()
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- peer(server) }()
	err = fn(client)
	client.Close()
	perr := <-done
	server.Close()
	return errors.Join(err, perr)
}

// drain reads frames until the stream ends.
func drain(c *wire.Conn) error {
	for {
		if _, _, err := c.RecvFrame(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// probeGob is the uncoalesced path's cost per message-bearing frame on
// each side of a connection: Conn.Send (gob encoding, framing, the
// write) and RecvFrame plus DecodeGob as a connection pump does them.
// Frames move in bursts that fit the socket buffers and the peer reads
// a burst only once it is complete, so neither side ever waits for or
// wakes the other: wake-ups belong to the budget's blocked line.
func probeGob() ([]float64, error) {
	const bursts, perBurst = 50, 100
	msgs := batchMessages(false)
	sent := make(chan struct{}, 1) // one burst is in flight at a time
	read := make(chan time.Duration)
	var sendSpent, recvSpent time.Duration
	err := withLoopback(func(c *wire.Conn) error {
		defer close(read)
		for range sent {
			t0 := time.Now()
			for i := 0; i < perBurst; i++ {
				_, payload, err := c.RecvFrame()
				if err != nil {
					return err
				}
				var f gobFrame
				if err := wire.DecodeGob(payload, &f); err != nil {
					return err
				}
			}
			read <- time.Since(t0)
		}
		return nil
	}, func(c *wire.Conn) error {
		defer close(sent)
		for b := 0; b < bursts; b++ {
			t0 := time.Now()
			for i := 0; i < perBurst; i++ {
				if err := c.Send(gobFrame{Msg: msgs[i%len(msgs)]}); err != nil {
					return err
				}
			}
			sendSpent += time.Since(t0)
			sent <- struct{}{}
			d, ok := <-read
			if !ok {
				return errors.New("peer stopped reading")
			}
			recvSpent += d
		}
		return nil
	})
	const frames = bursts * perBurst
	return []float64{float64(sendSpent.Nanoseconds()) / frames, float64(recvSpent.Nanoseconds()) / frames}, err
}

// probeFrameRT is the loopback round trip of a 32-byte frame in
// microseconds: the unit cost of one safe-time ask and its grant.
func probeFrameRT() (float64, error) {
	const n = 5_000
	echo := func(c *wire.Conn) error {
		for {
			kind, payload, err := c.RecvFrame()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if err := c.SendRaw(kind, payload); err != nil {
				return err
			}
		}
	}
	var us float64
	err := withLoopback(echo, func(c *wire.Conn) error {
		payload := make([]byte, 32)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := c.SendRaw(wire.FrameBatch, payload); err != nil {
				return err
			}
			if _, _, err := c.RecvFrame(); err != nil {
				return err
			}
		}
		us = float64(time.Since(t0).Nanoseconds()) / 1e3 / n
		return nil
	})
	return us, err
}

// probeStream is egress throughput in MB/s: flushes of four 32 KB
// batch frames with the peer draining.
func probeStream() (float64, error) {
	const (
		flushes   = 256
		perFlush  = 4
		frameSize = 32 << 10
	)
	body := probePayload(frameSize)
	var mbs float64
	err := withLoopback(drain, func(c *wire.Conn) error {
		t0 := time.Now()
		for i := 0; i < flushes; i++ {
			eg := c.BeginEgress()
			for j := 0; j < perFlush; j++ {
				if err := eg.EndFrame(append(eg.BeginFrame(wire.FrameBatch), body...)); err != nil {
					eg.Close()
					return err
				}
			}
			err := eg.Flush()
			eg.Close()
			if err != nil {
				return err
			}
		}
		mbs = float64(flushes*perFlush*frameSize) / 1e6 / time.Since(t0).Seconds()
		return nil
	})
	return mbs, err
}

// median of a non-empty sample.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile by linear interpolation between the two
// nearest ranks; 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
