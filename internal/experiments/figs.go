package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	pia "repro"
	"repro/internal/core"
	"repro/internal/hwstub"
	"repro/internal/proto"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// --- shared workload pieces ---

// burster sends Count integers on "out", spaced Period apart.
type burster struct {
	Next, Count int
	Period      vtime.Duration
}

func (s *burster) Run(p *core.Proc) error {
	for s.Next < s.Count {
		p.Delay(s.Period)
		p.Send("out", s.Next)
		s.Next++
	}
	return nil
}

// SaveState writes the three fields as varints, bytes that depend on
// the fields alone: gob's would carry type ids numbered process-wide,
// so a checkpoint's size would depend on what the process encoded
// before.
func (s *burster) SaveState() ([]byte, error) {
	b := binary.AppendVarint(nil, int64(s.Next))
	b = binary.AppendVarint(b, int64(s.Count))
	return binary.AppendVarint(b, int64(s.Period)), nil
}

func (s *burster) RestoreState(b []byte) error {
	var f [3]int64
	for i := range f {
		v, n := binary.Varint(b)
		if n <= 0 {
			return errors.New("experiments: truncated burster state")
		}
		f[i], b = v, b[n:]
	}
	s.Next, s.Count, s.Period = int(f[0]), int(f[1]), vtime.Duration(f[2])
	return nil
}

// sink records what it receives on "in".
type sink struct {
	Got   []int
	Times []int64
}

func (s *sink) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		if v, isInt := m.Value.(int); isInt {
			s.Got = append(s.Got, v)
			s.Times = append(s.Times, int64(m.Time))
		}
	}
}

func (s *sink) SaveState() ([]byte, error)  { return core.GobSave(s) }
func (s *sink) RestoreState(b []byte) error { return core.GobRestore(s, b) }

// fig3Result captures the Fig. 3 scenario: a subsystem with eager
// local work must stall under a conservative channel to maintain
// continuous consistency, or run ahead and pay restores under an
// optimistic one.
type fig3Result struct {
	Policy     string
	Wall       time.Duration
	Delivered  int
	Ordered    bool
	Stalls     int64
	Restores   int64
	Stragglers int64
}

// Fig3 runs the scenario under both policies at its published message
// spacing. messages is the number of cross-channel messages; busySteps
// the local work racing ahead.
func Fig3(messages, busySteps int) ([]fig3Result, error) {
	var out []fig3Result
	for _, pol := range []pia.Policy{pia.Conservative, pia.Optimistic} {
		res, err := policyLeg(pol, messages, busySteps, 100)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// policyLeg runs the channel-policy scenario once: src on ss2 sends
// messages integers period apart across a channel under pol to dst on
// ss1, beside busySteps of local work on ss1. The optimistic leg lets
// ss1 race ahead before ss2 produces anything, so the remote messages
// are guaranteed stragglers — the situation optimism gambles on and
// Fig. 3's conservative stall prevents — and its rollback costs are
// actually exercised.
func policyLeg(pol pia.Policy, messages, busySteps int, period vtime.Duration) (fig3Result, error) {
	src := &burster{Count: messages, Period: period}
	dst := &sink{}
	busy := &burster{Count: busySteps, Period: 1}
	sim, err := pia.NewSystem("policy").
		AddComponent("src", "ss2", src, "out").
		AddComponent("dst", "ss1", dst, "in").
		AddComponent("busy", "ss1", busy, "out").
		AddNet("wire", 0, "src.out", "dst.in").
		AddNet("noise", 0, "busy.out").
		SetDefaultChannel(pol, pia.LinkModel{Latency: 5, PerMessage: 1}).
		BuildLocal()
	if err != nil {
		return fig3Result{}, err
	}
	defer sim.Close()
	horizon := pia.Time(vtime.Duration(messages)*period + vtime.Duration(busySteps) + 100_000)
	ss1, ss2 := sim.Subsystem("ss1"), sim.Subsystem("ss2")
	start := time.Now()
	if pol == pia.Optimistic {
		ss1.SetAutoCheckpoint(period)
		ss1.SetCheckpointRetention(1_000_000)
		done1 := make(chan error, 1)
		go func() { done1 <- ss1.Run(pia.Infinity) }()
		for {
			now, key := ss1.PublishedTimes()
			if int(now) >= busySteps/2 || key == pia.Infinity {
				break // raced far enough (or exhausted all local work)
			}
			runtime.Gosched()
		}
		if err := ss2.Run(horizon); err != nil {
			return fig3Result{}, err
		}
		if err := sim.Hubs["ss2"].Close(); err != nil {
			return fig3Result{}, err
		}
		if err := <-done1; err != nil {
			return fig3Result{}, err
		}
	} else if err := sim.Run(horizon); err != nil {
		return fig3Result{}, err
	}
	res := fig3Result{
		Policy:    pol.String(),
		Wall:      time.Since(start),
		Delivered: len(dst.Got),
		Ordered:   ordered(dst.Got),
		Stalls:    ss1.Stats().Stalls,
		Restores:  ss1.Stats().Restores,
	}
	for _, ep := range sim.Hubs["ss1"].Endpoints() {
		res.Stragglers += ep.Stats().Stragglers
		if err := ep.Err(); err != nil {
			return res, fmt.Errorf("policy %s/%v: %w", pol, period, err)
		}
	}
	if res.Delivered != messages || !res.Ordered {
		return res, fmt.Errorf("policy %s/%v: delivered %d/%d ordered=%v", pol, period, res.Delivered, messages, res.Ordered)
	}
	return res, nil
}

func ordered(xs []int) bool {
	for i, v := range xs {
		if v != i {
			return false
		}
	}
	return true
}

// fig4Result shows the three-subsystem safe-time exchange: SS1 must
// obtain safe times from both SS2 and SS3 before advancing.
type fig4Result struct {
	AsksToSS2, AsksToSS3         int64
	GrantsFromSS2, GrantsFromSS3 int64
	Delivered                    int
	Violations                   bool
}

// Fig4 runs SS2 and SS3 each feeding SS1, conservatively.
func Fig4(messages int) (fig4Result, error) {
	d2 := &burster{Count: messages, Period: 70}
	d3 := &burster{Count: messages, Period: 110}
	dst := &sink{}
	dst2 := &sink{}
	b := pia.NewSystem("fig4").
		AddComponent("c12", "ss2", d2, "out").
		AddComponent("c13", "ss3", d3, "out").
		AddComponent("c4", "ss1", dst, "in").
		AddComponent("c5", "ss1", dst2, "in").
		AddNet("w2", 0, "c12.out", "c4.in").
		AddNet("w3", 0, "c13.out", "c5.in").
		SetDefaultChannel(pia.Conservative, pia.LinkModel{Latency: 5, PerMessage: 1})
	sim, err := b.BuildLocal()
	if err != nil {
		return fig4Result{}, err
	}
	defer sim.Close()
	horizon := pia.Time(vtime.Duration(messages)*110 + 10_000)
	if err := sim.Run(horizon); err != nil {
		return fig4Result{}, err
	}
	var res fig4Result
	res.Delivered = len(dst.Got) + len(dst2.Got)
	if ep := sim.Hubs["ss1"].Endpoint("ss2"); ep != nil {
		res.AsksToSS2 = ep.Stats().AsksOut
		res.GrantsFromSS2 = ep.Stats().GrantsIn
		res.Violations = res.Violations || ep.Err() != nil
	}
	if ep := sim.Hubs["ss1"].Endpoint("ss3"); ep != nil {
		res.AsksToSS3 = ep.Stats().AsksOut
		res.GrantsFromSS3 = ep.Stats().GrantsIn
		res.Violations = res.Violations || ep.Err() != nil
	}
	return res, nil
}

// fig2Split describes how a logical net is realized across
// subsystems.
type fig2Split struct {
	Net       string
	Fragments []string // "subsystem(ports...)" plus hidden ports
	Crossing  bool
}

// Fig2 builds the remote WubbleU and reports how its nets were split
// — the hidden ports and channel components of Fig. 2.
func Fig2() ([]fig2Split, error) {
	s, err := newStand(Table1Config{PageSize: 4096, Images: 1}.wubbleu(proto.LevelPacket), true, nil)
	if err != nil {
		return nil, err
	}
	defer s.sys.Close()
	// Every net of the built stand, in the order its subsystems'
	// components first reach it.
	var netNames []string
	for _, subName := range s.sim.SubsystemNames() {
		for _, c := range s.sim.Subsystem(subName).Components() {
			for _, p := range c.Ports() {
				if n := p.Net(); n != nil && !slices.Contains(netNames, n.Name) {
					netNames = append(netNames, n.Name)
				}
			}
		}
	}
	var out []fig2Split
	for _, name := range netNames {
		sp := fig2Split{Net: name}
		for _, subName := range s.sim.SubsystemNames() {
			n := s.sim.Subsystem(subName).Net(name)
			if n == nil {
				continue
			}
			frag := subName + "("
			for i, p := range n.Ports() {
				if i > 0 {
					frag += " "
				}
				if p.Hidden() {
					frag += "[hidden:" + p.Name + "]"
				} else {
					frag += p.Component().Name() + "." + p.Name
				}
			}
			frag += ")"
			sp.Fragments = append(sp.Fragments, frag)
		}
		sp.Crossing = len(sp.Fragments) > 1
		out = append(out, sp)
	}
	return out, nil
}

// fig1Result is the multi-node smoke test: subsystems on two nodes
// plus a remote hardware connection, all interconnected.
type fig1Result struct {
	Loads        int
	HWInterrupts int64
	Wall         time.Duration
}

// Fig1 runs WubbleU across two Pia nodes over TCP while a simulated
// board behind a remote hardware server is patched into the handheld
// subsystem through the stub.
func Fig1() (fig1Result, error) {
	// Remote hardware: a watchdog board on a third site.
	board := hwstub.NewSimBoard(func(regs map[uint32]uint32, from, to vtime.Time) []hwstub.Interrupt {
		var irqs []hwstub.Interrupt
		period := vtime.Time(10 * vtime.Millisecond)
		first := (from/period + 1) * period
		for t := first; t <= to; t += period {
			irqs = append(irqs, hwstub.Interrupt{Line: 7, At: t})
		}
		return irqs
	})
	hwSrv, hwAddr, err := hwstub.Serve(board, "127.0.0.1:0")
	if err != nil {
		return fig1Result{}, err
	}
	defer hwSrv.Close()
	dev, err := hwstub.Dial(hwAddr)
	if err != nil {
		return fig1Result{}, err
	}
	defer dev.Close()
	adapter := &hwstub.Adapter{Dev: dev, Quantum: vtime.Duration(2 * vtime.Millisecond), Horizon: vtime.Time(60 * vtime.Millisecond)}
	irqs := &irqCounter{}
	s, err := newStand(Table1Config{PageSize: 8 * 1024, Images: 2}.wubbleu(proto.LevelPacket), true, func(b *pia.SystemBuilder) {
		b.AddComponent("watchdog", "handheld", adapter, "bus", "irq").
			AddComponent("irqmon", "handheld", irqs, "irq").
			AddNet("wdbus", 0, "watchdog.bus").
			AddNet("wdirq", 0, "watchdog.irq", "irqmon.irq")
	})
	if err != nil {
		return fig1Result{}, err
	}
	defer s.sys.Close()
	wall, res, err := s.load()
	if err != nil {
		return fig1Result{}, fmt.Errorf("fig1: %w", err)
	}
	return fig1Result{Loads: res.Loads, HWInterrupts: adapter.Forwarded, Wall: wall}, nil
}

// irqCounter counts IRQ messages.
type irqCounter struct {
	N int
}

func (c *irqCounter) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("irq")
		if !ok {
			return nil
		}
		if _, isIRQ := m.Value.(signal.IRQ); isIRQ {
			c.N++
		}
	}
}

func (c *irqCounter) SaveState() ([]byte, error)  { return core.GobSave(c) }
func (c *irqCounter) RestoreState(b []byte) error { return core.GobRestore(c, b) }

// SwitchpointResult demonstrates dynamic detail switching: a load
// that starts at word level and is switched to packet level by a
// switchpoint mid-transfer recovers most of packet level's speed.
type SwitchpointResult struct {
	Mode   string
	Wall   time.Duration
	Drives int
}

// RunlevelSwitch compares fixed word, fixed packet, and
// word-switched-to-packet mid-run (two loads: the switchpoint fires
// after the first).
func RunlevelSwitch(pageSize int) ([]SwitchpointResult, error) {
	run := func(mode, level, rule string) (SwitchpointResult, int64, error) {
		cfg := Table1Config{PageSize: pageSize, Images: 2}.wubbleu(level)
		cfg.Loads = 2
		cfg.NoCache = true // both loads must actually transfer
		s, err := newStand(cfg, false, nil)
		if err != nil {
			return SwitchpointResult{}, 0, err
		}
		defer s.sys.Close()
		if rule != "" {
			if _, err := s.sim.Engines["main"].AddRule(rule); err != nil {
				return SwitchpointResult{}, 0, err
			}
		}
		wall, res, err := s.load()
		if err != nil {
			return SwitchpointResult{}, 0, fmt.Errorf("runlevel %s: %w", mode, err)
		}
		// When the first load finished, for placing the switchpoint.
		return SwitchpointResult{Mode: mode, Wall: wall, Drives: res.DMADrives}, s.app.UI.RenderedT[0], nil
	}
	var out []SwitchpointResult
	word, firstDone, err := run("word", proto.LevelWord, "")
	if err != nil {
		return nil, err
	}
	out = append(out, word)
	packet, _, err := run("packet", proto.LevelPacket, "")
	if err != nil {
		return nil, err
	}
	out = append(out, packet)
	// Switch the ASIC to packet level once the browser's local clock
	// passes the end of the first load (measured on the word run, which
	// the switched run replays identically up to that point) — the
	// paper's switchpoint form: a condition on a component's local
	// time, actions on components.
	switched, _, err := run("switchpoint", proto.LevelWord,
		fmt.Sprintf("when browser >= %d: asic->packetLevel", firstDone+1))
	if err != nil {
		return nil, err
	}
	out = append(out, switched)
	return out, nil
}
