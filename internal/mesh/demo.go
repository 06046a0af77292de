// The shared migration demo workload: a three-member mesh with a hot
// request/reply component whose traffic shape makes it location
// transparent, so migrating it mid-run must be bit-identical — in
// every virtual timestamp and every drive digest — to never moving
// it at all.
//
// Topology (members src, spare, far — sorted, so src leads):
//
//	hot  (on src)  --req-->  sink0..K-1 (on far)
//	hot  <--resp_i--  sink_i             (distinct delays per i)
//	pump/drain pairs on src and spare    (purely local filler)
//
// Every net hot touches crosses a channel with the mesh's single
// pure-latency link, and hot shares no net with a co-resident
// component; those two properties are exactly what make its virtual
// timing independent of which member hosts it.
package mesh

import (
	"encoding/binary"
	"fmt"

	pia "repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// DemoParams sizes the demo workload.
type DemoParams struct {
	Members []string       // exactly three member names
	Values  int            // requests hot sends
	Sinks   int            // repliers on the far member
	Period  vtime.Duration // request cadence
	// RespBase/RespStep give sink i's reply net a delay of
	// RespBase + i*RespStep; distinct delays keep reply arrivals
	// untied, so delivery order is forced by time alone.
	RespBase vtime.Duration
	RespStep vtime.Duration
	ReqDelay vtime.Duration
	Filler   int // values each filler pump sends
}

func (p DemoParams) withDefaults() DemoParams {
	if p.Values == 0 {
		p.Values = 40
	}
	if p.Sinks == 0 {
		p.Sinks = 2
	}
	if p.Period == 0 {
		p.Period = 5 * vtime.Millisecond
	}
	if p.RespBase == 0 {
		p.RespBase = vtime.Millisecond
	}
	if p.RespStep == 0 {
		p.RespStep = 7 * vtime.Microsecond
	}
	if p.ReqDelay == 0 {
		p.ReqDelay = vtime.Millisecond
	}
	if p.Filler == 0 {
		p.Filler = 25
	}
	return p
}

// Horizon returns a virtual end time that comfortably covers the
// whole exchange.
func (p DemoParams) Horizon() vtime.Time {
	p = p.withDefaults()
	span := vtime.Duration(int64(p.Values)+4) * p.Period
	return vtime.Time(span) + vtime.Time(4*(p.ReqDelay+p.RespBase))
}

// demoLink is the demo's channel model: pure latency, the shape
// migration transparency requires.
var demoLink = channel.LinkModel{Latency: 2 * vtime.Millisecond}

// DescribeDemo describes the workload for the given three members on
// b: the description every member of the demo mesh runs.
func DescribeDemo(b *pia.SystemBuilder, p DemoParams) error {
	p = p.withDefaults()
	if len(p.Members) != 3 {
		return fmt.Errorf("mesh: demo wants exactly 3 members, got %d", len(p.Members))
	}
	src, spare, far := p.Members[0], p.Members[1], p.Members[2]
	b.SetDefaultChannel(pia.Conservative, demoLink)

	hotPorts := []string{"out"}
	for i := 0; i < p.Sinks; i++ {
		hotPorts = append(hotPorts, fmt.Sprintf("in%d", i))
	}
	b.AddComponent("hot", src, &hotBeh{N: p.Values, Period: p.Period, Sinks: p.Sinks}, hotPorts...)
	req := []string{"hot.out"}
	for i := 0; i < p.Sinks; i++ {
		name := fmt.Sprintf("sink%d", i)
		b.AddComponent(name, far, &sinkBeh{}, "in", "out").
			AddNet(fmt.Sprintf("resp%d", i), p.RespBase+vtime.Duration(i)*p.RespStep, name+".out", fmt.Sprintf("hot.in%d", i))
		req = append(req, name+".in")
	}
	b.AddNet("req", p.ReqDelay, req...)

	for _, host := range []string{src, spare} {
		pump, drain := "pump-"+host, "drain-"+host
		b.AddComponent(pump, host, &pumpBeh{N: p.Filler, Period: 3 * vtime.Millisecond}, "out").
			AddComponent(drain, host, &drainBeh{}, "in").
			AddNet("local-"+host, 100*vtime.Microsecond, pump+".out", drain+".in")
	}
	return b.Err()
}

// hotBeh sends Values requests at a fixed cadence and folds every
// reply — with its exact receive time — into a running checksum.
// All progress lives in I, Got and Sum, and the schedule is a pure
// function of them, so the behaviour is restart-safe: a
// migrated instance resumes mid-exchange from adopted state alone.
type hotBeh struct {
	N      int
	Period vtime.Duration
	Sinks  int

	I   int    // requests sent
	Got int    // replies folded
	Sum uint64 // checksum over (receive time, value)
}

// fold folds a reply into Sum, a running FNV-64a hash.
func (h *hotBeh) fold(t vtime.Time, v any) {
	if h.Sum == 0 {
		h.Sum = 14695981039346656037 // the offset basis
	}
	for _, c := range []byte(fmt.Sprintf("%d:%v", int64(t), v)) {
		h.Sum ^= uint64(c)
		h.Sum *= 1099511628211 // the prime
	}
	h.Got++
}

func (h *hotBeh) Run(p *core.Proc) error {
	ins := make([]string, h.Sinks)
	for i := range ins {
		ins[i] = fmt.Sprintf("in%d", i)
	}
	for h.I < h.N || h.Got < h.N*h.Sinks {
		if h.I < h.N {
			next := vtime.Time(int64(h.I+1) * int64(h.Period))
			if m, ok := p.RecvDeadline(next, ins...); ok {
				h.fold(p.Time(), m.Value)
				continue
			}
			p.Send("out", h.I)
			h.I++
			continue
		}
		m, ok := p.Recv(ins...)
		if !ok {
			return nil
		}
		h.fold(p.Time(), m.Value)
	}
	return nil
}

// SaveState writes the progress: I, Got and Sum. N, Period and Sinks
// are the description's, as every demo behaviour's parameters are.
func (h *hotBeh) SaveState() ([]byte, error) {
	b := binary.AppendVarint(nil, int64(h.I))
	b = binary.AppendVarint(b, int64(h.Got))
	return binary.AppendUvarint(b, h.Sum), nil
}

func (h *hotBeh) RestoreState(b []byte) error {
	f := wire.ReadFields(b)
	h.I, h.Got, h.Sum = int(f.Varint()), int(f.Varint()), f.Uvarint()
	return f.Done()
}

// sinkBeh echoes each request back on its reply net.
type sinkBeh struct {
	Count int
}

func (s *sinkBeh) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		p.Send("out", m.Value)
		s.Count++
	}
}

func (s *sinkBeh) SaveState() ([]byte, error)  { return binary.AppendVarint(nil, int64(s.Count)), nil }
func (s *sinkBeh) RestoreState(b []byte) error { return wire.ReadInts(b, &s.Count) }

// pumpBeh generates purely local traffic on its host.
type pumpBeh struct {
	N      int
	Period vtime.Duration
	I      int
}

func (b *pumpBeh) Run(p *core.Proc) error {
	for b.I < b.N {
		p.DelayUntil(vtime.Time(int64(b.I+1) * int64(b.Period)))
		p.Send("out", b.I)
		b.I++
	}
	return nil
}

func (b *pumpBeh) SaveState() ([]byte, error)   { return binary.AppendVarint(nil, int64(b.I)), nil }
func (b *pumpBeh) RestoreState(bs []byte) error { return wire.ReadInts(bs, &b.I) }

// drainBeh absorbs local filler traffic.
type drainBeh struct {
	Count int
}

func (b *drainBeh) Run(p *core.Proc) error {
	for {
		if _, ok := p.Recv("in"); !ok {
			return nil
		}
		b.Count++
	}
}

func (b *drainBeh) SaveState() ([]byte, error)   { return binary.AppendVarint(nil, int64(b.Count)), nil }
func (b *drainBeh) RestoreState(bs []byte) error { return wire.ReadInts(bs, &b.Count) }
