package channel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/vtime"
)

// TestBidirectionalStress sweeps the request/response scenario across
// lookaheads, compute times and round counts: the configuration space
// where safe-time protocol bugs historically hid. Every combination
// must complete all rounds with physically plausible round trips.
func TestBidirectionalStress(t *testing.T) {
	type cfg struct {
		latency vtime.Duration
		perMsg  vtime.Duration
		compute vtime.Duration
		rounds  int
	}
	var cfgs []cfg
	for _, lat := range []vtime.Duration{1, 7, 500} {
		for _, cmp := range []vtime.Duration{0, 3, 1000} {
			for _, rounds := range []int{1, 5, 17} {
				cfgs = append(cfgs, cfg{latency: lat, perMsg: 1, compute: cmp, rounds: rounds})
			}
		}
	}
	for i, c := range cfgs {
		c := c
		t.Run(fmt.Sprintf("case%d_lat%d_cmp%d_r%d", i, c.latency, c.compute, c.rounds), func(t *testing.T) {
			s1 := core.NewSubsystem("cli")
			s2 := core.NewSubsystem("srv")
			completed := 0
			ping := core.BehaviorFunc(func(p *core.Proc) error {
				for r := 0; r < c.rounds; r++ {
					start := p.Time()
					p.Send("out", r)
					m, ok := p.Recv("in")
					if !ok {
						return nil
					}
					if m.Value.(int) != r {
						return fmt.Errorf("echo %d = %v", r, m.Value)
					}
					if rtt := p.Time().Sub(start); rtt < 2*(c.latency+1)+c.compute {
						return fmt.Errorf("round %d RTT %v below physics", r, rtt)
					}
					completed++
				}
				return nil
			})
			pc, _ := s1.NewComponent("ping", &trivial{ping}, "out", "in")
			echo := core.BehaviorFunc(func(p *core.Proc) error {
				for {
					m, ok := p.Recv("in")
					if !ok {
						return nil
					}
					p.Advance(c.compute)
					p.Send("out", m.Value)
				}
			})
			ec, _ := s2.NewComponent("echo", &trivial{echo}, "in", "out")
			req1, _ := s1.NewNet("req", 0)
			s1.Connect(req1, pc.Port("out"))
			rsp1, _ := s1.NewNet("rsp", 0)
			s1.Connect(rsp1, pc.Port("in"))
			req2, _ := s2.NewNet("req", 0)
			s2.Connect(req2, ec.Port("in"))
			rsp2, _ := s2.NewNet("rsp", 0)
			s2.Connect(rsp2, ec.Port("out"))
			h1, h2 := NewHub(s1), NewHub(s2)
			link := LinkModel{Latency: c.latency, PerMessage: 1}
			ep1, ep2, err := Connect(h1, h2, Conservative, link)
			if err != nil {
				t.Fatal(err)
			}
			ep1.BindNet(req1, "req")
			ep2.BindNet(rsp2, "rsp")

			horizon := vtime.Time(vtime.Duration(c.rounds+2) * (4*(c.latency+1) + c.compute + 100))
			var wg sync.WaitGroup
			errs := make([]error, 2)
			wg.Add(2)
			go func() { defer wg.Done(); errs[0] = s1.Run(horizon) }()
			go func() { defer wg.Done(); errs[1] = s2.Run(horizon) }()
			wg.Wait()
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("runs: %v / %v", errs[0], errs[1])
			}
			if completed != c.rounds {
				t.Fatalf("completed %d/%d rounds", completed, c.rounds)
			}
			for _, ep := range append(h1.Endpoints(), h2.Endpoints()...) {
				if err := ep.Err(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// trivial wraps a stateless behaviour with empty state saving.
type trivial struct{ B core.Behavior }

func (g *trivial) Run(p *core.Proc) error     { return g.B.Run(p) }
func (g *trivial) SaveState() ([]byte, error) { return []byte{}, nil }
func (g *trivial) RestoreState([]byte) error  { return nil }
