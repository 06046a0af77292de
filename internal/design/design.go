// Package design is a system description as SystemBuilder fills it —
// the components with their behaviours, ports and runlevels, the graph
// view placing them on subsystems and joining them with nets, the
// channel each subsystem pair gets, and the scheduler settings — and
// the one place such a description is realized on kernel subsystems.
// A local build, a split deployment and a mesh member all build
// through it, so a component migrating into a mesh member is made
// exactly as a build makes it.
package design

import (
	"fmt"
	"slices"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/vtime"
)

// Component is one component of a description.
type Component struct {
	Name     string
	Behavior core.Behavior
	Ports    []string
	Runlevel string // initial detail level, "" for none
}

// Channel is the policy and link model of the channel joining a pair
// of subsystems.
type Channel struct {
	Policy channel.Policy
	Link   channel.LinkModel
}

// System is a description of a whole system.
type System struct {
	Comps map[string]*Component
	Order []string    // component names, in description order
	View  *graph.View // each component's subsystem, and the nets

	Default Channel               // every pair without an entry in PerPair
	PerPair map[[2]string]Channel // keyed by the pair, sorted

	Workers  int            // scheduler worker pool of every subsystem
	Optimism vtime.Duration // optimistic window of every subsystem
}

// Channel returns the channel configuration of the pair a, b.
func (d *System) Channel(a, b string) Channel {
	if a > b {
		a, b = b, a
	}
	if cfg, ok := d.PerPair[[2]string{a, b}]; ok {
		return cfg
	}
	return d.Default
}

// Partition cuts the view into per-subsystem net fragments and the
// channels joining them, and applies the paper's simple-cycles-only
// rule to the conservative channels.
func (d *System) Partition() ([]graph.Split, []graph.ChannelSpec, error) {
	splits, chans, err := d.View.Partition()
	if err != nil {
		return nil, nil, err
	}
	tp := graph.NewTopology()
	for _, cs := range chans {
		if d.Channel(cs.A, cs.B).Policy != channel.Conservative {
			continue
		}
		tp.AddEdge(cs.A, cs.B)
		tp.AddEdge(cs.B, cs.A)
	}
	if err := tp.Validate(); err != nil {
		return nil, nil, err
	}
	return splits, chans, nil
}

// Places reports whether the description places a component on the
// named subsystem.
func (d *System) Places(subsystem string) bool {
	return slices.ContainsFunc(d.Order, func(c string) bool { return d.View.Subsystem(c) == subsystem })
}

// Unhosted is the error for a subsystem of the description that no
// host of the deployment is named after: a *graph.UnknownHostError
// naming the subsystem and its first component.
func (d *System) Unhosted(subsystem string) error {
	e := &graph.UnknownHostError{Host: subsystem}
	if comps := d.View.Components(subsystem); len(comps) > 0 {
		e.Component = comps[0]
	}
	return e
}

// NewSubsystem creates an empty kernel subsystem with the
// description's scheduler settings.
func (d *System) NewSubsystem(name string) *core.Subsystem {
	s := core.NewSubsystem(name)
	s.SetWorkers(d.Workers)
	if d.Optimism > 0 {
		s.SetOptimism(d.Optimism)
	}
	return s
}

// Populate instantiates the components the description places on s,
// in description order, then s's fragment of every split.
func (d *System) Populate(s *core.Subsystem, splits []graph.Split) error {
	for _, name := range d.Order {
		if d.View.Subsystem(name) != s.Name() {
			continue
		}
		if err := d.Comps[name].Instantiate(s); err != nil {
			return err
		}
	}
	return s.NewNets(splits)
}

// Instantiate creates the component on s with its ports and runlevel.
func (c *Component) Instantiate(s *core.Subsystem) error {
	cc, err := s.NewComponent(c.Name, c.Behavior, c.Ports...)
	if err != nil {
		return err
	}
	if c.Runlevel != "" {
		cc.SetRunlevel(c.Runlevel)
	}
	return nil
}

// Resplit brings s's net fragments up to date with splits after a
// component moved in: it creates the fragments s lacks and connects
// every local port not yet on its net. What is already in place is
// left as it is, so a second call changes nothing.
func Resplit(s *core.Subsystem, splits []graph.Split) error {
	for _, sp := range splits {
		frag := sp.Fragment(s.Name())
		if frag == nil {
			continue
		}
		n := s.Net(sp.Net)
		if n == nil {
			var err error
			if n, err = s.NewNet(sp.Net, sp.Delay); err != nil {
				return err
			}
		}
		for _, pr := range frag.Ports {
			c := s.Component(pr.Component)
			if c == nil {
				return fmt.Errorf("design: %s: net %s references missing local component %s", s.Name(), sp.Net, pr.Component)
			}
			p := c.Port(pr.Port)
			if p == nil {
				return fmt.Errorf("design: %s: component %s has no port %s", s.Name(), pr.Component, pr.Port)
			}
			if p.Net() == n {
				continue // already connected
			}
			if err := s.Connect(n, p); err != nil {
				return err
			}
		}
	}
	return nil
}
