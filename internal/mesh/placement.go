// Blueprint: the shared description of the simulated system that
// every mesh member compiles in. Behaviours are Go code, so they
// cannot travel over the wire — instead each member carries the same
// blueprint and a migration destination instantiates the component
// from its factory, then adoption supplies the captured state.
package mesh

import (
	"fmt"
	"sort"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/vtime"
)

// componentSpec describes one component: its ports and a factory for
// a fresh behaviour instance.
type componentSpec struct {
	Name  string
	Ports []string
	New   func() core.Behavior
}

// netSpec describes one logical net in the global view.
type netSpec struct {
	Name  string
	Delay vtime.Duration
	Ports []graph.PortRef
}

// Blueprint is the global system description plus the initial
// placement of components onto members. All cross-member channels
// share one policy and link model; migration transparency requires a
// pure-latency link (PerMessage == 0, BytesPerSecond == 0) so that a
// message's arrival time does not depend on channel serialization
// history, only on when it was sent.
type Blueprint struct {
	Components []componentSpec
	Nets       []netSpec
	Placement  map[string]string // component -> member name
	Policy     channel.Policy
	Link       channel.LinkModel
}

// Component returns the spec for the named component, or nil.
func (bp *Blueprint) Component(name string) *componentSpec {
	for i := range bp.Components {
		if bp.Components[i].Name == name {
			return &bp.Components[i]
		}
	}
	return nil
}

// Validate checks the blueprint against the member set. A component
// placed on a member the mesh does not know about fails fast with a
// *graph.UnknownHostError naming both, mirroring the build-time check
// in pia.BuildOnNodes.
func (bp *Blueprint) Validate(members []string) error {
	known := make(map[string]bool, len(members))
	for _, m := range members {
		known[m] = true
	}
	comps := make([]string, 0, len(bp.Components))
	for _, cs := range bp.Components {
		comps = append(comps, cs.Name)
	}
	sort.Strings(comps)
	for _, c := range comps {
		host, ok := bp.Placement[c]
		if !ok {
			return fmt.Errorf("mesh: component %q has no placement", c)
		}
		if !known[host] {
			return &graph.UnknownHostError{Component: c, Host: host}
		}
	}
	for _, cs := range bp.Components {
		if cs.New == nil {
			return fmt.Errorf("mesh: component %q has no behaviour factory", cs.Name)
		}
	}
	return nil
}

// view builds the global graph view from the blueprint.
func (bp *Blueprint) view() (*graph.View, error) {
	v := graph.NewView()
	for _, cs := range bp.Components {
		if err := v.AddComponent(cs.Name, bp.Placement[cs.Name]); err != nil {
			return nil, err
		}
	}
	for _, ns := range bp.Nets {
		if err := v.AddNet(ns.Name, ns.Delay, ns.Ports...); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// peerOf returns the other end of a channel spec that touches me, ""
// for one that does not.
func peerOf(cs graph.ChannelSpec, me string) string {
	switch me {
	case cs.A:
		return cs.B
	case cs.B:
		return cs.A
	}
	return ""
}

// netsByPeer extracts, for one member, the set of nets each of its
// channels carries: peer name -> net name set.
func netsByPeer(chans []graph.ChannelSpec, me string) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, cs := range chans {
		peer := peerOf(cs, me)
		if peer == "" {
			continue
		}
		set := make(map[string]bool, len(cs.Nets))
		for _, n := range cs.Nets {
			set[n] = true
		}
		out[peer] = set
	}
	return out
}
